"""Atomic artifact writes.

Every artifact the package writes (checkpoints, datasets, traces, metric
reports, manifests) goes through ``write_atomic``: the bytes land in a fresh
temporary file next to the target, which then replaces the target in one
``os.replace``. A process that dies or a write that fails midway leaves the
previous file intact and no temporary file behind. Files are not fsynced, so
this guards against interrupted processes, not against power loss.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes | str) -> None:
    """Replace the file at ``path`` with ``data``; text is written as UTF-8."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
