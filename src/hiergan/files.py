"""Atomic artifact writes and the one artifact container.

Every artifact the package writes (checkpoints, datasets, traces, metric
reports, manifests) goes through ``write_atomic``: the bytes land in a fresh
temporary file next to the target, which then replaces the target in one
``os.replace``. A write that fails with an error leaves the previous file
intact and no temporary file behind; a killed process leaves the previous
file too, but can leave its hidden ``.<name>.<hex>.tmp``, since the clean-up
runs only for an exception. ``replace_dir`` swaps a run directory in whole,
a promise it keeps for errors only (see there).
Files are not fsynced, so this guards against interrupted processes, not
against power loss.

Datasets, embedding tables, classifiers and model sets are all one checkpoint
file; little-endian throughout:

    magic    4 bytes  b"HGCK"
    version  uint32   currently 2
    meta_len uint32, meta utf-8 JSON object with sorted keys
    count    uint32   number of tensors
    per tensor:
        name_len uint32, name utf-8 bytes,
        rank uint32, dims uint32 * rank,
        data float64 * prod(dims), row-major
    crc32    uint32   zlib CRC32 of every byte before it

``load_checkpoint`` checks the magic, then the version, then the checksum,
then the layout. Version-1 files (no metadata, no checksum) are rejected with
the version error; every artifact can be regenerated from its seed.

``load_artifact`` is the one artifact reader: every loader gets its arrays
from it already checked against the names and shapes its metadata fixes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import struct
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import Tensor
from .hierarchy import ClassHierarchy, parse_hierarchy

_MAGIC = b"HGCK"
_VERSION = 2


class CheckpointError(IOError):
    """Checkpoint file is malformed, truncated, or version-incompatible."""


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


@contextlib.contextmanager
def replace_dir(path):
    """Yield a fresh staging directory beside ``path`` to fill; once the block
    ends without an error, it is renamed to ``path``. A directory already at
    ``path``, which the caller must be free to delete, is renamed aside first
    and deleted after. An error leaves ``path`` as it was and no staging
    directory. The swap is two renames, not one: a process killed between
    them leaves nothing at ``path``, only the hidden ``.old`` directory, and
    one killed while staging leaves its ``.tmp`` directory; nothing cleans
    either up."""
    path = Path(os.path.abspath(path))  # so that "." has a name to stage beside
    stage, old = (path.with_name(f".{path.name}.{os.urandom(8).hex()}.{kind}") for kind in ("tmp", "old"))
    stage.mkdir()
    try:
        yield stage
        if path.exists():
            os.rename(path, old)
        try:
            os.rename(stage, path)
        except BaseException:
            if old.exists():
                os.rename(old, path)
            raise
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    if old.exists():
        shutil.rmtree(old)


def save_checkpoint(path, named: dict[str, Tensor | np.ndarray], meta: dict | None = None) -> None:
    """Write named tensors and a JSON metadata object in the documented
    layout. Array chunks are views and the CRC runs over the chunks, so the
    file's bytes are copied once, by the final join."""
    blob = json.dumps(meta or {}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks = [_MAGIC, struct.pack("<II", _VERSION, len(blob)), blob, struct.pack("<I", len(named))]
    for name, value in named.items():
        arr = np.asarray(value.data if isinstance(value, Tensor) else value, dtype="<f8", order="C")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack(f"<I{len(encoded)}sI{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape))
        chunks.append(arr.data)
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    chunks.append(struct.pack("<I", crc))
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint back into its metadata and an ordered name -> array
    mapping."""
    blob = Path(path).read_bytes()
    if blob[:4] != _MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    if len(blob) < 12:
        raise CheckpointError(f"truncated checkpoint {path}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != _VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} in {path} (expected {_VERSION}; regenerate the file)"
        )
    body = memoryview(blob)[:-4]
    if zlib.crc32(body) != struct.unpack_from("<I", blob, len(body))[0]:
        raise CheckpointError(f"checkpoint checksum mismatch in {path}")
    pos = 8

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(body):
            raise CheckpointError(f"truncated checkpoint {path}")
        chunk = body[pos : pos + n]
        pos += n
        return chunk

    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(bytes(take(meta_len)).decode("utf-8"))
    except (ValueError, RecursionError) as err:
        raise CheckpointError(f"checkpoint {path} has malformed metadata: {err!r}") from err
    if not isinstance(meta, dict):
        raise CheckpointError(f"checkpoint {path} metadata is not a JSON object")
    (count,) = struct.unpack("<I", take(4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"checkpoint {path} has a malformed tensor name: {err!r}") from err
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        out[name] = np.frombuffer(take(8 * math.prod(dims)), dtype="<f8").reshape(dims).copy()
    if pos != len(body):
        raise CheckpointError(f"{path} has {len(body) - pos} trailing bytes")
    return meta, out


def load_artifact(path, kind: str, layout: Callable[[dict, ClassHierarchy], tuple]):
    """Read the ``kind`` artifact at ``path`` as ``(value, hierarchy, arrays)``:
    ``layout(meta, hierarchy)`` returns the value it parses from the metadata
    and the shape of every array the file must hold, None where the metadata
    fixes none. Any other layout raises ``CheckpointError`` naming the path."""
    meta, arrays = load_checkpoint(path)
    try:
        h = parse_hierarchy(meta["hierarchy"])
        value, shapes = layout(meta, h)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise CheckpointError(f"{kind} {path} has a malformed manifest: {err!r}") from err
    if set(arrays) != set(shapes):
        raise CheckpointError(f"{kind} {path} holds arrays {sorted(arrays)}, expected {sorted(shapes)}")
    for name, shape in shapes.items():
        # a float or bool in the manifest would compare equal to an int dim
        if shape is not None and (arrays[name].shape != shape or any(type(d) is not int for d in shape)):
            raise CheckpointError(f"{kind} {path}: array {name!r} has shape {arrays[name].shape}, expected {shape}")
    return value, h, arrays
