"""Reverse-mode automatic differentiation over dense float64 arrays.

Design: define-by-run Wengert list. A ``Tape`` owns, as methods, the ten ops
the networks run: ``linear``, ``add``, ``scale``, ``concat``, ``slice``,
``relu``, ``leaky_relu``, ``sigmoid``, ``binary_cross_entropy_with_logits``
and ``softmax_cross_entropy``; each call computes the forward value with
numpy and appends one record (inputs, output, backward rule).
``Tape.backward`` walks the records once in reverse, accumulating adjoints
additively, so a tensor feeding several consumers receives the sum of their
contributions. Construction order is a topological order, which makes the
single reverse sweep correct.

Each tape names the tensors it differentiates: ``Tape(track=params)``. An
op's output is tracked when one of its inputs is, and only ops with a tracked
output are recorded, so a bare ``Tape()`` records nothing: the forward-only
passes (classification, generation) cost no bookkeeping. A backward rule
returns None for an input the tape does not track, so classifier weights and
real images cost no gradient product, while a tracked image still receives
the gradient that reaches it through them. ``linear(x, w, b)`` is one record
for ``x @ w + b``, the dense layer every network is built from; its bias
adjoint is the column sum of the output adjoint.

The elementwise forward kernels are branch-free: ``relu`` and ``leaky_relu``
take a maximum, and ``sigmoid`` picks its numerator with one ``where``; each
equals its masked two-branch form bit for bit (the test oracles keep those
forms). The sign masks the activations' adjoints need are built by their
backward rules, so a forward on a bare tape builds none. A NaN reaching
``relu`` stays NaN and raises ``NonFiniteError``.

``Tape._emit`` is also how other code adds a record: the embedding margin
loss is one fused ``che_margin`` record whose backward replays, in plain
numpy, the adjoints its primitive-op graph would produce; test oracles emit
their op-by-op graphs the same way.

Tapes are single-writer and rebuilt per training step. ``Tape.backward``
returns the gradient of every tracked leaf the loss depends on; that dict is
the only channel for gradients. A tensor the tape does not track, including
one made on another tape, is a constant.

``adam_step`` updates the moment arrays of each ``AdamState`` in place and
rebinds ``Tensor.data`` to a new array, so the forward values a tape's
closures captured never change under them.

Checkpoint file layout, the one container every artifact uses (datasets,
embedding tables, classifiers, model sets); little-endian throughout:

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
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .files import write_atomic

__all__ = [
    "Tensor",
    "Tape",
    "AdamState",
    "adam_step",
    "grad_check",
    "GradCheckReport",
    "NonFiniteError",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "BCE_LOGIT_CLAMP",
]

# bound on the logit magnitude used for the BCE *value*; past this point the
# loss saturates, and the gradient (sigmoid - target) is within 1e-13 of its
# limit, so clipping bounds the loss without stopping learning
BCE_LOGIT_CLAMP = 30.0

# negative-side slope of leaky_relu, the one every network uses
_LEAKY_SLOPE = 0.2


class NonFiniteError(ArithmeticError):
    """An op produced a NaN or infinity; the message names the op."""


class CheckpointError(IOError):
    """Checkpoint file is malformed, truncated, or version-incompatible."""


class Tensor:
    """Dense float64 array with an optional name. Whether a gradient flows to
    it is up to each tape: see ``Tape(track=...)``."""

    __slots__ = ("data", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.data.shape})"


@dataclass
class _Record:
    inputs: tuple[Tensor, ...]
    out: Tensor
    # maps the output adjoint to one adjoint per input (None for untracked inputs)
    backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]


class Tape:
    """Ordered record of the primitive ops that depend on the tracked
    tensors; single-writer, rebuilt per step."""

    def __init__(self, track: Iterable[Tensor] = ()):
        self._records: list[_Record] = []
        self._tracked: set[Tensor] = set(track)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------ core

    def _emit(self, op: str, inputs: tuple[Tensor, ...], data: np.ndarray, backward) -> Tensor:
        if not np.isfinite(data).all():
            raise NonFiniteError(f"op {op!r} produced non-finite values")
        out = Tensor(data)
        if any(t in self._tracked for t in inputs):
            self._tracked.add(out)
            self._records.append(_Record(inputs, out, backward))
        return out

    def tracks(self, t: Tensor) -> bool:
        return t in self._tracked

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Accumulate d(loss)/d(t) over the records in reverse; return the
        gradient of every tracked leaf the loss depends on."""
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        tracked = self._tracked
        adjoints: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
        for rec in reversed(self._records):
            out_g = adjoints.pop(rec.out, None)
            if out_g is None:
                continue
            for t, g in zip(rec.inputs, rec.backward(out_g)):
                if g is None or t not in tracked:
                    continue
                adjoints[t] = adjoints[t] + g if t in adjoints else g
        # records run in construction order, so each produced tensor's adjoint
        # was complete, and popped, when its record ran: what is left is leaves
        return {t: g for t, g in adjoints.items() if t in tracked}

    # ------------------------------------------------------------ primitives

    def linear(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """Dense layer ``x @ w + b`` for x (n, k), w (k, m) and b (m,)."""
        if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
            raise ValueError(f"linear shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
        xd, wd = x.data, w.data
        # resolved here: a rule that asked the tape would keep it in a cycle
        tx, tw, tb = self.tracks(x), self.tracks(w), self.tracks(b)

        def back(g):
            return (g @ wd.T if tx else None, xd.T @ g if tw else None, g.sum(axis=0) if tb else None)

        out = xd @ wd
        out += b.data
        return self._emit("linear", (x, w, b), out, back)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")

        def back(g):
            return g, g

        return self._emit("add", (a, b), a.data + b.data, back)

    def scale(self, a: Tensor, s: float) -> Tensor:
        s = float(s)

        def back(g):
            return (g * s,)

        return self._emit("scale", (a,), a.data * s, back)

    def concat(self, tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
        parts = tuple(tensors)
        sizes = [t.shape[axis] for t in parts]
        offsets = np.cumsum([0] + sizes)

        def back(g):
            return tuple(
                np.take(g, range(offsets[i], offsets[i + 1]), axis=axis) for i in range(len(parts))
            )

        return self._emit("concat", parts, np.concatenate([t.data for t in parts], axis=axis), back)

    def slice(self, a: Tensor, key) -> Tensor:
        data = a.data[key]

        def back(g):
            full = np.zeros_like(a.data)
            # add.at accumulates when the key repeats an index (gather of
            # duplicate rows), where plain assignment would drop contributions
            np.add.at(full, key, g)
            return (full,)

        return self._emit("slice", (a,), data, back)

    def relu(self, a: Tensor) -> Tensor:
        ad = a.data

        def back(g):
            return (g * (ad > 0),)

        out = np.maximum(ad, 0.0)
        # numpy's maximum(-0.0, 0.0) may return either zero; adding +0.0 makes
        # it the +0.0 of the masked form
        out += 0.0
        return self._emit("relu", (a,), out, back)

    def leaky_relu(self, a: Tensor) -> Tensor:
        ad = a.data

        def back(g):
            return (np.where(ad > 0, g, g * _LEAKY_SLOPE),)

        # for a slope in [0, 1], max(a, slope * a) is the masked form bit for bit
        out = ad * _LEAKY_SLOPE
        np.maximum(ad, out, out=out)
        return self._emit("leaky_relu", (a,), out, back)

    def sigmoid(self, a: Tensor) -> Tensor:
        data = _sigmoid(a.data)

        def back(g):
            return (g * data * (1.0 - data),)

        return self._emit("sigmoid", (a,), data, back)

    def binary_cross_entropy_with_logits(self, logits: Tensor, target) -> Tensor:
        """Mean BCE over all elements in the overflow-free form
        max(z, 0) - z*t + log1p(exp(-|z|)); gradient is (sigmoid(z) - t) / n.

        The value is computed from logits clipped to +-BCE_LOGIT_CLAMP so a
        saturated discriminator yields a bounded loss; the gradient keeps the
        analytic form at the clipped point (+-1 on the wrong side to ~1e-13),
        so the clamp bounds values without blocking gradient flow.
        """
        t = np.asarray(target, dtype=np.float64)
        z = np.clip(logits.data, -BCE_LOGIT_CLAMP, BCE_LOGIT_CLAMP)
        per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
        n = per.size
        sig = _sigmoid(z)

        def back(g):
            return (float(g) * (sig - t) / n,)

        return self._emit("bce_with_logits", (logits,), np.asarray(per.mean()), back)

    def softmax_cross_entropy(self, logits: Tensor, targets) -> Tensor:
        """Sum over rows of -log softmax(logits)[target].

        ``logits`` is (M,) with an int target or (n, M) with n int targets;
        the logits gradient is softmax minus one-hot, row for row.
        """
        z = logits.data
        squeeze = z.ndim == 1
        z2 = z.reshape(1, -1) if squeeze else z
        idx = np.atleast_1d(np.asarray(targets, dtype=np.int64))
        if z2.ndim != 2 or idx.shape != (z2.shape[0],):
            raise ValueError(f"softmax_cross_entropy shape mismatch: logits {z.shape}, targets {idx.shape}")
        if idx.min() < 0 or idx.max() >= z2.shape[1]:
            raise ValueError(f"softmax_cross_entropy target out of range 0..{z2.shape[1] - 1}")
        shifted = z2 - z2.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=1))
        rows = np.arange(z2.shape[0])
        losses = logsumexp - shifted[rows, idx]
        probs = _softmax(z2, axis=1)

        def back(g):
            gz = probs.copy()
            gz[rows, idx] -= 1.0
            gz *= float(g)
            return (gz.reshape(z.shape) if squeeze else gz,)

        return self._emit("softmax_cross_entropy", (logits,), np.asarray(losses.sum()), back)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with e = e^-|x|
    # never overflowing; the numerator is picked by sign, and e and the
    # denominator are computed in place in one buffer
    e = np.abs(x, out=np.empty(x.shape))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------- adam


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_param(cls, p: Tensor) -> "AdamState":
        return cls(m=np.zeros_like(p.data), v=np.zeros_like(p.data))


def adam_step(
    params: Sequence[Tensor],
    grads: Sequence[np.ndarray],
    states: Sequence[AdamState],
    lr: float,
    beta1: float = 0.5,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update: the states' moment arrays change in
    place, each ``p.data`` is rebound to the updated values. Defaults
    beta1=0.5, beta2=0.999 match the GAN training configuration."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    for p, g, st in zip(params, grads, states, strict=True):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.data.shape}")
        st.t += 1
        st.m *= beta1
        st.m += (1.0 - beta1) * g
        st.v *= beta2
        st.v += (1.0 - beta2) * (g * g)
        m_hat = st.m / (1.0 - beta1**st.t)
        v_hat = st.v / (1.0 - beta2**st.t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


# ----------------------------------------------------------------- gradcheck


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    worst_param: int
    worst_index: int
    analytic: float
    numeric: float

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"grad_check {verdict}: max rel error {self.max_rel_error:.3e} "
            f"(param {self.worst_param}, flat index {self.worst_index}, "
            f"analytic {self.analytic:+.6e}, numeric {self.numeric:+.6e})"
        )


def grad_check(
    f: Callable[[Tape, Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    step: float = 1e-5,
    tol: float = 1e-4,
    max_per_param: int | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of a deterministic scalar function against
    central finite differences, coordinate by coordinate.

    Relative error uses max(|analytic|, |numeric|, 1e-4) as denominator so
    near-zero entries do not amplify finite-difference noise. For large
    parameter tensors ``max_per_param`` limits the sweep to that many evenly
    spaced coordinates per tensor (always including both ends).
    """
    tape = Tape(params)
    loss = f(tape, params)
    grads = tape.backward(loss)
    worst = GradCheckReport(True, 0.0, -1, -1, 0.0, 0.0)
    for pi, p in enumerate(params):
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        if max_per_param is None or flat.size <= max_per_param:
            coords = range(flat.size)
        else:
            coords = np.unique(np.linspace(0, flat.size - 1, max_per_param).astype(int))
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            hi = f(Tape(), params).item()
            flat[i] = orig - step
            lo = f(Tape(), params).item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            a = float(analytic.reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            if rel > worst.max_rel_error:
                worst = GradCheckReport(rel <= tol, rel, pi, i, a, numeric)
    return worst


# --------------------------------------------------------------- checkpoints

_MAGIC = b"HGCK"
_VERSION = 2


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
    with open(path, "rb") as fh:
        blob = fh.read()
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
