"""Reverse-mode automatic differentiation over dense float64 arrays.

Design: define-by-run Wengert list. A ``Tape`` owns, as methods, the five
ops the networks run: ``linear``, ``add``, ``scale``,
``binary_cross_entropy_with_logits`` and ``softmax_cross_entropy``; each
call computes the forward value with numpy and appends one record (inputs,
output, backward rule).
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
adjoint is the column sum of the output adjoint. A conditioned first layer
passes its class row as ``linear(x, w, b, cond=c)``: the row joins every
input row in the math, but it is multiplied once, into the bias, and its
adjoints are column sums, so a batch of n rows costs no n copies of it.

A layer's activation is part of its record: ``linear(..., act=a)`` applies
relu, leaky_relu or sigmoid in place, with branch-free kernels (a maximum;
one ``where`` for sigmoid's numerator) that equal their masked two-branch
forms bit for bit (the test oracles keep those forms). Its adjoint reads
the output alone, and the sign masks are built by the backward rule, so a
forward on a bare tape builds none. A NaN or infinity is caught before the
activation, which could map it to a finite value.

``Tape._emit`` is also how other code adds a record: the embedding margin
loss is one fused ``che_margin`` record whose backward is the closed-form
cosine adjoint in plain numpy, and a class's conditioning row is one
``condition`` record (``embed.condition``); test oracles emit their op-by-op
graphs the same way.

Tapes are single-writer and rebuilt per training step. ``Tape.backward``
returns the gradient of every tracked leaf the loss depends on; that dict is
the only channel for gradients. A tensor the tape does not track, including
one made on another tape, is a constant.

``Adam`` holds one parameter group's moment arrays; ``Adam.step`` takes the
dict ``Tape.backward`` returns, updates them in place and rebinds
``Tensor.data`` to a new array, so the forward values a tape's closures
captured never change under them. It folds the bias corrections into the
step size and eps, which is the same update rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

# bound on the logit magnitude used for the BCE *value*; past this point the
# loss saturates, and the gradient (sigmoid - target) is within 1e-13 of its
# limit, so clipping bounds the loss without stopping learning
BCE_LOGIT_CLAMP = 30.0

# negative-side slope of leaky_relu, the one every network uses
_LEAKY_SLOPE = 0.2


class NonFiniteError(ArithmeticError):
    """An op produced a NaN or infinity; the message names the op."""


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

    def linear(self, x: Tensor, w: Tensor, b: Tensor, cond: Tensor | None = None, cond_first: bool = False,
               act: str | None = None) -> Tensor:
        """Dense layer ``act(x @ w + b)`` for x (n, k), w (k, m) and b (m,),
        where ``act`` is None, "relu", "leaky_relu" or "sigmoid".

        With ``cond`` c (1, j), the layer's input is every row of x joined to
        c, as [c | x] when ``cond_first`` and [x | c] otherwise, for w
        (k + j, m). The row is never repeated: with w_c the j rows of w that
        c meets and w_x the rest, the value is x @ w_x + (c @ w_c + b), and c
        acts as a bias. Its adjoints are g @ w_x.T for x, x.T @ g in the x
        rows of w and outer(c, g.sum(0)) in the c rows, g.sum(0) @ w_c.T for
        c and g.sum(0) for b, where g is the pre-activation's adjoint.
        """
        j = 0 if cond is None else cond.data.shape[-1]
        if (
            x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] + j != w.shape[0] or b.shape != (w.shape[1],)
            or cond is not None and cond.shape != (1, j)
        ):
            shapes = f"{x.shape} @ {w.shape} + {b.shape}" + ("" if cond is None else f" with condition {cond.shape}")
            raise ValueError(f"linear shape mismatch: {shapes}")
        if act not in (None, "relu", "leaky_relu", "sigmoid"):
            raise ValueError(f"linear activation must be relu, leaky_relu, sigmoid or None, got {act!r}")
        xd, wd = x.data, w.data
        # resolved here: a rule that asked the tape would keep it in a cycle
        tx, tw, tb = self.tracks(x), self.tracks(w), self.tracks(b)
        if cond is None:

            def back(g):
                return (g @ wd.T if tx else None, xd.T @ g if tw else None, g.sum(axis=0) if tb else None)

            out = xd @ wd
            out += b.data
            return self._activated((x, w, b), out, back, act)

        k = x.shape[1]
        rows_c, rows_x = (slice(None, j), slice(j, None)) if cond_first else (slice(k, None), slice(None, k))
        cd, wc, wx, tc = cond.data, wd[rows_c], wd[rows_x], self.tracks(cond)

        def back_cond(g):
            col = g.sum(axis=0)
            gw = None
            if tw:
                gw = np.empty_like(wd)
                gw[rows_x] = xd.T @ g
                gw[rows_c] = np.outer(cd, col)
            return (g @ wx.T if tx else None, gw, col if tb else None, (wc @ col)[None] if tc else None)

        out = xd @ wx
        out += cd @ wc + b.data
        return self._activated((x, w, b, cond), out, back_cond, act)

    def _activated(self, inputs: tuple[Tensor, ...], out: np.ndarray, back, act: str | None) -> Tensor:
        """The ``linear`` record of ``act(out)``: its rule chains the
        activation's adjoint into ``back``. _emit checks ``out`` before the
        activation runs in place on it, the buffer the tensor and rule hold."""
        if act is None:
            return self._emit("linear", inputs, out, back)
        if act == "sigmoid":
            h = self._emit("linear", inputs, out, lambda g: back(g * out * (1.0 - out)))
            out[...] = _sigmoid(out)
            return h
        # out > 0 exactly where the pre-activation is
        if act == "relu":
            h = self._emit("linear", inputs, out, lambda g: back(g * (out > 0)))
            np.maximum(out, 0.0, out=out)
            # numpy's maximum(-0.0, 0.0) may return either zero; adding +0.0
            # makes it the +0.0 of the masked form
            out += 0.0
            return h
        h = self._emit("linear", inputs, out, lambda g: back(np.where(out > 0, g, g * _LEAKY_SLOPE)))
        # for a slope in [0, 1], max(a, slope * a) is the masked form bit for bit
        np.maximum(out, out * _LEAKY_SLOPE, out=out)
        return h

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
        """Sum over rows of -log softmax(logits)[target] for logits (n, M)
        and n int targets; the logits gradient is softmax minus one-hot,
        row for row."""
        z = logits.data
        idx = np.asarray(targets, dtype=np.int64)
        if z.ndim != 2 or idx.shape != (z.shape[0],):
            raise ValueError(f"softmax_cross_entropy shape mismatch: logits {z.shape}, targets {idx.shape}")
        if idx.min() < 0 or idx.max() >= z.shape[1]:
            raise ValueError(f"softmax_cross_entropy target out of range 0..{z.shape[1] - 1}")
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=1, keepdims=True)
        rows = np.arange(z.shape[0])
        losses = np.log(total[:, 0]) - shifted[rows, idx]
        probs = e / total

        def back(g):
            gz = probs.copy()
            gz[rows, idx] -= 1.0
            gz *= float(g)
            return (gz,)

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

# fixed for every parameter group: 0.5 is the DCGAN decay rate (Radford et
# al. 2016), the second rate and eps are those of Kingma & Ba (2015)
ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over one parameter group, with its moments and
    step count, in the folded form of Kingma & Ba (2015, section 2): at step
    t the step size is lr * sqrt(1 - beta2^t) / (1 - beta1^t) and the raw
    moments are used, with eps_hat = eps * sqrt(1 - beta2^t) in place of eps.
    That is the textbook lr * m_hat / (sqrt(v_hat) + eps) rearranged, so the
    rule is the same and only the rounding differs."""

    def __init__(self, params: Sequence[Tensor], lr: float):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        """One update from the gradients ``Tape.backward`` returns: the moments
        change in place, each ``p.data`` is rebound to the updated values."""
        self.t += 1
        root = math.sqrt(1.0 - ADAM_BETA2**self.t)
        step, eps = self.lr * root / (1.0 - ADAM_BETA1**self.t), ADAM_EPS * root
        for p, m, v in zip(self.params, self.m, self.v):
            g = np.asarray(grads[p], dtype=np.float64)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.data.shape}")
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data = p.data - step * m / (np.sqrt(v) + eps)


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

