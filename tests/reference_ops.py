"""Primitive ops only the test oracles use, as free functions ``op(t, ...)``.

Each emits one record through ``Tape._emit``, as the fused ``che_margin``
record does, so it runs on any tape, including those ``grad_check`` builds.
``add``, ``sub``, ``mul`` and ``div`` broadcast and reduce each adjoint back
to its operand's shape. No backward rule holds the tape: that would be a cycle.

The ``masked_*`` array functions are the activations' two-branch forms by a
sign mask, forward and adjoint: the bitwise oracles for the tape's
branch-free kernels.
"""

import numpy as np

from hiergan.autodiff import Tape, Tensor


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def matmul(t: Tape, a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return t._emit("matmul", (a, b), ad @ bd, lambda g: (g @ bd.T, ad.T @ g))


def _binary(t: Tape, op: str, a: Tensor, b: Tensor, data, da, db) -> Tensor:
    """A broadcasting record whose adjoints, before reduction, are ``da(g)``
    and ``db(g)``."""
    return t._emit(op, (a, b), data, lambda g: (_sum_to_shape(da(g), a.shape), _sum_to_shape(db(g), b.shape)))


def add(t: Tape, a: Tensor, b: Tensor) -> Tensor:
    return _binary(t, "add", a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(t: Tape, a: Tensor, b: Tensor) -> Tensor:
    return _binary(t, "sub", a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(t: Tape, a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _binary(t, "mul", a, b, ad * bd, lambda g: g * bd, lambda g: g * ad)


def div(t: Tape, a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _binary(t, "div", a, b, ad / bd, lambda g: g / bd, lambda g: -g * ad / (bd * bd))


def add_const(t: Tape, a: Tensor, c: float) -> Tensor:
    return t._emit("add_const", (a,), a.data + float(c), lambda g: (g,))


def reshape(t: Tape, a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.shape
    return t._emit("reshape", (a,), a.data.reshape(shape), lambda g: (g.reshape(old),))


def sum(t: Tape, a: Tensor) -> Tensor:
    shape = a.shape
    return t._emit("sum", (a,), np.asarray(a.data.sum()), lambda g: (np.full(shape, float(g)),))


def gather(t: Tape, a: Tensor, idx) -> Tensor:
    """Rows ``idx`` of a; a repeated index accumulates its rows' adjoints."""
    idx = np.asarray(idx)

    def back(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return t._emit("gather", (a,), a.data[idx], back)


def concat(t: Tape, parts, axis: int = 0) -> Tensor:
    """The parts joined along ``axis``; each part's adjoint is its block of g."""
    parts = tuple(parts)
    cuts = np.cumsum([p.shape[axis] for p in parts])[:-1]
    data = np.concatenate([p.data for p in parts], axis=axis)
    return t._emit("concat", parts, data, lambda g: tuple(np.split(g, cuts, axis=axis)))


def sqrt(t: Tape, a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    return t._emit("sqrt", (a,), data, lambda g: (g * 0.5 / data,))


def masked_relu(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0, a, 0.0)


def masked_relu_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * (a > 0)


def masked_leaky_relu(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0, a, a * 0.2)


def masked_leaky_relu_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.where(a > 0, g, g * 0.2)
