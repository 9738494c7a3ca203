import ast
import gc
import inspect
import json
import math
import struct
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import reference_ops as ref
from hiergan.autodiff import (
    BCE_LOGIT_CLAMP,
    Adam,
    GradCheckReport,
    NonFiniteError,
    Tape,
    Tensor,
    grad_check,
    _sigmoid,
)
from hiergan.embed import condition
from hiergan.files import CheckpointError, load_checkpoint, save_checkpoint


def leaf(data, name=None):
    return Tensor(np.asarray(data, dtype=np.float64), name=name)


# ---------------------------------------------------------- forced examples


def test_matmul_identity():
    t = Tape()
    a = leaf([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    out = ref.matmul(t, a, eye)
    assert np.array_equal(out.data, a.data)


def test_sigmoid_gradient_at_zero_is_quarter():
    x = leaf([0.0])
    t = Tape([x])
    loss = ref.sum(t, t.sigmoid(x))
    grads = t.backward(loss)
    assert abs(grads[x][0] - 0.25) < 1e-15


def masked_sigmoid(x):
    """The two-branch sigmoid by boolean-mask gathers, the oracle for
    ``_sigmoid``."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_oracle_bitwise():
    special = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0, 709.8, -709.8, 1e-320, -1e-320])
    rng = np.random.default_rng(4)
    for x in [special, special.reshape(3, 4)] + [rng.normal(size=(50, 7)) * s for s in (1e-3, 1.0, 30.0, 500.0)]:
        with np.errstate(over="ignore"):
            want = masked_sigmoid(x)
        assert _sigmoid(x).tobytes() == want.tobytes()
        assert _sigmoid(x).shape == x.shape


# signed zeros, the smallest subnormals, tiny and huge normals
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308, -1e308])
ACTIVATION_ORACLES = {
    "relu": (ref.masked_relu, ref.masked_relu_grad),
    "leaky_relu": (ref.masked_leaky_relu, ref.masked_leaky_relu_grad),
}
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _check_activation_bitwise(op, x):
    forward, grad = ACTIVATION_ORACLES[op]
    a = leaf(x)
    t = Tape([a])
    out = getattr(t, op)(a)
    assert out.data.shape == x.shape and out.data.tobytes() == forward(x).tobytes()
    g = np.roll(x, 1)  # an adjoint with the same edge values, in other places
    assert t._records[0].backward(g)[0].tobytes() == grad(x, g).tobytes()


@pytest.mark.parametrize("op", ACTIVATION_ORACLES)
def test_activation_matches_masked_oracle_bitwise(op):
    rng = np.random.default_rng(5)
    for x in [EDGE_VALUES, EDGE_VALUES.reshape(2, 4)] + [rng.normal(size=(50, 7)) * s for s in (1e-310, 1.0, 1e300)]:
        _check_activation_bitwise(op, x)


@settings(max_examples=150, deadline=None)
@given(x=arrays(np.float64, array_shapes(max_dims=2, max_side=9), elements=FINITE),
       op=st.sampled_from(sorted(ACTIVATION_ORACLES)))
def test_activation_matches_masked_oracle_on_any_finite_array(x, op):
    _check_activation_bitwise(op, x)


def _check_linear_bitwise(x, w, b):
    with np.errstate(over="ignore", invalid="ignore"):
        want = x @ w + b
        if not np.isfinite(want).all():
            with pytest.raises(NonFiniteError, match="linear"):
                Tape().linear(leaf(x), leaf(w), leaf(b))
            return
    assert Tape().linear(leaf(x), leaf(w), leaf(b)).data.tobytes() == want.tobytes()


def test_linear_matches_matmul_plus_bias_bitwise():
    rng = np.random.default_rng(6)
    edges = EDGE_VALUES.reshape(2, 4)
    _check_linear_bitwise(rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3))
    _check_linear_bitwise(edges, rng.normal(size=(4, 3)), EDGE_VALUES[:3])
    _check_linear_bitwise(rng.normal(size=(3, 2)), edges, EDGE_VALUES[4:])
    _check_linear_bitwise(edges, edges.T * 1e-300, EDGE_VALUES[2:4])
    _check_linear_bitwise(edges, edges.T, EDGE_VALUES[:2])  # overflows: raises, as x @ w + b is not finite


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_linear_matches_matmul_plus_bias_on_any_finite_arrays(data):
    n, k, m = (data.draw(st.integers(1, 6)) for _ in range(3))
    x, w, b = (data.draw(arrays(np.float64, shape, elements=FINITE)) for shape in ((n, k), (k, m), (m,)))
    _check_linear_bitwise(x, w, b)


def test_sum_gradient_is_all_ones():
    rng = np.random.default_rng(0)
    for shape in [(3,), (2, 4), (5, 1), (1,)]:
        x = leaf(rng.normal(size=shape))
        t = Tape([x])
        grads = t.backward(ref.sum(t, x))
        assert np.array_equal(grads[x], np.ones(shape))


def test_softmax_cross_entropy_gradient_is_probs_minus_onehot():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        z = rng.normal(size=(n, m)) * 3.0
        targets = rng.integers(0, m, size=n)
        logits = leaf(z)
        t = Tape([logits])
        loss = t.softmax_cross_entropy(logits, targets)
        grads = t.backward(loss)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        onehot = np.zeros((n, m))
        onehot[np.arange(n), targets] = 1.0
        assert np.max(np.abs(grads[logits] - (probs - onehot))) < 1e-12


def test_softmax_cross_entropy_uniform_value():
    # zero logits over M classes cost ln(M) per row, summed over rows
    t = Tape()
    logits = leaf(np.zeros((2, 4)))
    loss = t.softmax_cross_entropy(logits, [0, 3])
    assert abs(loss.item() - 2.0 * np.log(4.0)) < 1e-12


def test_bce_matches_naive_formula():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(4, 3)) * 2.0
    targets = rng.integers(0, 2, size=(4, 3)).astype(np.float64)
    logits = leaf(z)
    t = Tape([logits])
    loss = t.binary_cross_entropy_with_logits(logits, targets)
    sig = 1.0 / (1.0 + np.exp(-z))
    naive = -(targets * np.log(sig) + (1.0 - targets) * np.log(1.0 - sig)).mean()
    assert abs(loss.item() - naive) < 1e-12
    grads = t.backward(loss)
    assert np.max(np.abs(grads[logits] - (sig - targets) / z.size)) < 1e-12


def test_bce_is_finite_at_extreme_logits():
    logits = leaf([1000.0, -1000.0])
    t = Tape([logits])
    loss = t.binary_cross_entropy_with_logits(logits, np.array([0.0, 1.0]))
    assert np.isfinite(loss.item())
    # both elements are maximally wrong; value saturates at the clamp level
    assert abs(loss.item() - BCE_LOGIT_CLAMP) < 1e-6
    grads = t.backward(loss)
    assert np.all(np.isfinite(grads[logits]))
    # the clamp must not stall learning: wrong-side gradient stays at +-1/n
    assert np.max(np.abs(grads[logits] - np.array([0.5, -0.5]))) < 1e-12


# ------------------------------------------------------------- error paths


def test_cross_entropy_target_out_of_range():
    t = Tape()
    with pytest.raises(ValueError, match="out of range"):
        t.softmax_cross_entropy(leaf(np.zeros((2, 3))), [0, 3])


def test_non_finite_reports_op_name():
    t = Tape()
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="scale"):
            t.scale(leaf([1e308]), 10.0)
    # a NaN reaching relu stays NaN; the masked form returned 0.0 and hid it
    with pytest.raises(NonFiniteError, match="relu"):
        t.relu(leaf([np.nan, 1.0]))


def test_backward_requires_scalar_loss():
    x = leaf(np.ones((2, 2)))
    t = Tape([x])
    y = t.scale(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        t.backward(y)


# --------------------------------------------------------------- properties


def test_duplicated_consumer_doubles_gradient():
    rng = np.random.default_rng(3)
    x_data = rng.normal(size=(4,))
    x1 = leaf(x_data)
    t1 = Tape([x1])
    g_single = t1.backward(ref.sum(t1, x1))[x1]
    x2 = leaf(x_data)
    t2 = Tape([x2])
    g_double = t2.backward(ref.sum(t2, t2.add(x2, x2)))[x2]
    assert np.array_equal(g_double, 2.0 * g_single)


def test_reference_gather_with_repeated_indices_accumulates():
    # the margin oracle gathers class rows by pair, with repeats
    x = leaf(np.arange(6.0).reshape(3, 2))
    t = Tape([x])
    rows = ref.gather(t, x, np.array([0, 0, 2]))
    grads = t.backward(ref.sum(t, rows))
    assert np.array_equal(grads[x], [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_backward_bit_identical_across_reruns():
    rng = np.random.default_rng(9)
    w_data = rng.normal(size=(3, 3))
    x_data = rng.normal(size=(2, 3))

    def run():
        w = leaf(w_data.copy())
        x = Tensor(x_data.copy())
        t = Tape([w])
        h = t.sigmoid(ref.matmul(t, x, w))
        loss = ref.sum(t, ref.mul(t, h, h))
        return t.backward(loss)[w].tobytes()

    assert run() == run()


def test_frozen_network_input_gradient():
    # frozen weights, gradient requested for the input instead
    rng = np.random.default_rng(13)
    w = Tensor(rng.normal(size=(4, 2)))  # untracked
    x = leaf(rng.normal(size=(3, 4)), name="image")
    t = Tape([x])
    loss = ref.sum(t, t.sigmoid(ref.matmul(t, x, w)))
    grads = t.backward(loss)
    assert list(grads) == [x] and grads[x].shape == (3, 4)


def _dense_case(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=(3,)), rng.normal(size=(5, 3))


def _dense_grads(layer, x_data, w_data, b_data, weights, tracked=(True, True, True)):
    """Value and gradients of sum(layer(x, w, b) * weights) on a fresh tape;
    ``tracked`` says which of x, w, b the tape tracks."""
    x, w, b = (Tensor(d.copy()) for d in (x_data, w_data, b_data))
    t = Tape(v for v, r in zip((x, w, b), tracked) if r)
    out = layer(t, x, w, b)
    grads = t.backward(ref.sum(t, ref.mul(t, out, Tensor(weights))))
    return out.data, [grads.get(v) for v in (x, w, b)]


def _fused(t, x, w, b):
    return t.linear(x, w, b)


def _unfused(t, x, w, b):
    return ref.add(t, ref.matmul(t, x, w), b)


def test_linear_is_matmul_plus_add_bit_for_bit():
    for seed in range(5):
        case = _dense_case(seed)
        value, grads = _dense_grads(_fused, *case)
        ref_value, ref_grads = _dense_grads(_unfused, *case)
        assert value.tobytes() == ref_value.tobytes()
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape and g.tobytes() == ref.tobytes()


@pytest.mark.parametrize("layer", [_fused, _unfused], ids=["linear", "matmul"])
@pytest.mark.parametrize("untracked", [0, 1], ids=["constant-x", "frozen-w"])
def test_untracked_operand_gets_no_gradient(layer, untracked):
    case = _dense_case(7)
    _, full = _dense_grads(layer, *case)
    tracked = tuple(i != untracked for i in range(3))
    _, grads = _dense_grads(layer, *case, tracked=tracked)
    assert grads[untracked] is None
    for i in range(3):
        if i != untracked:
            assert grads[i].tobytes() == full[i].tobytes()


def test_untracked_operand_adjoint_is_not_computed():
    # the backward rule itself returns None for an input the tape does not track
    x = Tensor(np.ones((2, 3)))
    w, b = leaf(np.ones((3, 4))), leaf(np.zeros(4))
    t = Tape([w, b])
    t.linear(x, w, b)
    assert t._records[0].backward(np.ones((2, 4)))[0] is None


def test_linear_shape_mismatch():
    t = Tape()
    with pytest.raises(ValueError, match="linear"):
        t.linear(leaf(np.ones((2, 3))), leaf(np.ones((3, 4))), leaf(np.ones(3)))
    # a condition is one row, and its width is part of w's
    for c in (np.ones((2, 1)), np.ones(1), np.ones((1, 2))):
        with pytest.raises(ValueError, match="linear shape mismatch"):
            t.linear(leaf(np.ones((2, 2))), leaf(np.ones((3, 4))), leaf(np.ones(4)), cond=leaf(c))


@pytest.mark.parametrize("first", [True, False], ids=["cond-first", "cond-last"])
def test_linear_condition_row_matches_repeated_join(first):
    """linear(x, w, b, cond=c) against the layer over c joined to every row
    of x, built from tape ops: the value and every gradient agree within
    1e-12 of the largest magnitude."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, k, j, m = (int(v) for v in rng.integers(1, 7, size=4))
        data = [rng.normal(size=shape) for shape in ((n, k), (k + j, m), (m,), (1, j))]
        out_w = rng.normal(size=(n, m))

        x, w, b, c = (leaf(a.copy()) for a in data)
        t = Tape([x, w, b, c])
        got = t.linear(x, w, b, cond=c, cond_first=first)
        got_grads = t.backward(ref.sum(t, ref.mul(t, got, Tensor(out_w))))

        x2, w2, b2, c2 = (leaf(a.copy()) for a in data)
        t2 = Tape([x2, w2, b2, c2])
        rows = ref.concat(t2, [c2] * n, axis=0)
        want = t2.linear(ref.concat(t2, [rows, x2] if first else [x2, rows], axis=1), w2, b2)
        want_grads = t2.backward(ref.sum(t2, ref.mul(t2, want, Tensor(out_w))))

        assert np.max(np.abs(got.data - want.data)) <= 1e-12 * np.max(np.abs(want.data))
        for p, p2 in zip((x, w, b, c), (x2, w2, b2, c2)):
            assert got_grads[p].shape == p.shape
            assert np.max(np.abs(got_grads[p] - want_grads[p2])) <= 1e-12 * np.max(np.abs(want_grads[p2]))
        # untracked operands get no adjoint
        t3 = Tape([w])
        t3.linear(x, w, b, cond=c, cond_first=first)
        gx, gw, gb, gc = t3._records[0].backward(out_w)
        assert gx is None and gb is None and gc is None
        assert gw.tobytes() == t._records[0].backward(out_w)[1].tobytes()


def test_add_rejects_operands_of_different_shapes():
    t = Tape()
    for a, b in [((2, 3), (3,)), ((2, 3), (2, 1)), ((), (1,))]:
        with pytest.raises(ValueError, match="add shape mismatch"):
            t.add(leaf(np.ones(a)), leaf(np.ones(b)))


def test_tape_ops_are_exactly_the_ops_src_calls():
    # a primitive with no caller in src/ belongs in the test oracles
    public = {name for name, _ in inspect.getmembers(Tape, inspect.isfunction) if not name.startswith("_")}
    called = {
        node.func.attr
        for path in (Path(__file__).resolve().parent.parent / "src").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id.startswith("tape")
    }
    assert public - {"backward", "tracks"} == called - {"backward", "_emit"}


def test_backward_of_a_leaf_loss():
    x = leaf([1.5])
    t = Tape([x])
    t.scale(x, 2.0)  # a record that does not lead to the loss
    grads = t.backward(x)
    assert list(grads) == [x] and np.array_equal(grads[x], [1.0])
    assert t.backward(Tensor([1.0])) == {}  # an untracked loss has no gradients


def test_bare_tape_records_nothing_and_computes_the_same_values():
    rng = np.random.default_rng(14)
    x, w, b = leaf(rng.normal(size=(3, 4))), leaf(rng.normal(size=(4, 2))), leaf(rng.normal(size=2))
    bare, tracking = Tape(), Tape([w])
    outs = [t.leaky_relu(t.sigmoid(t.linear(x, w, b))) for t in (bare, tracking)]
    assert (len(bare), len(tracking)) == (0, 3)
    assert outs[0].data.tobytes() == outs[1].data.tobytes()
    assert not bare.tracks(outs[0]) and tracking.tracks(outs[1])


def test_tensor_from_another_tape_is_a_leaf():
    x = leaf([1.0, -2.0])
    y = Tape([x]).scale(x, 3.0)  # tracked, but produced on another tape
    t = Tape()
    assert t.backward(ref.sum(t, ref.mul(t, y, y))) == {} and len(t) == 0  # a constant here
    t = Tape([y])
    grads = t.backward(ref.sum(t, ref.mul(t, y, y)))
    assert set(grads) == {y}
    assert np.array_equal(grads[y], 2.0 * y.data)


# -------------------------------------------------- finite-difference sweep


def _fd_cases(rng):
    """One scalar-valued builder per tape op and per reference op, with sane
    input ranges."""

    def mk(shape, lo=-2.0, hi=2.0):
        return leaf(rng.uniform(lo, hi, size=shape))

    def kinkless(shape):
        # keep relu/leaky inputs away from the kink at 0
        return leaf(rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.5, 2.0, size=shape))

    n, m, k = (int(rng.integers(2, 9)) for _ in range(3))
    # weight constants are fixed up front: grad_check requires f deterministic
    w1 = Tensor(rng.normal(size=(n, m)))
    net_t = rng.integers(0, 2, size=(n, k)).astype(np.float64)
    w_mm = Tensor(rng.normal(size=(n, k)))
    w_cat0 = Tensor(rng.normal(size=(2 * n, m)))
    w_cat1 = Tensor(rng.normal(size=(n, m + k)))
    w_cond = Tensor(rng.normal(size=(1, 2 * m)))
    w_resh = Tensor(rng.normal(size=(m, n)))
    targets = rng.integers(0, m, size=n)
    bce_t = rng.integers(0, 2, size=(n, m)).astype(np.float64)

    def weighted(t, out, w):
        return ref.sum(t, ref.mul(t, out, w))

    cases = {
        "linear": (lambda t, ps: weighted(t, t.linear(ps[0], ps[1], ps[2]), w_mm),
                   [mk((n, m)), mk((m, k)), mk((k,))]),
        "add": (lambda t, ps: weighted(t, t.add(ps[0], ps[1]), w1), [mk((n, m)), mk((n, m))]),
        "scale": (lambda t, ps: weighted(t, t.scale(ps[0], -1.7), w1), [mk((n, m))]),
        "condition": (lambda t, ps: weighted(t, condition(t, ps, 1), w_cond), [mk((n, m)), mk((n, m))]),
        "relu": (lambda t, ps: weighted(t, t.relu(ps[0]), w1), [kinkless((n, m))]),
        "leaky_relu": (lambda t, ps: weighted(t, t.leaky_relu(ps[0]), w1), [kinkless((n, m))]),
        "sigmoid": (lambda t, ps: weighted(t, t.sigmoid(ps[0]), w1), [mk((n, m))]),
        "bce_with_logits": (lambda t, ps: t.binary_cross_entropy_with_logits(ps[0], bce_t), [mk((n, m), -4.0, 4.0)]),
        "softmax_cross_entropy": (lambda t, ps: t.softmax_cross_entropy(ps[0], targets), [mk((n, m), -3.0, 3.0)]),
        "ref.matmul": (lambda t, ps: weighted(t, ref.matmul(t, ps[0], ps[1]), w_mm),
                       [mk((n, m)), mk((m, k))]),
        "ref.concat0": (lambda t, ps: weighted(t, ref.concat(t, [ps[0], ps[1]], axis=0), w_cat0),
                        [mk((n, m)), mk((n, m))]),
        "ref.concat1": (lambda t, ps: weighted(t, ref.concat(t, [ps[0], ps[1]], axis=1), w_cat1),
                        [mk((n, m)), mk((n, k))]),
        "ref.add": (lambda t, ps: weighted(t, ref.add(t, ps[0], ps[1]), w1), [mk((n, m)), mk((m,))]),
        "ref.sub": (lambda t, ps: weighted(t, ref.sub(t, ps[0], ps[1]), w1), [mk((n, m)), mk((n, 1))]),
        "ref.mul": (lambda t, ps: weighted(t, ref.mul(t, ps[0], ps[1]), w1), [mk((n, m)), mk((m,))]),
        "ref.div": (lambda t, ps: weighted(t, ref.div(t, ps[0], ps[1]), w1), [mk((n, m)), mk((n, m), 0.5, 2.0)]),
        "ref.add_const": (lambda t, ps: weighted(t, ref.add_const(t, ps[0], 0.3), w1), [mk((n, m))]),
        "ref.reshape": (lambda t, ps: weighted(t, ref.reshape(t, ps[0], (m, n)), w_resh), [mk((n, m))]),
        "ref.sum": (lambda t, ps: ref.sum(t, ref.mul(t, ps[0], ps[0])), [mk((n, m))]),
        "ref.sqrt": (lambda t, ps: weighted(t, ref.sqrt(t, ps[0]), w1), [mk((n, m), 0.5, 3.0)]),
        "two_layer_net": (
            lambda t, ps: t.binary_cross_entropy_with_logits(
                t.sigmoid(t.linear(t.leaky_relu(t.linear(ps[0], ps[1], ps[2])), ps[3], ps[4])), net_t
            ),
            [mk((n, m)), mk((m, m)), leaf(rng.normal(size=(m,))), mk((m, k)), leaf(rng.normal(size=(k,)))],
        ),
        # drawn last, so the cases above keep their draws
        "linear_cond_first": (lambda t, ps: weighted(t, t.linear(ps[0], ps[1], ps[2], cond=ps[3], cond_first=True), w_mm),
                              [mk((n, m)), mk((2 + m, k)), mk((k,)), mk((1, 2))]),
        "linear_cond_last": (lambda t, ps: weighted(t, t.linear(ps[0], ps[1], ps[2], cond=ps[3]), w_mm),
                             [mk((n, m)), mk((m + 3, k)), mk((k,)), mk((1, 3))]),
    }
    return cases


def test_every_primitive_matches_finite_differences():
    rng = np.random.default_rng(2024)
    failures = []
    for name, (fn, params) in _fd_cases(rng).items():
        report = grad_check(fn, params, step=1e-5, tol=1e-4)
        if not report.passed:
            failures.append(f"{name}: {report}")
    assert not failures, "\n".join(failures)


def test_tapes_are_freed_without_the_cycle_collector():
    # a backward rule that held its tape would make a cycle, so every step's
    # tape and the arrays it saved would wait for the cycle collector
    gc.disable()
    try:
        for name, (fn, params) in _fd_cases(np.random.default_rng(1)).items():
            t = Tape(params)
            t.backward(fn(t, params))
            ref = weakref.ref(t)
            del t
            assert ref() is None, name
    finally:
        gc.enable()


def test_grad_check_trivial_dot():
    p = leaf([1.0, -2.0])
    report = grad_check(lambda t, ps: ref.sum(t, ref.mul(t, ps[0], ps[0])), [p], tol=1e-6)
    assert report.passed
    t = Tape([p])
    grads = t.backward(ref.sum(t, ref.mul(t, p, p)))
    assert np.allclose(grads[p], [2.0, -4.0], atol=1e-12)


def test_grad_check_catches_corrupted_backward(monkeypatch):
    # negative control: break sigmoid's backward rule, keep its forward
    def bad_sigmoid(self, a):
        def back(g):
            return (g,)  # wrong: claims derivative 1 everywhere

        return self._emit("sigmoid", (a,), _sigmoid(a.data), back)

    monkeypatch.setattr(Tape, "sigmoid", bad_sigmoid)
    p = leaf([0.7, -1.2, 0.3])
    report = grad_check(lambda t, ps: ref.sum(t, t.sigmoid(ps[0])), [p], tol=1e-4)
    assert not report.passed
    assert report.max_rel_error > 0.1


# --------------------------------------------------------------------- adam


def test_adam_zero_gradient_keeps_params():
    p = leaf([1.0, 2.0])
    Adam([p], lr=0.1).step({p: np.zeros(2)})
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_first_step_moves_by_lr():
    p = leaf([0.0])
    Adam([p], lr=0.1).step({p: np.ones(1)})
    assert abs(p.data[0] + 0.1) < 1e-8


def test_adam_converges_on_quadratic():
    p = leaf([0.0])
    opt = Adam([p], lr=0.3)
    for _ in range(100):
        opt.step({p: 2.0 * (p.data - 3.0)})
    assert abs(p.data[0] - 3.0) < 1e-2


def test_adam_matches_out_of_place_formula_bit_for_bit():
    def moments(m, v, g, beta1, beta2):
        return beta1 * m + (1.0 - beta1) * g, beta2 * v + (1.0 - beta2) * (g * g)

    def folded_step(p, m, v, g, t, lr, beta1, beta2, eps=1e-8):
        m, v = moments(m, v, g, beta1, beta2)
        root = math.sqrt(1.0 - beta2**t)
        return p - (lr * root / (1.0 - beta1**t)) * m / (np.sqrt(v) + eps * root), m, v

    def textbook_step(p, m, v, g, t, lr, beta1, beta2, eps=1e-8):
        m, v = moments(m, v, g, beta1, beta2)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v

    rng = np.random.default_rng(17)
    shapes = [(4, 3), (3,)]
    params = [leaf(rng.normal(size=s)) for s in shapes]
    opt = Adam(params, lr=0.01)
    folded = [(p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for p in params]
    textbook = list(folded)
    for step in range(1, 201):
        grads = [rng.normal(size=s) for s in shapes]
        opt.step(dict(zip(params, grads)))
        folded = [folded_step(*r, g, step, 0.01, 0.5, 0.999) for r, g in zip(folded, grads)]
        textbook = [textbook_step(*r, g, step, 0.01, 0.5, 0.999) for r, g in zip(textbook, grads)]
        assert opt.t == step
        for p, m, v, (rp, rm, rv), (tp, _, _) in zip(params, opt.m, opt.v, folded, textbook):
            assert p.data.tobytes() == rp.tobytes()
            assert m.tobytes() == rm.tobytes() and v.tobytes() == rv.tobytes()
            # eps_hat = eps * sqrt(1 - beta2^t) keeps the textbook rule: the two
            # trajectories part only by rounding
            assert np.max(np.abs(p.data - tp)) <= 1e-12 * np.max(np.abs(tp))


def test_adam_rejects_bad_shapes_and_lr():
    p = leaf([0.0])
    with pytest.raises(ValueError, match="shape"):
        Adam([p], lr=0.1).step({p: np.ones(2)})
    with pytest.raises(ValueError, match="lr"):
        Adam([p], lr=0.0)


# -------------------------------------------------------------- checkpoints


def with_crc(body: bytes) -> bytes:
    """A checkpoint body followed by its valid CRC32 trailer."""
    return body + struct.pack("<I", zlib.crc32(body))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    named = {
        "w1": rng.normal(size=(3, 4)),
        "bias": rng.normal(size=(4,)),
        "scalar": np.asarray(2.5),
        "deep": rng.normal(size=(2, 3, 2)),
    }
    path = tmp_path / "params.ckpt"
    save_checkpoint(path, named)
    meta, loaded = load_checkpoint(path)
    assert meta == {}
    assert list(loaded) == list(named)
    for name, arr in named.items():
        assert loaded[name].shape == np.asarray(arr).shape
        assert np.array_equal(loaded[name], arr)


finite = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**53), 2**53) | finite | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(
    named=st.dictionaries(
        st.text(min_size=1, max_size=12),
        st.lists(st.integers(0, 3), max_size=3).flatmap(
            lambda dims: st.lists(finite, min_size=int(np.prod(dims)), max_size=int(np.prod(dims))).map(
                lambda values: np.asarray(values, dtype=np.float64).reshape(dims)
            )
        ),
        max_size=4,
    ),
    meta=st.dictionaries(st.text(), json_values, max_size=4),
)
def test_checkpoint_round_trip_property(tmp_path_factory, named, meta):
    path = tmp_path_factory.mktemp("ckpt") / "p.hgck"
    save_checkpoint(path, named, meta)
    got_meta, loaded = load_checkpoint(path)
    assert got_meta == json.loads(json.dumps(meta))
    assert list(loaded) == list(named)
    for name, arr in named.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()
    blob = path.read_bytes()
    save_checkpoint(path, loaded, got_meta)
    assert path.read_bytes() == blob


def test_checkpoint_bytes_are_reproducible(tmp_path):
    rng = np.random.default_rng(22)
    named = {"a": rng.normal(size=(5,)), "b": rng.normal(size=(2, 2))}
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(p1, named, {"k": [1, 2]})
    save_checkpoint(p2, named, {"k": [1, 2]})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_accepts_tensors(tmp_path):
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, {"x": leaf([[1.0, 2.0]])})
    assert np.array_equal(load_checkpoint(p)[1]["x"], [[1.0, 2.0]])


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(p)


def test_checkpoint_rejects_truncation(tmp_path):
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, {"x": np.ones((4, 4))})
    blob = p.read_bytes()
    p.write_bytes(with_crc(blob[:-4][:-7]))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(p)


def test_checkpoint_rejects_wrong_version(tmp_path):
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, {"x": np.ones(2)})
    blob = bytearray(p.read_bytes())
    blob[4] = 9  # bump the little-endian version field
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(p)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, {"x": np.ones(2)})
    p.write_bytes(with_crc(p.read_bytes()[:-4] + b"junk"))
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(p)


@pytest.mark.parametrize(
    "corrupt",
    [lambda b: b[:-7], lambda b: b[:20], lambda b: b + b"junk", lambda b: b[:30] + bytes([b[30] ^ 4]) + b[31:]],
    ids=["cut-end", "cut-header", "append", "flip"],
)
def test_checkpoint_raw_corruption_fails_the_checksum(tmp_path, corrupt):
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, {"x": np.ones((4, 4))}, {"note": "x"})
    p.write_bytes(corrupt(p.read_bytes()))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(p)


@pytest.mark.parametrize("meta", [b"\x00not json{", b"[1, 2]", b"\xff\xfe"], ids=["not-json", "not-object", "not-utf8"])
def test_checkpoint_rejects_malformed_metadata(tmp_path, meta):
    p = tmp_path / "t.ckpt"
    p.write_bytes(with_crc(b"HGCK" + struct.pack("<II", 2, len(meta)) + meta + struct.pack("<I", 0)))
    with pytest.raises(CheckpointError, match="metadata"):
        load_checkpoint(p)


def test_checkpoint_rejects_version_one(tmp_path):
    p = tmp_path / "v1.ckpt"
    # a version-1 file: no metadata, no checksum
    p.write_bytes(b"HGCK" + struct.pack("<III", 1, 1, 1) + b"x" + struct.pack("<II", 1, 2) + np.ones(2).tobytes())
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(p)


def test_grad_check_report_renders():
    r = GradCheckReport(False, 0.5, 1, 3, 1.0, 0.5)
    assert "FAIL" in str(r) and "0.5" in str(r).replace("5.000e-01", "0.5")
