import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops as ref
from hiergan.autodiff import NonFiniteError, Tape, Tensor, grad_check
from hiergan.embed import (
    CheConfig,
    ClassEmbeddingTable,
    EmbeddingError,
    condition,
    init_table,
    load_table,
    margin_loss_graph,
    pair_scores,
    ranking_accuracy,
    sample_negatives,
    save_table,
    sibling_similarity_gap,
    similarity_csv,
    similarity_matrix,
    train_che,
)
from hiergan.files import save_checkpoint
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.models import ModelConfig, build_models, generate_set


@pytest.fixture(scope="module")
def tree():
    return parse_hierarchy(FIXTURE_TREE)


def make_table(vectors, rel) -> ClassEmbeddingTable:
    """A table over a star tree with one class per complex vector in
    ``vectors`` (each a sequence of Python complex numbers) and the relation
    ``rel``."""
    h = parse_hierarchy("root\n" + "".join(f"root/c{k}\n" for k in range(1, len(vectors))))
    cls = np.asarray(vectors, dtype=complex).reshape(len(vectors), -1)
    r = np.asarray(rel, dtype=complex).reshape(-1)
    return ClassEmbeddingTable(cls.real.copy(), cls.imag.copy(), r.real.copy(), r.imag.copy(), h)


def rand_vec(rng, d=4, scale=1.0):
    return (rng.normal(size=d) + 1j * rng.normal(size=d)) * scale


def complex_score(p, rel, c) -> float:
    """The pair score in Python complex arithmetic: rotate both vectors by
    the relation componentwise, then the cosine of the rotated vectors as
    real 2D-length vectors, Re(sum a * conj(b)) / (|a| |b|)."""
    a = [complex(x) * complex(r) for x, r in zip(p, rel)]
    b = [complex(x) * complex(r) for x, r in zip(c, rel)]
    dot = sum((x * y.conjugate()).real for x, y in zip(a, b))
    return dot / (math.sqrt(sum(abs(x) ** 2 for x in a)) * math.sqrt(sum(abs(y) ** 2 for y in b)))


# ------------------------------------------------------------ transform


def test_transform_identity_relation():
    # rotating by 1 changes nothing: the score is the plain cosine of the
    # (re || im) rows, which similarity_matrix also computes
    rng = np.random.default_rng(0)
    table = make_table([rand_vec(rng) for _ in range(5)], np.ones(4))
    pairs = np.asarray([(i, j) for i in range(5) for j in range(5)])
    sim = similarity_matrix(table)
    assert np.allclose(pair_scores(table, pairs), sim[pairs[:, 0], pairs[:, 1]], rtol=0, atol=1e-12)


def test_transform_i_times_i():
    # a unit-modulus relation (here i in every component) is a rotation, so
    # every score equals its identity-relation score
    rng = np.random.default_rng(4)
    vectors = [rand_vec(rng) for _ in range(4)]
    pairs = np.asarray([(i, j) for i in range(4) for j in range(4)])
    turned = pair_scores(make_table(vectors, [1j] * 4), pairs)
    assert np.allclose(turned, pair_scores(make_table(vectors, np.ones(4)), pairs), rtol=0, atol=1e-12)


def test_transform_matches_complex_arithmetic():
    # oracle: python complex numbers, componentwise
    rng = np.random.default_rng(42)
    for _ in range(50):
        vectors, rel = [rand_vec(rng) for _ in range(3)], rand_vec(rng)
        pairs = np.asarray([(0, 1), (1, 2), (2, 0), (1, 1)])
        got = pair_scores(make_table(vectors, rel), pairs)
        for score, (p, c) in zip(got, pairs):
            assert abs(score - complex_score(vectors[p], rel, vectors[c])) < 1e-12


def test_transform_dimension_mismatch():
    h = parse_hierarchy("root\nroot/a\n")
    with pytest.raises(EmbeddingError, match="inconsistent table shapes"):
        ClassEmbeddingTable(np.ones((2, 1)), np.ones((2, 1)), np.ones(2), np.zeros(2), h)


def test_complex_vec_validation():
    # every class vector needs equal-length re and im parts
    h = parse_hierarchy("root\nroot/a\n")
    with pytest.raises(EmbeddingError, match="inconsistent table shapes"):
        ClassEmbeddingTable(np.ones((2, 2)), np.ones((2, 1)), np.ones(2), np.zeros(2), h)
    with pytest.raises(EmbeddingError, match="must be"):
        ClassEmbeddingTable(np.ones(2), np.ones(2), np.ones(1), np.zeros(1), h)


# ------------------------------------------------------------ pair_scores


def test_pair_score_identical_vectors():
    rng = np.random.default_rng(1)
    for _ in range(10):
        table = make_table([rand_vec(rng), rand_vec(rng)], rand_vec(rng))
        assert np.all(np.abs(pair_scores(table, [(0, 0), (1, 1)]) - 1.0) < 1e-12)


def test_pair_score_orthogonal_is_zero():
    # identity rotation per component
    table = make_table([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    assert abs(pair_scores(table, [(0, 1)])[0]) < 1e-12


def test_pair_score_symmetric_and_scale_invariant():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        p, rel, c = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        k = float(rng.uniform(0.1, 10.0))
        s, flipped, scaled = pair_scores(make_table([p, c, p * k, c * k], rel), [(0, 1), (1, 0), (2, 3)])
        assert abs(s - flipped) < 1e-12
        assert abs(s - scaled) < 1e-12
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


def test_pair_score_zero_norm_rejected():
    zero_class = make_table([[0.0], [1.0]], [1.0])
    with pytest.raises(EmbeddingError, match="degenerate"):
        pair_scores(zero_class, [(0, 1)])
    # the relation is not all-zero, but it zeroes the only live component
    zero_rotation = make_table([[0.0, 1.0], [0.0, 1j]], [1.0, 0.0])
    with pytest.raises(EmbeddingError, match="degenerate"):
        pair_scores(zero_rotation, [(1, 0)])


def test_pair_scores_reject_unknown_ids():
    table = make_table([[1.0], [1j]], [1.0])
    for pair in ((0, 2), (-1, 0)):
        with pytest.raises(EmbeddingError, match="unknown class id"):
            pair_scores(table, [pair])
    assert pair_scores(table, np.zeros((0, 2), dtype=np.int64)).shape == (0,)


# ------------------------------------------------------------- negatives


def test_negatives_on_three_node_chain():
    # (a, x)'s only valid corruption is (root, x): a-root and a-x are edges,
    # and self-pairs are excluded, so the child side has no candidates
    h = parse_hierarchy("root\nroot/a\nroot/a/x\n")
    rng = np.random.default_rng(0)
    a, x = h.id_of("a"), h.id_of("x")
    negs = sample_negatives(h, [(a, x)], 50, rng)
    assert negs.shape == (1, 50, 2) and negs.dtype == np.int64
    assert (negs == (h.id_of("root"), x)).all()


def test_negatives_on_fixture_tree(tree):
    rng = np.random.default_rng(3)
    true_pairs = set(tree.parent_child_pairs())
    negs = sample_negatives(tree, tree.parent_child_pairs(), 10, rng)
    assert negs.shape == (len(true_pairs), 10, 2)
    for neg in map(tuple, negs.reshape(-1, 2).tolist()):
        assert neg not in true_pairs
        assert (neg[1], neg[0]) not in true_pairs  # either direction
        assert neg[0] != neg[1]


def test_negatives_deterministic_given_seed(tree):
    pairs = tree.parent_child_pairs()
    a = sample_negatives(tree, pairs, 20, np.random.default_rng(7))
    b = sample_negatives(tree, pairs, 20, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_negative_side_choice_uniform(tree):
    # chi-square on which side got corrupted, 10k draws, 1 dof
    rng = np.random.default_rng(11)
    p, c = tree.id_of("canine"), tree.id_of("fox")
    negs = sample_negatives(tree, [(p, c)], 10_000, rng)[0]
    child_kept = int(np.sum((negs[:, 1] == c) & (negs[:, 0] != p)))
    parent_kept = len(negs) - child_kept
    chi2 = (child_kept - 5000.0) ** 2 / 5000.0 + (parent_kept - 5000.0) ** 2 / 5000.0
    p_value = math.erfc(math.sqrt(chi2 / 2.0))
    assert p_value > 0.01, f"side counts {child_kept}/{parent_kept}, p={p_value:.4f}"


def test_negatives_star_tree_falls_back_to_parent_side():
    h = parse_hierarchy("root\nroot/a\nroot/b\nroot/c\n")
    rng = np.random.default_rng(0)
    root = h.id_of("root")
    negs = sample_negatives(h, [(root, h.id_of("a"))], 100, rng)[0]
    true_pairs = set(h.parent_child_pairs())
    for neg in map(tuple, negs.tolist()):
        assert neg not in true_pairs and neg[0] != neg[1]
        assert neg[1] == h.id_of("a")  # every corruption replaced the parent


def per_call_sample_negatives(h, pair, n, rng):
    """The sampler as it was before the candidate lists moved into the
    hierarchy: one call per true pair, both lists rebuilt from
    is_parent_child on every call."""
    p, c = pair

    def unrelated(a, b):
        return a != b and not h.is_parent_child(a, b) and not h.is_parent_child(b, a)

    parent_side = [q for q in range(len(h)) if unrelated(q, c)]
    child_side = [q for q in range(len(h)) if unrelated(p, q)]
    out = []
    for _ in range(n):
        side = int(rng.integers(2))
        cands = parent_side if side == 0 else child_side
        if not cands:
            side = 1 - side
            cands = parent_side if side == 0 else child_side
        pick = cands[int(rng.integers(len(cands)))]
        out.append((pick, c) if side == 0 else (p, pick))
    return out


@pytest.mark.parametrize(
    "text, bulk",
    [
        (FIXTURE_TREE, True),  # every side has 4 or more candidates
        ("root\nroot/a\nroot/a/x\n", False),  # sides of 0 and 1 candidates
        ("root\nroot/a\nroot/b\nroot/c\n", False),  # a side of 0: every draw falls back to the other side
        ("root\nroot/a\nroot/a/x\nroot/b\nroot/b/y\n", True),  # sides of 2 and 3 candidates
        ("root\nroot/a\nroot/a/b\nroot/a/b/x\nroot/a/b/y\n", False),  # one side of 1: integers(1) takes no word
    ],
    ids=["fixture", "chain", "star", "two-families", "deep"],
)
def test_negatives_match_per_call_oracle(text, bulk, monkeypatch):
    """The one-call draw runs only when every side has two or more
    candidates; elsewhere the per-draw loop runs. Both give the oracle's
    negatives and leave the stream where the oracle leaves it."""
    import hiergan.embed as embed

    h = parse_hierarchy(text)
    seen, rejects = [], embed._lemire_rejects
    monkeypatch.setattr(embed, "_lemire_rejects", lambda words, k: seen.append(k) or rejects(words, k))
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [per_call_sample_negatives(h, pair, 25, ref_rng) for pair in h.parent_child_pairs()]
        assert sample_negatives(h, h.parent_child_pairs(), 25, rng).tolist() == [
            [list(neg) for neg in row] for row in want
        ]
        # the same draws were consumed, so the streams stay in step
        assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)
    assert len(seen) == (3 if bulk else 0)


def test_negatives_rewind_when_a_word_would_be_rejected(tree, monkeypatch):
    """Were any word in Lemire's rejection zone, the bulk words are given
    back and the draws are taken one by one: same negatives, same stream."""
    import hiergan.embed as embed

    monkeypatch.setattr(embed, "_lemire_rejects", lambda words, k: np.ones(np.shape(words), dtype=bool))
    pairs = tree.parent_child_pairs()
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [per_call_sample_negatives(tree, pair, 10, ref_rng) for pair in pairs]
        assert sample_negatives(tree, pairs, 10, rng).tolist() == [[list(neg) for neg in row] for row in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_lemire_rejection_zone_on_crafted_words():
    """numpy's integers(k) maps a 32-bit word u to (u * k) >> 32 unless the
    low half of u * k is below 2**32 mod k, where it draws again."""
    from hiergan.embed import _lemire_rejects

    words = np.array([0, 1, 2, 3, 2**32 - 1], dtype=np.uint64)
    assert _lemire_rejects(words, 3).tolist() == [True, False, False, False, False]  # 2**32 mod 3 == 1
    assert _lemire_rejects(words, 7).tolist() == [True, False, False, False, False]  # 2**32 mod 7 == 4, 1*7 >= 4
    assert not _lemire_rejects(words, 2).any() and not _lemire_rejects(words, 8).any()  # powers of 2 never reject
    # per word and per count, as the sampler passes them
    assert _lemire_rejects(np.array([0, 0], dtype=np.uint64), np.array([3, 4], dtype=np.uint64)).tolist() == [True, False]


def test_negatives_error_cases(tree):
    rng = np.random.default_rng(0)
    good = tree.parent_child_pairs()[0]
    with pytest.raises(EmbeddingError, match="not a parent-child"):
        sample_negatives(tree, [good, (tree.id_of("canine"), tree.id_of("cat"))], 1, rng)
    with pytest.raises(EmbeddingError, match="n >= 1"):
        sample_negatives(tree, [good], 0, rng)
    two = parse_hierarchy("root\nroot/a\n")
    with pytest.raises(EmbeddingError, match="admits no negative"):
        sample_negatives(two, [(0, 1)], 1, rng)
    # a rejected call draws nothing
    assert rng.integers(1 << 30) == np.random.default_rng(0).integers(1 << 30)


# ------------------------------------------------------------ margin loss


def tensors(table) -> list[Tensor]:
    """The table's four arrays as tape tensors, as a trainer holds them."""
    return [Tensor(a) for a in table.arrays]


def margin_value(table, pos, negs, margin) -> float:
    """margin_loss_graph's value on a table's arrays."""
    return margin_loss_graph(Tape(), tensors(table), pos, negs, margin).item()


# classes at score 1 (with themselves), 0 and -1 with class 0, all exact
UNIT_TABLE = make_table([[1.0], [1j], [-1.0]], [1.0])


def test_margin_loss_forced_values():
    # pos (0, 0) scores 1 and neg (0, 1) scores 0: satisfied by 1 > 0.5
    assert margin_value(UNIT_TABLE, [(0, 0)], [[(0, 1)]], 0.5) == 0.0
    # pos (0, 1) scores 0 and neg (0, 0) scores 1: 0.5 + 1 - 0
    assert abs(margin_value(UNIT_TABLE, [(0, 1)], [[(0, 0)]], 0.5) - 1.5) < 1e-15


def test_margin_loss_matches_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        vectors, rel = [rand_vec(rng) for _ in range(5)], rand_vec(rng)
        pos = rng.integers(0, 5, size=(6, 2))
        negs = rng.integers(0, 5, size=(6, 4, 2))
        total = 0.0
        for i in range(6):
            s_pos = complex_score(vectors[pos[i, 0]], rel, vectors[pos[i, 1]])
            for j in range(4):
                s_neg = complex_score(vectors[negs[i, j, 0]], rel, vectors[negs[i, j, 1]])
                total += max(0.0, 0.5 + s_neg - s_pos)
        got = margin_value(make_table(vectors, rel), pos, negs, 0.5)
        assert abs(got - total) < 1e-12
        assert got >= 0.0


def test_margin_loss_zero_iff_satisfied():
    pos = [(0, 0), (2, 2)]
    assert margin_value(UNIT_TABLE, pos, [[(0, 1), (0, 2)], [(1, 2), (0, 1)]], 0.5) == 0.0
    assert margin_value(UNIT_TABLE, pos, [[(0, 1), (1, 1)], [(1, 2), (0, 1)]], 0.5) > 0.0


def test_margin_loss_shape_validation():
    ts = tensors(init_table(parse_hierarchy("root\nroot/a\nroot/b\n"), 2, np.random.default_rng(0)))
    for negs in ([(0, 1), (0, 2)], [[(0, 1)], [(0, 2)]], [[(0, 1, 2)]]):
        with pytest.raises(EmbeddingError, match="expected pos"):
            margin_loss_graph(Tape(), ts, [(0, 0)], negs, 0.5)


# ------------------------------------------------------- graph equivalence


def reference_pair_scores_graph(tape: Tape, ts: list[Tensor], pairs: np.ndarray) -> Tensor:
    """Pair scores as a graph of primitive tape ops over the four table
    tensors; ``pairs`` is int (B, 2) -> (B,). The margin loss's single record
    must match it within ``MARGIN_TOL``."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    class_re, class_im, rel_re, rel_im = ts
    dim = rel_re.shape[0]
    ones = Tensor(np.ones((dim, 1)))
    rp = ref.gather(tape, class_re, pairs[:, 0])
    ip = ref.gather(tape, class_im, pairs[:, 0])
    rc = ref.gather(tape, class_re, pairs[:, 1])
    ic = ref.gather(tape, class_im, pairs[:, 1])

    def rotate(re, im):
        rot_re = ref.sub(tape, ref.mul(tape, re, rel_re), ref.mul(tape, im, rel_im))
        rot_im = ref.add(tape, ref.mul(tape, re, rel_im), ref.mul(tape, im, rel_re))
        return rot_re, rot_im

    def row_dot(a_re, a_im, b_re, b_im):
        return ref.add(
            tape,
            ref.matmul(tape, ref.mul(tape, a_re, b_re), ones),
            ref.matmul(tape, ref.mul(tape, a_im, b_im), ones),
        )

    tp_re, tp_im = rotate(rp, ip)
    tc_re, tc_im = rotate(rc, ic)
    dots = row_dot(tp_re, tp_im, tc_re, tc_im)  # (B, 1)
    norm_p = ref.sqrt(tape, row_dot(tp_re, tp_im, tp_re, tp_im))
    norm_c = ref.sqrt(tape, row_dot(tc_re, tc_im, tc_re, tc_im))
    scores = ref.div(tape, dots, ref.mul(tape, norm_p, norm_c))
    return ref.reshape(tape, scores, (pairs.shape[0],))


def reference_margin_loss_graph(tape, ts, pos_pairs, neg_pairs, margin) -> Tensor:
    """The hinge ranking loss as 78 primitive records."""
    pos_pairs = np.asarray(pos_pairs, dtype=np.int64)
    neg_pairs = np.asarray(neg_pairs, dtype=np.int64)
    num_pos, num_neg = neg_pairs.shape[0], neg_pairs.shape[1]
    pos = ref.reshape(tape, reference_pair_scores_graph(tape, ts, pos_pairs), (num_pos, 1))
    neg = ref.reshape(tape, reference_pair_scores_graph(tape, ts, neg_pairs.reshape(-1, 2)), (num_pos, num_neg))
    hinge = tape.relu(ref.add_const(tape, ref.sub(tape, neg, pos), margin))
    return ref.sum(tape, hinge)


def scaled_loss_and_grads(loss_graph, arrays, pos, negs, margin, lam):
    """(loss, gradient per table tensor, tape length) of lam * loss, as the
    joint step's embedding update builds it."""
    ts = [Tensor(a.copy()) for a in arrays]
    tape = Tape(ts)
    loss = loss_graph(tape, ts, pos, negs, margin)
    grads = tape.backward(tape.scale(loss, lam))
    return loss.item(), [grads[p] for p in ts], len(tape)


# The record's closed-form adjoint and the oracle's op-by-op reverse sweep
# round differently, so they agree to this fraction of the larger of 1 and
# the oracle's largest magnitude (3,000 random draws differed by 4e-14 at most).
MARGIN_TOL = 1e-10


def assert_matches_oracle(got, want):
    (loss, grads, _), (want_loss, want_grads, _) = got, want
    assert abs(loss - want_loss) <= MARGIN_TOL * max(1.0, abs(want_loss))
    for g, w in zip(grads, want_grads, strict=True):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= MARGIN_TOL * max(1.0, np.max(np.abs(w)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 16),
    num_classes=st.integers(2, 10),
    num_pos=st.integers(1, 8),
    num_neg=st.integers(1, 10),
    margin=st.sampled_from([0.05, 0.2, 0.5]),
    lam=st.sampled_from([0.5, 1.0]),
)
def test_margin_record_matches_primitive_graph_within_tolerance(seed, dim, num_classes, num_pos, num_neg, margin, lam):
    rng = np.random.default_rng(seed)
    arrays = [
        rng.uniform(-1, 1, size=(num_classes, dim)),
        rng.uniform(-1, 1, size=(num_classes, dim)),
        rng.uniform(-1, 1, size=dim),
        rng.uniform(-1, 1, size=dim),
    ]
    # indices repeat freely, so the gathers' adjoints must accumulate
    pos = rng.integers(0, num_classes, size=(num_pos, 2))
    negs = rng.integers(0, num_classes, size=(num_pos, num_neg, 2))
    want = scaled_loss_and_grads(reference_margin_loss_graph, arrays, pos, negs, margin, lam)
    got = scaled_loss_and_grads(margin_loss_graph, arrays, pos, negs, margin, lam)
    assert_matches_oracle(got, want)
    assert (want[2], got[2]) == (79, 2)


def test_margin_record_matches_primitive_graph_on_fixture_tree_within_tolerance(tree):
    rng = np.random.default_rng(11)
    arrays = init_table(tree, 16, rng).arrays
    pos = np.asarray(tree.parent_child_pairs())
    for margin in (0.05, 0.2):
        negs = sample_negatives(tree, pos, 10, rng)
        want = scaled_loss_and_grads(reference_margin_loss_graph, arrays, pos, negs, margin, 1.0)
        got = scaled_loss_and_grads(margin_loss_graph, arrays, pos, negs, margin, 1.0)
        assert_matches_oracle(got, want)
        assert got[2] == 2


def test_margin_record_rejects_non_finite_scores(tree):
    ts = tensors(init_table(tree, 4, np.random.default_rng(0)))
    ts[0].data[1] = 0.0
    ts[1].data[1] = 0.0  # a zero vector has no cosine
    pos = np.asarray(tree.parent_child_pairs())
    negs = sample_negatives(tree, pos, 2, np.random.default_rng(1))
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(NonFiniteError, match="che_margin"):
        margin_loss_graph(Tape(), ts, pos, negs, 0.2)


def test_graph_scores_match_numpy_scores(tree):
    rng = np.random.default_rng(9)
    table = init_table(tree, 8, rng)
    pairs = np.asarray(tree.parent_child_pairs())
    scores = reference_pair_scores_graph(Tape(), tensors(table), pairs)
    assert np.all(np.abs(scores.data - pair_scores(table, pairs)) < 1e-12)


def test_graph_loss_matches_numpy_loss(tree):
    rng = np.random.default_rng(10)
    table = init_table(tree, 8, rng)
    pos = np.asarray(tree.parent_child_pairs())
    negs = sample_negatives(tree, pos, 5, rng)
    loss = margin_loss_graph(Tape(), tensors(table), pos, negs, 0.5)
    pos_scores = pair_scores(table, pos)
    neg_scores = pair_scores(table, negs).reshape(negs.shape[:2])
    assert abs(loss.item() - np.maximum(0.0, 0.5 + neg_scores - pos_scores[:, None]).sum()) < 1e-12


def test_margin_loss_gradient_passes_grad_check(tree):
    rng = np.random.default_rng(12)
    ts = tensors(init_table(tree, 4, rng))
    pos = np.asarray(tree.parent_child_pairs()[:4])
    negs = sample_negatives(tree, pos, 3, rng)

    def f(tape, params):
        return margin_loss_graph(tape, params, pos, negs, 0.5)

    report = grad_check(f, ts, step=1e-5, tol=1e-4)
    assert report.passed, str(report)


# ----------------------------------------------------------------- training


@pytest.fixture(scope="module")
def trained(tree):
    return train_che(tree, CheConfig(seed=0))


def test_training_ranks_true_pairs(tree, trained):
    acc = ranking_accuracy(trained, tree, negatives_per_positive=10, seed=123)
    assert acc >= 0.95, f"ranking accuracy {acc}"


def test_training_separates_siblings(tree, trained):
    gap = sibling_similarity_gap(trained, tree)
    assert gap >= 0.05, f"sibling similarity gap {gap}"


def test_training_deterministic(tree, trained):
    again = train_che(tree, CheConfig(seed=0))
    assert again.class_re.tobytes() == trained.class_re.tobytes()
    assert again.class_im.tobytes() == trained.class_im.tobytes()
    assert again.rel_re.tobytes() == trained.rel_re.tobytes()
    assert again.rel_im.tobytes() == trained.rel_im.tobytes()


def test_training_rejects_degenerate_hierarchies():
    single = parse_hierarchy("root\n")
    with pytest.raises(EmbeddingError, match="no parent-child pairs"):
        train_che(single, CheConfig())
    two = parse_hierarchy("root\nroot/a\n")
    with pytest.raises(EmbeddingError, match="admits no negative pairs"):
        train_che(two, CheConfig())


def test_config_validation():
    with pytest.raises(EmbeddingError):
        CheConfig(dim=0)
    with pytest.raises(EmbeddingError):
        CheConfig(margin=-0.5)
    with pytest.raises(EmbeddingError):
        CheConfig(lr=0.0)
    with pytest.raises(EmbeddingError, match="margin"):
        CheConfig(margin=0.25)  # no table satisfies it (see CheConfig)


# ------------------------------------------------------------ conditioning


def test_leaf_condition_vector_layout():
    table = ClassEmbeddingTable(
        class_re=np.array([[0.5], [0.3]]),
        class_im=np.array([[0.1], [-0.2]]),
        rel_re=np.array([1.0]),
        rel_im=np.array([0.0]),
        hierarchy=parse_hierarchy("root\nroot/a\n"),
    )
    assert np.array_equal(condition(Tape(), tensors(table), 1).data, [[0.3, -0.2]])
    # generation conditions on leaves only
    models = build_models(table.hierarchy, ModelConfig(embed_dim=1))
    with pytest.raises(EmbeddingError, match="not a leaf"):
        generate_set(models, table, 0, 2, seed=0)
    with pytest.raises(EmbeddingError, match="not a leaf"):
        generate_set(models, table, 99, 2, seed=0)


def test_condition_vector_length(tree, trained):
    for y in tree.leaves:
        assert condition(Tape(), tensors(trained), y).shape == (1, 2 * trained.dim)


def test_condition_puts_the_adjoint_back_in_row_y():
    re, im = Tensor(np.arange(8.0).reshape(4, 2)), Tensor(np.arange(8.0).reshape(4, 2) + 10.0)
    t = Tape([re, im])
    row = condition(t, [re, im], 2)
    assert np.array_equal(row.data, [[4.0, 5.0, 14.0, 15.0]]) and len(t) == 1
    grads = t.backward(ref.sum(t, ref.mul(t, row, Tensor([[1.0, 2.0, 3.0, 4.0]]))))
    assert np.array_equal(grads[re], [[0.0, 0.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    assert np.array_equal(grads[im], [[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])


def _calls(path, name, receiver=None, first=None):
    """``file:function`` for every ``<receiver>.<name>(...)`` call in ``path``
    (any receiver, or none, when ``receiver`` is None) whose first argument
    is the literal ``first``, when that is given."""
    return [
        f"{path.name}:{fn.name}"
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        and (receiver is None or getattr(getattr(node.func, "value", None), "id", None) == receiver)
        and (first is None or bool(node.args) and getattr(node.args[0], "value", None) == first)
    ]


def test_condition_is_the_one_gather_of_conditioning_rows_in_src():
    # training and generation both gather through condition, the one emitter
    # of the condition record: another emitter, or an np.tile of a row where
    # the models are conditioned, would be a second path
    src = Path(__file__).resolve().parent.parent / "src" / "hiergan"
    files = sorted(src.glob("*.py"))
    assert [c for path in files for c in _calls(path, "_emit", first="condition")] == ["embed.py:condition"]
    assert [c for path in files for c in _calls(path, "condition")] == ["models.py:generate_set", "training.py:joint_step"]
    assert _calls(src / "models.py", "tile", "np") + _calls(src / "training.py", "tile", "np") == []


def test_table_save_load_round_trip(tmp_path, tree, trained):
    path = tmp_path / "emb.ckpt"
    save_table(path, trained)
    loaded = load_table(path)
    assert loaded.hierarchy == tree
    assert np.array_equal(loaded.class_re, trained.class_re)
    assert np.array_equal(loaded.class_im, trained.class_im)
    assert np.array_equal(loaded.rel_re, trained.rel_re)
    assert np.array_equal(loaded.rel_im, trained.rel_im)
    assert loaded.names == trained.names and loaded.leaves == trained.leaves
    for y in tree.leaves:
        want = condition(Tape(), tensors(trained), y).data
        assert np.array_equal(condition(Tape(), tensors(loaded), y).data, want)


def test_table_load_rejects_flat_class_arrays(tmp_path, tree):
    path = tmp_path / "flat.ckpt"
    flat = {"class_re": np.ones(9), "class_im": np.ones(9), "rel_re": np.ones(1), "rel_im": np.ones(1)}
    save_checkpoint(path, flat, {"hierarchy": tree.serialize()})
    with pytest.raises(EmbeddingError, match="must be"):
        load_table(path)


def test_table_validation_rejects_zero_relation():
    with pytest.raises(EmbeddingError, match="all-zero"):
        ClassEmbeddingTable(
            class_re=np.ones((2, 3)),
            class_im=np.ones((2, 3)),
            rel_re=np.zeros(3),
            rel_im=np.zeros(3),
            hierarchy=parse_hierarchy("root\nroot/a\n"),
        )


# -------------------------------------------------------------- similarity


def test_similarity_matrix_properties(trained):
    sim = similarity_matrix(trained)
    assert sim.shape == (trained.num_classes, trained.num_classes)
    assert np.allclose(np.diag(sim), 1.0, atol=1e-12)
    assert np.allclose(sim, sim.T, atol=1e-12)


def test_similarity_csv_format(trained):
    text = similarity_csv(trained)
    lines = text.strip().split("\n")
    assert lines[0] == "class," + ",".join(trained.names)
    assert len(lines) == trained.num_classes + 1
    first = lines[1].split(",")
    assert first[0] == trained.names[0]
    assert first[1] == "1.000000"  # self-similarity, 6 decimal places
