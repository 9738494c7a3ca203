"""Complex-valued class embeddings trained to rank true parent-child pairs.

Every class in a hierarchy gets a complex vector, and a single shared
relation vector represents the "is A" edge. A pair (p, c) is scored by
rotating both class vectors with the relation (componentwise complex
multiplication) and taking the cosine between the rotated vectors, flattened
to real coordinates. ``pair_scores`` is the one scorer: it rates a batch of
pairs at once, with the expressions the margin loss evaluates. Training
minimizes a hinge ranking loss that pushes every true pair above corruptions
that ``sample_negatives`` draws for all true pairs in one call; those draws
are numpy's own ``integers`` draws, taken from one bulk call of raw 32-bit
words wherever that yields the same stream.

The differentiable margin loss at the bottom is shared with the joint GAN
objective, which keeps refining the same table while the generator trains;
there it sits on the generator's tape, so one backward serves both updates.
It is one tape record (op ``che_margin``) over the four table tensors, whose
backward is the closed-form cosine adjoint chained through the rotation and
the gathers; loss and gradients agree with a graph of primitive ops to
rounding, at a small fraction of its bookkeeping. The record scores the
negatives and then the positives in one pass, and its backward scatters the
row adjoints into each class array with one ``np.bincount``, in the order
negatives' parent side, their child side, positives' parent side, their
child side: the order, and so the sums, of one ``np.add.at`` per part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Adam, NonFiniteError, Tape, Tensor
from .config import SEED, Rule, check, setting
from .files import load_artifact, save_checkpoint
from .hierarchy import ClassHierarchy

class EmbeddingError(ValueError):
    """Invalid embedding inputs: dimension mismatch, degenerate vectors,
    unknown ids, or a hierarchy too small to corrupt."""


# margin must stay below 0.25: scores are cosines, and satisfying both "true
# pair beats its corruptions" and "deeper pair beats the shallower pair's
# corruptions" by m requires s(1-s) >= m for some s in [0, 1]
MARGIN = Rule(float, 0, strict=True, high=0.25)


@dataclass
class CheConfig:
    dim: int = setting(16, Rule(int, 1))
    margin: float = setting(0.2, MARGIN)
    negatives_per_positive: int = setting(10, Rule(int, 1))
    lr: float = setting(0.01, Rule(float, 0, strict=True))
    epochs: int = setting(200, Rule(int, 1))
    seed: int = setting(0, SEED)

    def __post_init__(self):
        check(self, EmbeddingError)


@dataclass
class ClassEmbeddingTable:
    """The class embedding, from training to generation: one complex vector
    per class plus the relation. A trainer holds its ``arrays`` as tape
    tensors. The table keeps the hierarchy it was trained on, so whatever
    pairs it with models or data can check that it belongs to theirs.
    """

    class_re: np.ndarray  # (N, D)
    class_im: np.ndarray  # (N, D)
    rel_re: np.ndarray  # (D,)
    rel_im: np.ndarray  # (D,)
    hierarchy: ClassHierarchy

    def __post_init__(self):
        if self.class_re.ndim != 2:
            raise EmbeddingError(f"class embeddings must be (N, D), got shape {self.class_re.shape}")
        n, d = self.class_re.shape
        if self.class_im.shape != (n, d) or self.rel_re.shape != (d,) or self.rel_im.shape != (d,):
            raise EmbeddingError("inconsistent table shapes")
        if len(self.hierarchy) != n:
            raise EmbeddingError(f"{len(self.hierarchy)} hierarchy nodes for {n} classes")
        for arr in self.arrays:
            if not np.all(np.isfinite(arr)):
                raise EmbeddingError("table contains non-finite values")
        if not (np.any(self.rel_re != 0.0) or np.any(self.rel_im != 0.0)):
            raise EmbeddingError("relation embedding is all-zero")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.hierarchy.nodes)

    @property
    def leaves(self) -> tuple[int, ...]:
        return self.hierarchy.leaves

    @property
    def dim(self) -> int:
        return self.class_re.shape[1]

    @property
    def num_classes(self) -> int:
        return self.class_re.shape[0]

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The order of ``init_table``'s draws and of every list of table tensors."""
        return (self.class_re, self.class_im, self.rel_re, self.rel_im)


def init_table(h: ClassHierarchy, dim: int, rng: np.random.Generator) -> ClassEmbeddingTable:
    """A table of uniform draws in +-0.5/sqrt(dim), in ``arrays`` order."""
    scale = 0.5 / np.sqrt(dim)
    shapes = ((len(h), dim), (len(h), dim), (dim,), (dim,))
    return ClassEmbeddingTable(*(rng.uniform(-scale, scale, size=shape) for shape in shapes), hierarchy=h)


def condition(tape: Tape, tensors: list[Tensor], y: int) -> Tensor:
    """The conditioning row (re || im) of class y, (1, 2D), gathered on
    ``tape`` from the table tensors: the one gather, in training and
    generation. A batch shares it: each network adds it into its first
    layer's bias (``Tape.linear``'s ``cond``)."""
    return tape.concat([tape.slice(tensors[0], y, y + 1), tape.slice(tensors[1], y, y + 1)], axis=1)


_TABLE_ARRAYS = ("class_re", "class_im", "rel_re", "rel_im")


def save_table(path, table: ClassEmbeddingTable) -> None:
    """Checkpoint the table arrays, with its hierarchy as metadata."""
    save_checkpoint(path, dict(zip(_TABLE_ARRAYS, table.arrays)), {"hierarchy": table.hierarchy.serialize()})


def load_table(path) -> ClassEmbeddingTable:
    """Read a saved table with the hierarchy stored beside it; whoever pairs
    it with models or data checks that hierarchy. The table checks its own
    shapes: the metadata does not fix its dim."""
    _, stored, arrays = load_artifact(path, "embedding table", lambda _meta, _h: (None, dict.fromkeys(_TABLE_ARRAYS)))
    return ClassEmbeddingTable(**arrays, hierarchy=stored)


# ----------------------------------------------------------------- sampling


def sample_negatives(
    h: ClassHierarchy, pairs, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Corrupt one side of each true (parent, child) pair, n times; int
    (P, n, 2) for ``pairs`` (P, 2).

    A corruption is valid when its two classes have no parent-child relation
    in either direction and are distinct (the score is symmetric, so a
    reversed true pair would tie with a positive and make ranking
    unsatisfiable). Pairs are drawn in order, and each draw takes two rng
    integers: the side, uniformly, then a replacement uniformly from that
    side's valid classes; a draw whose side admits no corruption falls back
    to the other side.

    When every side of every pair has two or more candidates, each of those
    integers is one 32-bit word, so all of them come from one bulk call of
    raw words, mapped as numpy's ``integers(k)`` maps a word (Lemire's
    multiply-shift: ``(u * k) >> 32``). Should a word land where that draw
    would reject it and take another, or a side have fewer than two
    candidates (``integers(1)`` takes no word), the rng is rewound and the
    draws are taken one by one. Either way the stream and the negatives are
    the same.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    for p, c in pairs.tolist():
        if not h.is_parent_child(p, c):
            raise EmbeddingError(f"({p}, {c}) is not a parent-child pair")
    if n < 1:
        raise EmbeddingError("need n >= 1 negatives")
    if len(h) < 3:
        raise EmbeddingError(f"hierarchy with {len(h)} nodes admits no negative pairs")
    sides = [(h.unrelated(c), h.unrelated(p)) for p, c in pairs.tolist()]  # replacements for p, for c
    counts = np.array([[len(s) for s in two] for two in sides], dtype=np.uint64).reshape(-1, 2)
    if counts.size and counts.min() >= 2:
        state = rng.bit_generator.state
        words = rng.integers(0, _WORD, size=(len(pairs), n, 2), dtype=np.uint64)
        side = ((words[..., 0] * 2) >> 32).astype(np.intp)  # integers(2) never rejects
        k = np.take_along_axis(counts, side, axis=1)
        if not _lemire_rejects(words[..., 1], k).any():
            starts = np.cumsum(counts.reshape(-1)) - counts.reshape(-1)
            flat = np.array([q for two in sides for s in two for q in s], dtype=np.int64)
            picks = flat[np.take_along_axis(starts.reshape(-1, 2), side, axis=1) + ((words[..., 1] * k) >> 32)]
            out = np.repeat(pairs[:, None, :], n, axis=1)
            np.put_along_axis(out, side[..., None], picks[..., None], axis=2)
            return out
        rng.bit_generator.state = state
    out = []
    for (p, c), two in zip(pairs.tolist(), sides):
        for _ in range(n):
            side = int(rng.integers(2))
            if not two[side]:
                side = 1 - side
            pick = two[side][int(rng.integers(len(two[side])))]
            out.append((pick, c) if side == 0 else (p, pick))
    return np.asarray(out, dtype=np.int64).reshape(len(pairs), n, 2)


_WORD = 1 << 32


def _lemire_rejects(words: np.ndarray, k) -> np.ndarray:
    """Whether numpy's ``integers(k)`` would reject each 32-bit word and draw
    another: the low half of ``word * k`` falls below 2**32 mod k."""
    k = np.asarray(k, dtype=np.uint64)
    return (words * k) & np.uint64(_WORD - 1) < np.uint64(_WORD) % k


# ------------------------------------------------------ differentiable graph


def _pair_cosines(cre, cim, rre, rim, pairs: np.ndarray):
    """Scores (B,) of int pairs (B, 2) from the table arrays, then what their
    adjoint reads: the denominators |a||b| and, for the parent side then the
    child side, its gather index, its gathered rows (re, im), their rotation
    (re, im) and its norm."""
    sides = []
    for idx in (pairs[:, 0], pairs[:, 1]):
        re, im = cre[idx], cim[idx]
        t_re, t_im = re * rre - im * rim, re * rim + im * rre
        sides.append((idx, re, im, t_re, t_im, np.sqrt((t_re * t_re).sum(axis=1) + (t_im * t_im).sum(axis=1))))
    (*_, a_re, a_im, norm_a), (*_, b_re, b_im, norm_b) = sides
    den = norm_a * norm_b
    return ((a_re * b_re).sum(axis=1) + (a_im * b_im).sum(axis=1)) / den, den, sides


def pair_scores(table: ClassEmbeddingTable, pairs) -> np.ndarray:
    """Cosine compatibility (B,) of candidate (p, c) edges, int (B, 2), each
    in [-1, 1]: both class vectors are rotated by the relation, and the
    cosine is taken over the (re || im) flattening of the rotated vectors.
    The margin loss evaluates the same expressions."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and not (0 <= pairs.min() and pairs.max() < table.num_classes):
        raise EmbeddingError(f"unknown class id in pairs for a table of {table.num_classes} classes")
    with np.errstate(divide="ignore", invalid="ignore"):
        scores, den, _ = _pair_cosines(table.class_re, table.class_im, table.rel_re, table.rel_im, pairs)
    if np.any(den == 0.0):
        raise EmbeddingError("degenerate embedding: zero-norm transformed vector")
    return scores


def _cosine_adjoints(g, cosines, rre, rim, split: int, num_classes: int) -> tuple[np.ndarray, ...]:
    """The adjoints (class_re, class_im, rel_re, rel_im) of one
    ``_pair_cosines`` call over a table of ``num_classes`` classes, given the
    adjoint g (B,) of its scores; its first ``split`` pairs are the negatives
    and the rest the positives.

    For the rotated vectors a, b of a pair, dcos/da = b/(|a||b|) - cos a/|a|^2
    (and the same with a and b swapped); a rotation t = x * r (complex) sends
    back g_x = g_t * conj(r) to the gathered rows and sum(g_t * conj(x)) to
    the relation. Each side's row adjoints are built once, over all pairs.
    The relation's column sums and the scatter into the class rows take the
    parts in one order: the negatives' parent side, their child side, the
    positives' parent side, their child side. One ``np.bincount`` per class
    array adds the rows in that order from zero, which is how ``np.add.at``
    accumulates a repeated gather index.
    """
    cos, den, sides = cosines
    parts = []  # per side: gather index and the adjoints of the gathered rows and of the relation
    for (idx, re, im, t_re, t_im, norm), (*_, o_re, o_im, _) in zip(sides, sides[::-1]):
        to_other, to_self = (g / den)[:, None], (g * cos / (norm * norm))[:, None]
        g_re, g_im = to_other * o_re - to_self * t_re, to_other * o_im - to_self * t_im
        rows = (g_re * rre + g_im * rim, g_im * rre - g_re * rim)
        parts.append((idx, rows, (g_re * re + g_im * im, g_im * re - g_re * im)))
    order = [(side, cut) for cut in (slice(None, split), slice(split, None)) for side in parts]
    grads = [np.zeros_like(rre), np.zeros_like(rim)]
    for (_, _, rel), cut in order:
        grads[0] += rel[0][cut].sum(axis=0)
        grads[1] += rel[1][cut].sum(axis=0)
    dim = rre.shape[0]
    bins = (np.concatenate([idx[cut] for (idx, _, _), cut in order])[:, None] * dim + np.arange(dim)).reshape(-1)
    scatter = (
        np.bincount(bins, np.concatenate([rows[k][cut] for (_, rows, _), cut in order]).reshape(-1), num_classes * dim)
        for k in (0, 1)
    )
    return (*(a.reshape(num_classes, dim) for a in scatter), *grads)


def margin_loss_graph(
    tape: Tape, tensors: list[Tensor], pos_pairs: np.ndarray, neg_pairs: np.ndarray, margin: float
) -> Tensor:
    """Differentiable hinge ranking loss, sum of max(0, margin + neg - pos);
    ``neg_pairs`` is int (P, n, 2). One tape record, op ``che_margin``, over
    the four table tensors, in ``ClassEmbeddingTable.arrays`` order. The
    negatives and then the positives are scored in one ``_pair_cosines``
    call; each pair's score is a row of its own, so it is the score a call
    of its own gives."""
    pos_pairs = np.asarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
    neg_pairs = np.asarray(neg_pairs, dtype=np.int64)
    if neg_pairs.ndim != 3 or neg_pairs.shape[0] != len(pos_pairs) or neg_pairs.shape[2] != 2:
        raise EmbeddingError(f"expected pos pairs (P, 2) and neg pairs (P, n, 2), got {neg_pairs.shape} negatives")
    num_pos, num_neg = neg_pairs.shape[0], neg_pairs.shape[1]
    split = num_pos * num_neg
    params = tuple(tensors)
    cre, cim, rre, rim = (t.data for t in params)
    cosines = _pair_cosines(cre, cim, rre, rim, np.concatenate([neg_pairs.reshape(-1, 2), pos_pairs]))
    scores = cosines[0]
    shifted = scores[:split].reshape(num_pos, num_neg) - scores[split:].reshape(num_pos, 1) + float(margin)
    if not np.isfinite(shifted).all():
        raise NonFiniteError("op 'che_margin' produced non-finite pair scores")
    mask = shifted > 0
    hinge = np.where(mask, shifted, 0.0)

    def back(g):
        g_hinge = np.full(hinge.shape, float(g)) * mask
        g_scores = np.concatenate([g_hinge.reshape(-1), -g_hinge.sum(axis=1)])
        return _cosine_adjoints(g_scores, cosines, rre, rim, split, len(cre))

    return tape._emit("che_margin", params, np.asarray(hinge.sum()), back)


def train_che(h: ClassHierarchy, cfg: CheConfig) -> ClassEmbeddingTable:
    """Fit the table with full-batch Adam, resampling negatives each epoch."""
    pos_pairs = np.asarray(h.parent_child_pairs(), dtype=np.int64)
    if pos_pairs.size == 0:
        raise EmbeddingError("hierarchy has no parent-child pairs to train on")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam([Tensor(a) for a in init_table(h, cfg.dim, rng).arrays], cfg.lr)
    for _ in range(cfg.epochs):
        negs = sample_negatives(h, pos_pairs, cfg.negatives_per_positive, rng)
        tape = Tape(opt.params)
        opt.step(tape.backward(margin_loss_graph(tape, opt.params, pos_pairs, negs, cfg.margin)))
    return ClassEmbeddingTable(*(p.data for p in opt.params), hierarchy=h)


# ----------------------------------------------------------------- analysis


def ranking_accuracy(
    table: ClassEmbeddingTable,
    h: ClassHierarchy,
    negatives_per_positive: int = 10,
    seed: int = 0,
) -> float:
    """Fraction of true pairs scoring above all their sampled corruptions."""
    pairs = h.parent_child_pairs()
    negs = sample_negatives(h, pairs, negatives_per_positive, np.random.default_rng(seed))
    neg = pair_scores(table, negs).reshape(negs.shape[:2])
    wins = int(np.count_nonzero(np.all(pair_scores(table, pairs)[:, None] > neg, axis=1)))
    return wins / len(pairs)


def _flat_rows(table: ClassEmbeddingTable) -> np.ndarray:
    return np.concatenate([table.class_re, table.class_im], axis=1)


def similarity_matrix(table: ClassEmbeddingTable) -> np.ndarray:
    """Cosine similarities between all class vectors (flattened re || im)."""
    rows = _flat_rows(table)
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise EmbeddingError("degenerate embedding: zero-norm class vector")
    unit = rows / norms[:, None]
    return unit @ unit.T


def similarity_csv(table: ClassEmbeddingTable) -> str:
    """CSV rendering of the similarity matrix: name header, 6 decimals."""
    sim = similarity_matrix(table)
    lines = ["class," + ",".join(table.names)]
    for name, row in zip(table.names, sim):
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


def sibling_similarity_gap(table: ClassEmbeddingTable, h: ClassHierarchy) -> float:
    """Mean leaf-pair cosine among siblings minus the mean among non-siblings."""
    sim = similarity_matrix(table)
    sib, non = [], []
    for i, a in enumerate(h.leaves):
        for b in h.leaves[i + 1 :]:
            value = sim[a, b]
            if h.nodes[a].parent == h.nodes[b].parent:
                sib.append(value)
            else:
                non.append(value)
    if not sib or not non:
        raise EmbeddingError("hierarchy has no sibling/non-sibling leaf contrast")
    return float(np.mean(sib) - np.mean(non))
