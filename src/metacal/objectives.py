"""Alignment objectives: rank correlations and pairwise preference accuracy.

These drive both the calibrators (as the quantity being maximized) and the
evaluation harness (as reported statistics).  Every objective takes aligned
arrays: two paired score lists for a correlation; for pairwise accuracy,
the chosen and the rejected meta-scores, pair i at position i of each.

A calibrator scores many candidate lists against one fixed human z, so
`prepare(kind, z)` computes once what a correlation needs of z alone, and
each correlation takes that `RankTarget` in place of its second list.
Given two plain lists, a correlation prepares the second itself; the
result is bit for bit the same either way.

Kendall is the tie-corrected tau-b, counted in O(n log n) after Knight
(1966).  A stable sort of the first list, taken in z's sorted order, puts
the pairs in lexicographic order, and the discordant pairs are then the
inversions of z's dense ranks.  These are counted by an MSB-first bit
partition of the ranks, one wavelet-tree level per bit: at bit b, a
stable sort by the bits above b groups the ranks, and each rank whose bit
b is 1 is inverted with every 0 after it in its group.  Summed over all
levels, the positions of the 1s fall short of a constant that depends on
z alone by exactly the number of inversions; the constant is the same sum
over z's own sorted ranks, which hold none.  The tau-b tie corrections
and Spearman's midranks take their runs of tied values from one
vectorized routine, `_runs`.  The naive O(n^2) pair scan is kept as a
test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from .core import MetacalError, PreferenceTarget, TargetKind, unstack_pairs


class LengthMismatch(MetacalError):
    """Paired inputs have different lengths or too few elements."""


class DegenerateInput(MetacalError):
    """An input is constant, so the statistic is undefined.

    Calibrators catch this and score the offending candidate as -1: a weight
    vector that produces a constant meta-score is maximally uninformative.
    """


class EmptyInput(MetacalError):
    """An operation received no data."""


class NonFiniteInput(MetacalError):
    """An input holds NaN or an infinity, so no statistic is meaningful."""


class ObjectiveKind(Enum):
    KENDALL = "kendall"
    SPEARMAN = "spearman"
    PEARSON = "pearson"
    PAIRWISE_ACCURACY = "pairwise"


def scored_by(objective: ObjectiveKind, target: PreferenceTarget) -> ObjectiveKind:
    """The objective a model fit to `target` is scored by: pairwise accuracy
    on a pairwise target, else `objective`."""
    return ObjectiveKind.PAIRWISE_ACCURACY if target.kind is TargetKind.PAIRWISE else objective


def alignment_scorer(
    objective: ObjectiveKind, target: PreferenceTarget
) -> Callable[[Callable[[np.ndarray], np.ndarray], np.ndarray], float]:
    """`score(meta, rows)`: the alignment with `target` of the meta-scores
    `meta(x)` of `rows`, one row per target row in stacked order.  On a
    pairwise target that is the pairwise accuracy of the chosen and the
    rejected halves, each passed to `meta` on its own (a stacked product's
    halves can differ in the last bit); otherwise `objective` against z,
    prepared once for every call (-1 if degenerate)."""
    if target.kind is TargetKind.PAIRWISE:
        return lambda meta, rows: pairwise_accuracy(*map(meta, unstack_pairs(rows)))
    z = prepare(objective, target.z)
    return lambda meta, rows: score_or_worst(objective, meta(rows), z)


def _runs(changes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and (exclusive) end of each run of equal values in a sorted
    sequence, given `changes[i]`: value i + 1 differs from value i."""
    bounds = np.flatnonzero(np.concatenate([[True], changes, [True]]))
    return bounds[:-1], bounds[1:]


def _tied_pairs(changes: np.ndarray) -> int:
    """Pairs within the same run: the sum of t * (t - 1) / 2 over run lengths t."""
    starts, ends = _runs(changes)
    t = ends - starts
    return int(np.sum(t * (t - 1) // 2))


def _one_positions(ranks: np.ndarray, bits: int) -> int:
    """Sum over bits b of the positions of the ranks whose bit b is set,
    after a stable sort of `ranks` by their bits above b.  Each sort key is
    cast to the smallest unsigned dtype that holds it, where numpy's stable
    sort is a radix sort up to 16 bits."""
    total = 0
    for b in range(bits - 1, -1, -1):
        grouped = ranks
        if b < bits - 1:
            key = ranks >> (b + 1)
            key = key.astype(np.min_scalar_type((1 << (bits - b - 1)) - 1), copy=False)
            grouped = ranks[np.argsort(key, kind="stable")]
        total += int(np.flatnonzero(grouped & (1 << b)).sum())
    return total


def _midranks(values: np.ndarray) -> np.ndarray:
    """Average (mid) ranks, 1-based; ties share the mean of their positions,
    so the order of tied values within the sort does not matter."""
    order = np.argsort(values)
    sorted_vals = values[order]
    starts, ends = _runs(sorted_vals[1:] != sorted_vals[:-1])
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


@dataclass(frozen=True, eq=False)
class KendallTarget:
    """z prepared for Kendall tau-b: `order` is a stable argsort of z,
    `ranks` z's dense ranks in that order (non-decreasing, in the smallest
    unsigned dtype) and `bits` their bit width.  `tied_pairs` counts the
    pairs tied in z, and `offset` is `_one_positions` of `ranks`."""

    order: np.ndarray
    ranks: np.ndarray
    bits: int
    tied_pairs: int
    offset: int

    @property
    def n(self) -> int:
        return self.ranks.size

    @classmethod
    def _of(cls, z: np.ndarray) -> "KendallTarget":
        order = np.argsort(z, kind="stable")
        zs = z[order]
        changes = zs[1:] != zs[:-1]
        top = int(np.count_nonzero(changes))
        ranks = np.concatenate([[0], np.cumsum(changes)]).astype(np.min_scalar_type(top))
        bits = top.bit_length()
        return cls(order, ranks, bits, _tied_pairs(changes), _one_positions(ranks, bits))


@dataclass(frozen=True, eq=False)
class PearsonTarget:
    """z prepared for Pearson: z minus its mean, and the sum of its squares."""

    centred: np.ndarray
    sum_sq: float

    @property
    def n(self) -> int:
        return self.centred.size

    @classmethod
    def _of(cls, z: np.ndarray) -> "PearsonTarget":
        centred = z - z.mean()
        return cls(centred, float(np.sum(centred * centred)))


@dataclass(frozen=True, eq=False)
class SpearmanTarget:
    """z prepared for Spearman: the Pearson target of z's midranks."""

    midranks: PearsonTarget

    @property
    def n(self) -> int:
        return self.midranks.n

    @classmethod
    def _of(cls, z: np.ndarray) -> "SpearmanTarget":
        return cls(PearsonTarget._of(_midranks(z)))


RankTarget = Union[KendallTarget, SpearmanTarget, PearsonTarget]

_TARGETS: dict[ObjectiveKind, type] = {
    ObjectiveKind.KENDALL: KendallTarget,
    ObjectiveKind.SPEARMAN: SpearmanTarget,
    ObjectiveKind.PEARSON: PearsonTarget,
}
_PREPARED = tuple(_TARGETS.values())


def prepare(kind: ObjectiveKind, z: Sequence[float]) -> RankTarget:
    """The fixed second list `z` of the correlation `kind`, prepared once
    for any number of first lists.  A constant z is accepted; scoring
    against it raises DegenerateInput."""
    try:
        cls = _TARGETS[kind]
    except KeyError:
        raise MetacalError(f"{kind} is not a correlation over paired lists") from None
    y = np.asarray(z, dtype=np.float64).ravel()
    if y.size < 2:
        raise LengthMismatch(f"need at least 2 paired values, got {y.size}")
    if not np.isfinite(y).all():
        raise NonFiniteInput("paired lists must hold finite values")
    return cls._of(y)


def _against(
    a: Sequence[float], b: Sequence[float] | RankTarget, cls: type
) -> tuple[np.ndarray, RankTarget]:
    """`a` as a checked first list, and `b` as a `cls` target.  A plain `b`
    is prepared after both lists are checked: lengths first, then values."""
    if isinstance(b, _PREPARED) and not isinstance(b, cls):
        raise MetacalError(f"a {type(b).__name__} cannot stand in for a {cls.__name__}")
    x = np.asarray(a, dtype=np.float64).ravel()
    y = None if isinstance(b, cls) else np.asarray(b, dtype=np.float64).ravel()
    n = b.n if y is None else y.size
    if x.size != n:
        raise LengthMismatch(f"paired lists differ in length: {x.size} vs {n}")
    if x.size < 2:
        raise LengthMismatch(f"need at least 2 paired values, got {x.size}")
    if not (np.isfinite(x).all() and (y is None or np.isfinite(y).all())):
        raise NonFiniteInput("paired lists must hold finite values")
    return x, (b if y is None else cls._of(y))


def kendall_tau(a: Sequence[float], b: Sequence[float] | KendallTarget) -> float:
    """Tie-corrected Kendall tau-b between two paired score lists.

    tau-b = (C - D) / sqrt((n0 - t_a) * (n0 - t_b)), where C/D count
    concordant/discordant pairs, n0 = n*(n-1)/2, and t_a, t_b count pairs
    tied within each list.
    """
    x, t = _against(a, b, KendallTarget)
    n = x.size
    # Sorting x stably within z's order sorts the pairs by (x, z).
    xz = x[t.order]
    order = np.argsort(xz, kind="stable")
    xs, ys = xz[order], t.ranks[order]

    total = n * (n - 1) // 2
    x_changes = xs[1:] != xs[:-1]
    ties_x = _tied_pairs(x_changes)
    ties_y = t.tied_pairs
    if ties_x == total:
        raise DegenerateInput("first list is constant; tau undefined")
    if ties_y == total:
        raise DegenerateInput("second list is constant; tau undefined")
    # Joint ties: runs of equal (x, y) in lexicographic order.
    ties_xy = _tied_pairs(x_changes | (ys[1:] != ys[:-1]))

    # Every strict inversion in ys has strictly increasing x, so the
    # inversion count (see the module docstring) is exactly the
    # discordant-pair count.
    discordant = t.offset - _one_positions(ys, t.bits)
    con_minus_dis = total - ties_x - ties_y + ties_xy - 2 * discordant
    tau = con_minus_dis / math.sqrt(float(total - ties_x) * float(total - ties_y))
    return min(1.0, max(-1.0, tau))


def spearman_rho(a: Sequence[float], b: Sequence[float] | SpearmanTarget) -> float:
    """Pearson correlation of mid-ranks (average ranks for ties)."""
    x, t = _against(a, b, SpearmanTarget)
    rx = _midranks(x)
    if np.all(rx == rx[0]):
        raise DegenerateInput("first list is constant; spearman undefined")
    # Centred midranks are all 0 exactly when z is constant.
    if t.midranks.sum_sq == 0.0:
        raise DegenerateInput("second list is constant; spearman undefined")
    return pearson_r(rx, t.midranks)


def pearson_r(a: Sequence[float], b: Sequence[float] | PearsonTarget) -> float:
    """Sample Pearson correlation coefficient."""
    x, t = _against(a, b, PearsonTarget)
    dx = x - x.mean()
    var_x = float(np.sum(dx * dx))
    if var_x == 0.0 or t.sum_sq == 0.0:
        raise DegenerateInput("constant input; pearson undefined")
    # The single sqrt keeps r exactly +/-1.0 for exact (anti-)identical inputs.
    r = float(np.sum(dx * t.centred)) / math.sqrt(var_x * t.sum_sq)
    return min(1.0, max(-1.0, r))


def pairwise_accuracy(chosen: Sequence[float], rejected: Sequence[float]) -> float:
    """Fraction of pairs (chosen[i], rejected[i]) ranked correctly.

    Exact ties earn 0.5 credit, which keeps accuracy(chosen, rejected) +
    accuracy(rejected, chosen) = 1 even when ties occur.
    """
    c = np.asarray(chosen, dtype=np.float64).ravel()
    r = np.asarray(rejected, dtype=np.float64).ravel()
    if c.size != r.size:
        raise LengthMismatch(f"{c.size} chosen scores vs {r.size} rejected scores")
    if c.size == 0:
        raise EmptyInput("no preference pairs")
    if not (np.isfinite(c).all() and np.isfinite(r).all()):
        raise NonFiniteInput("preference pair scores must be finite")
    wins = float(np.count_nonzero(c > r))
    ties = float(np.count_nonzero(c == r))
    return (wins + 0.5 * ties) / c.size


_CORRELATIONS = {
    ObjectiveKind.KENDALL: kendall_tau,
    ObjectiveKind.SPEARMAN: spearman_rho,
    ObjectiveKind.PEARSON: pearson_r,
}


def correlation(
    kind: ObjectiveKind, a: Sequence[float], b: Sequence[float] | RankTarget
) -> float:
    """Dispatch to the named correlation; PAIRWISE_ACCURACY is not a correlation."""
    try:
        fn = _CORRELATIONS[kind]
    except KeyError:
        raise MetacalError(f"{kind} is not a correlation over paired lists") from None
    return fn(a, b)


def score_or_worst(
    kind: ObjectiveKind, predictions: Sequence[float], z: Sequence[float] | RankTarget
) -> float:
    """Correlation value, with DegenerateInput mapped to -1 (worst possible)."""
    try:
        return correlation(kind, predictions, z)
    except DegenerateInput:
        return -1.0
