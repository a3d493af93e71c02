"""Alignment objectives: rank correlations and pairwise preference accuracy.

These drive both the calibrators (as the quantity being maximized) and the
evaluation harness (as reported statistics).  Every objective takes aligned
arrays: two paired score lists for a correlation; for pairwise accuracy,
the chosen and the rejected meta-scores, pair i at position i of each.

Kendall is the tie-corrected tau-b.  The hot path counts discordant pairs
with a Fenwick tree over rank-compressed values after a lexicographic sort,
which is O(n log n); segment-level lists can exceed 1e5 entries, where the
naive O(n^2) pair scan (kept as a test oracle) is unusable.  The tau-b tie
corrections and Spearman's midranks take their runs of tied values from
one vectorized routine, `_runs`.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .core import MetacalError


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


def _paired_arrays(a: Sequence[float], b: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(b, dtype=np.float64).ravel()
    if x.size != y.size:
        raise LengthMismatch(f"paired lists differ in length: {x.size} vs {y.size}")
    if x.size < 2:
        raise LengthMismatch(f"need at least 2 paired values, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteInput("paired lists must hold finite values")
    return x, y


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


def _count_inversions(values: np.ndarray) -> int:
    """Number of index pairs i < j with values[i] > values[j] (strict)."""
    # Fenwick tree over rank-compressed values; equal elements do not count.
    ranks = np.searchsorted(np.unique(values), values) + 1
    size = int(ranks.max())
    tree = [0] * (size + 1)
    inversions = 0
    for seen, r in enumerate(ranks.tolist()):
        i = r
        at_or_below = 0
        while i > 0:
            at_or_below += tree[i]
            i -= i & (-i)
        inversions += seen - at_or_below
        i = r
        while i <= size:
            tree[i] += 1
            i += i & (-i)
    return inversions


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Tie-corrected Kendall tau-b between two paired score lists.

    tau-b = (C - D) / sqrt((n0 - t_a) * (n0 - t_b)), where C/D count
    concordant/discordant pairs, n0 = n*(n-1)/2, and t_a, t_b count pairs
    tied within each list.
    """
    x, y = _paired_arrays(a, b)
    n = x.size
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]

    total = n * (n - 1) // 2
    x_changes = xs[1:] != xs[:-1]
    y_sorted = np.sort(y)
    ties_x = _tied_pairs(x_changes)
    ties_y = _tied_pairs(y_sorted[1:] != y_sorted[:-1])
    if ties_x == total:
        raise DegenerateInput("first list is constant; tau undefined")
    if ties_y == total:
        raise DegenerateInput("second list is constant; tau undefined")
    # Joint ties: runs of equal (x, y) in lexicographic order.
    ties_xy = _tied_pairs(x_changes | (ys[1:] != ys[:-1]))

    # After the lexsort, every strict inversion in ys has strictly increasing
    # x, so the inversion count is exactly the discordant-pair count.
    discordant = _count_inversions(ys)
    con_minus_dis = total - ties_x - ties_y + ties_xy - 2 * discordant
    tau = con_minus_dis / math.sqrt(float(total - ties_x) * float(total - ties_y))
    return min(1.0, max(-1.0, tau))


def _midranks(values: np.ndarray) -> np.ndarray:
    """Average (mid) ranks, 1-based; ties share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts, ends = _runs(sorted_vals[1:] != sorted_vals[:-1])
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def spearman_rho(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation of mid-ranks (average ranks for ties)."""
    x, y = _paired_arrays(a, b)
    rx = _midranks(x)
    ry = _midranks(y)
    if np.all(rx == rx[0]):
        raise DegenerateInput("first list is constant; spearman undefined")
    if np.all(ry == ry[0]):
        raise DegenerateInput("second list is constant; spearman undefined")
    return pearson_r(rx, ry)


def pearson_r(a: Sequence[float], b: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    x, y = _paired_arrays(a, b)
    dx = x - x.mean()
    dy = y - y.mean()
    var_x = float(np.sum(dx * dx))
    var_y = float(np.sum(dy * dy))
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateInput("constant input; pearson undefined")
    # The single sqrt keeps r exactly +/-1.0 for exact (anti-)identical inputs.
    r = float(np.sum(dx * dy)) / math.sqrt(var_x * var_y)
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


def correlation(kind: ObjectiveKind, a: Sequence[float], b: Sequence[float]) -> float:
    """Dispatch to the named correlation; PAIRWISE_ACCURACY is not a correlation."""
    try:
        fn = _CORRELATIONS[kind]
    except KeyError:
        raise MetacalError(f"{kind} is not a correlation over paired lists") from None
    return fn(a, b)


def score_or_worst(kind: ObjectiveKind, predictions: Sequence[float], z: Sequence[float]) -> float:
    """Correlation value, with DegenerateInput mapped to -1 (worst possible)."""
    try:
        return correlation(kind, predictions, z)
    except DegenerateInput:
        return -1.0
