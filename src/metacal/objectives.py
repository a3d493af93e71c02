"""Alignment objectives: rank correlations and pairwise preference accuracy.

These drive both the calibrators (as the quantity being maximized) and the
evaluation harness (as reported statistics).

Kendall is the tie-corrected tau-b.  The hot path counts discordant pairs
with a Fenwick tree over rank-compressed values after a lexicographic sort,
which is O(n log n); segment-level lists can exceed 1e5 entries, where the
naive O(n^2) pair scan (kept as a test oracle) is unusable.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Sequence

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


def _tie_pair_count(sorted_values: np.ndarray) -> int:
    """Sum of t*(t-1)/2 over runs of equal values in a sorted array."""
    n = sorted_values.size
    boundaries = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
    run_ends = np.concatenate([boundaries + 1, [n]])
    run_starts = np.concatenate([[0], boundaries + 1])
    runs = run_ends - run_starts
    return int(np.sum(runs * (runs - 1) // 2))


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
    ties_x = _tie_pair_count(xs)
    ties_y = _tie_pair_count(np.sort(y))
    if ties_x == total:
        raise DegenerateInput("first list is constant; tau undefined")
    if ties_y == total:
        raise DegenerateInput("second list is constant; tau undefined")

    # Joint-tie pairs: runs of equal (x, y) in lexicographic order.
    joint_boundary = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    run_ids = np.concatenate([[0], np.cumsum(joint_boundary)])
    runs = np.bincount(run_ids)
    ties_xy = int(np.sum(runs * (runs - 1) // 2))

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
    ranks = np.empty(values.size, dtype=np.float64)
    boundaries = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1])
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.concatenate([boundaries + 1, [values.size]])
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (s + e - 1) + 1.0
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


def pairwise_accuracy(pairs: Iterable[tuple[float, float]]) -> float:
    """Fraction of (chosen, rejected) pairs ranked correctly.

    Exact ties earn 0.5 credit, which keeps accuracy(pairs) +
    accuracy(swapped pairs) = 1 even when ties occur.
    """
    arr = np.asarray(list(pairs), dtype=np.float64)
    if arr.size == 0:
        raise EmptyInput("no preference pairs")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise LengthMismatch(f"pairs must be (chosen, rejected) tuples, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput("preference pair scores must be finite")
    chosen, rejected = arr[:, 0], arr[:, 1]
    wins = float(np.count_nonzero(chosen > rejected))
    ties = float(np.count_nonzero(chosen == rejected))
    return (wins + 0.5 * ties) / arr.shape[0]


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
