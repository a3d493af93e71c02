"""Gradient-boosted regression trees over base-metric features.

Second-order boosting: each round computes per-example gradients g and
hessians h of the configured loss at the current predictions, then grows one
depth-limited tree by exact greedy split search maximizing

    gain = 1/2 * (GL^2/(HL+lambda) + GR^2/(HR+lambda)
                  - (GL+GR)^2/(HL+HR+lambda)) - gamma

with leaf value -G/(H+lambda).  Split finding is deterministic: ties break
on the lowest feature index, then the lowest threshold.  No histogramming,
subsampling, or early stopping; feature counts here are small and exactness
keeps the arithmetic auditable.

Trees grow a level at a time, exact-greedy depth-wise growth (Chen &
Guestrin, XGBoost, KDD 2016, section 3.1, Algorithm 1), and every tree of a
boosting round grows in the same pass: the members of one run, such as the
k fold models of cross-validation, are rows side by side, and one call
searches every node of a level of every member.  A node keeps its rows in
its parent's stable order on the winning feature, so each node's sums, and
every tie after them, are what growing the node on its own gives.

Splits sort dense-rank keys, not values: every feature column is ranked
once per run (equal values, -0.0 and 0.0 among them, share a rank) in the
smallest unsigned dtype that holds the ranks, and numpy sorts 8- and 16-bit
keys by radix.  Ranks keep the order of the values, on any subset of the
rows, so a stable sort of the keys is the permutation a stable sort of the
values gives, and every sum, gain, threshold and child is bit for bit the
same.  The nodes of a level sort in blocks, by one argsort of composite
(node, rank) keys each (see `_blocks`).  Values are read only for the two
sides of the chosen boundary.

A `Tree` is five parallel node arrays in pre-order: `feature`, `threshold`,
`gain`, `value` and `right`.  A split's left child is the next node and its
right child is node `right[i]`, with i + 1 < right[i] < tree size; the root
is never a right child, so `right[i] == 0` marks a leaf.  Leaves hold 0 in
`feature`, `threshold` and `gain`, splits 0 in `value`.  The trainer writes
them from its levels; the model-file reader builds trees through
`Tree.grow`.

Every entry point takes features in matrix row order and a
`PreferenceTarget` aligned with them as `metacal.core` lays it out; a 1-D
array is read as a pointwise z.  Non-finite features or targets raise
`NonFiniteInput`.  The regression losses fit z; PAIRWISE_RANK fits the
pairs, whose members are the stacked rows of each pair.

On top of the trainer sit k-fold cross-validation over target units, a grid
search over the ensemble size, and `calibrate_gbt`, the one entry point
for iterative pruning: repeatedly drop the feature with the least
total-gain importance, track CV performance, and keep the model of the
best-scoring feature subset; without pruning it runs one such round.
Boosting has no randomness, so an n-tree model is exactly the first n
trees of a longer run: the whole size grid is scored from one boosting run
of all folds in lockstep, routing each fold's held-out rows down its tree
of every round and adding the leaf values (the staged-prediction idea of
XGBoost's `iteration_range`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, Callable, Hashable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    CalibratedModel,
    MetacalError,
    MetricSpec,
    ModelKind,
    PreferenceTarget,
    TargetKind,
    unit_rows,
    unstack_pairs,
)
from .objectives import (
    EmptyInput,
    NonFiniteInput,
    ObjectiveKind,
    pairwise_accuracy,
    prepare,
    score_or_worst,
    scored_by,
)

_MIN_HESSIAN = 1e-6
_SLE_FLOOR = -1.0 + 1e-6
_BASE_SCORE = 0.5  # every model's starting prediction


class InvalidTarget(MetacalError):
    """Targets violate the configured loss's domain or shape requirements."""


class TooFewExamples(MetacalError):
    """Not enough examples (or pair groups) for the requested fold count."""


class GbtLoss(Enum):
    SQUARED_ERROR = "squarederror"
    ABSOLUTE_ERROR = "absoluteerror"
    SQUARED_LOG_ERROR = "squaredlogerror"
    PAIRWISE_RANK = "pairwise"


@dataclass(frozen=True)
class GbtConfig:
    n_estimators_low: int = 100
    n_estimators_high: int = 1000
    n_estimators_step: int = 100
    loss: GbtLoss = GbtLoss.SQUARED_ERROR
    max_depth: int = 6
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    gamma: float = 0.0
    cv_folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_estimators_low < 1 or self.n_estimators_low > self.n_estimators_high:
            raise MetacalError("need 1 <= n_estimators_low <= n_estimators_high")
        if self.n_estimators_step < 1:
            raise MetacalError("n_estimators_step must be positive")
        if (self.n_estimators_high - self.n_estimators_low) % self.n_estimators_step:
            raise MetacalError("n_estimators_step must divide high - low")
        if self.max_depth < 1:
            raise MetacalError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise MetacalError("learning_rate must be in (0, 1]")
        if not (0 <= self.reg_lambda < math.inf and 0 <= self.gamma < math.inf):
            raise MetacalError("reg_lambda and gamma must be finite and non-negative")
        if self.cv_folds < 2:
            raise MetacalError("cv_folds must be >= 2")
        if self.seed < 0:
            raise MetacalError("seed must be >= 0")

    def n_estimators_grid(self) -> list[int]:
        return list(
            range(self.n_estimators_low, self.n_estimators_high + 1, self.n_estimators_step)
        )


@dataclass(frozen=True, eq=False)
class Tree:
    """One regression tree as parallel node arrays in pre-order (see the
    module docstring), held as read-only copies and compared by value."""

    feature: np.ndarray
    threshold: np.ndarray
    gain: np.ndarray
    value: np.ndarray
    right: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            arr = np.array(getattr(self, f.name), np.intp if f.name in ("feature", "right") else float)
            arr.flags.writeable = False
            object.__setattr__(self, f.name, arr)
            if arr.ndim != 1 or not arr.size or arr.shape != self.feature.shape:
                raise MetacalError("tree node arrays must be 1-D, non-empty and of one length")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tree) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @classmethod
    def grow(cls, root: Any, visit: Callable[[Any], tuple]) -> "Tree":
        """The tree below `root` in pre-order: `visit(node)` returns `(value,)`
        for a leaf, `(feature, threshold, gain, left, right)` for a split."""
        rows: list[list] = []

        def add(node: Any) -> None:
            found = visit(node)
            if len(found) == 1:
                rows.append([0, 0.0, 0.0, found[0], 0])
                return
            rows.append(row := [*found[:3], 0.0, 0])
            add(found[3])  # the left child is the next row
            row[4] = len(rows)
            add(found[4])

        add(root)
        return cls(*zip(*rows))


def _stacked(trees: Sequence[Tree], name: str) -> np.ndarray:
    """Node array `name` of every tree, concatenated in tree order."""
    return np.concatenate([getattr(t, name) for t in trees] or [np.zeros(0, np.intp)])


@dataclass(frozen=True)
class TreeEnsemble:
    """An additive tree model: prediction = base_score + learning_rate * sum
    of per-tree outputs.  Routing rule at a split: x[feature] < threshold
    goes left."""

    trees: tuple[Tree, ...]
    base_score: float
    learning_rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.base_score):
            raise MetacalError("non-finite base_score")
        if not math.isfinite(self.learning_rate):
            raise MetacalError("non-finite learning_rate")

    def validate(self, n_features: int) -> None:
        """Reject split features outside [0, n_features), a split whose right
        child is not in (i + 1, tree size), and a non-finite threshold, gain
        or leaf value."""
        feature, threshold, gain, value, right = (_stacked(self.trees, f.name) for f in fields(Tree))
        split = right != 0
        bad = feature[split & ((feature < 0) | (feature >= n_features))]
        if bad.size:
            raise MetacalError(
                f"tree references feature index {bad[0]} but only "
                f"{n_features} metrics are retained"
            )
        if not np.isfinite(value[~split]).all():
            raise MetacalError("non-finite leaf value")
        if not (np.isfinite(threshold[split]).all() and np.isfinite(gain[split]).all()):
            raise MetacalError("non-finite split threshold or gain")
        sizes = [t.right.size for t in self.trees]
        node = np.arange(right.size) - np.repeat(np.cumsum(sizes, dtype=np.intp) - sizes, sizes)
        if np.any(split & ((right <= node + 1) | (right >= np.repeat(sizes, sizes)))):
            raise MetacalError("a split's right child must lie after its left child, inside the tree")

    def predict(self, features: np.ndarray) -> np.ndarray:
        return list(self.staged_predict(features))[-1]

    def staged_predict(self, features: np.ndarray) -> Iterator[np.ndarray]:
        """Yield the predictions of the first 0, 1, 2, ... trees, bit for bit
        what `predict` returns for the truncated ensemble.  The yielded
        array is updated in place by the next step.  Non-finite features are
        refused: a NaN compares false at every split, so it would route right."""
        x = _as_features(features)
        out = np.full(x.shape[0], self.base_score, dtype=np.float64)
        yield out
        for tree in self.trees:
            out += self.learning_rate * _predict_tree(tree, x)
            yield out


@dataclass(frozen=True)
class PruneTrace:
    """Record of one pruned `calibrate_gbt` run.

    `performances[i]` is the CV objective on the feature set of round i
    (0-based); `pruned_features[i]` is the feature removed after it.  The
    returned model's `metric_names` are the features of `best_iteration`.
    """

    performances: tuple[float, ...]
    pruned_features: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.performances or len(self.performances) != len(self.pruned_features):
            raise MetacalError("a prune trace needs a round, and one pruned feature per round")

    @property
    def best_iteration(self) -> int:
        """The best-scoring round; the earliest on ties."""
        return int(np.argmax(self.performances))


def _predict_tree(tree: Tree, x: np.ndarray) -> np.ndarray:
    feature, threshold, value, right = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.value, tree.right))
    out = np.empty(x.shape[0], dtype=np.float64)
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        i, idx = stack.pop()
        if right[i] == 0:
            out[idx] = value[i]
            continue
        goes_left = x[idx, feature[i]] < threshold[i]
        stack.append((i + 1, idx[goes_left]))
        stack.append((right[i], idx[~goes_left]))
    return out


def _regression_grad_hess(
    loss: GbtLoss, preds: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if loss is GbtLoss.SQUARED_ERROR:
        return preds - targets, np.ones_like(preds)
    if loss is GbtLoss.ABSOLUTE_ERROR:
        return np.sign(preds - targets), np.ones_like(preds)
    if loss is GbtLoss.SQUARED_LOG_ERROR:
        p = np.maximum(preds, _SLE_FLOOR)
        diff = np.log1p(p) - np.log1p(targets)
        grad = diff / (p + 1.0)
        hess = np.maximum((1.0 - diff) / np.square(p + 1.0), _MIN_HESSIAN)
        return grad, hess
    raise InvalidTarget(f"{loss} is not a regression loss")


def _pairwise_grad_hess(preds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Logistic pairwise loss log(1 + exp(-(s_chosen - s_rejected))) per pair,
    # over predictions in stacked pair order; each row is in exactly one pair.
    chosen, rejected = unstack_pairs(preds)
    sig = 1.0 / (1.0 + np.exp(-(chosen - rejected)))
    pair_hess = np.maximum(sig * (1.0 - sig), _MIN_HESSIAN)
    grad = np.empty_like(preds)
    hess = np.empty_like(preds)
    grad_chosen, grad_rejected = unstack_pairs(grad)
    grad_chosen[:] = sig - 1.0
    grad_rejected[:] = 0.0 - grad_chosen  # -g would turn a 0.0 into -0.0
    for half in unstack_pairs(hess):
        half[:] = pair_hess
    return grad, hess


def _dense_ranks(x: np.ndarray) -> np.ndarray:
    """Each column's dense ranks as a (features, rows) C-contiguous array in
    the smallest unsigned dtype that holds them: equal values share a rank
    (-0.0 and 0.0 too) and ranks keep the order of the values."""
    ranks = np.array([np.unique(col, return_inverse=True)[1] for col in x.T], dtype=np.intp)
    ranks = ranks.reshape(x.shape[1], x.shape[0])
    return np.ascontiguousarray(ranks, dtype=np.min_scalar_type(int(ranks.max(initial=0))))


# A level's nodes are searched in blocks (see `_blocks`): each block is one
# stable argsort of composite (node, rank) keys, which numpy sorts by radix
# below _KEY_LIMIT, and one end-padded array per quantity.  Blocks take nodes
# longest first and hold at most _BLOCK_CELLS cells (rows times features,
# padding included), so a long node is searched alone.  `tools/grow_bench.py`
# times the benchmark's builds at other limits (bench/GROW_*.json).
_KEY_LIMIT = 1 << 16
_BLOCK_CELLS = 1 << 14


class _Level(NamedTuple):
    """One depth of the trees grown by `_grow`, one entry per node.  A split
    node's children are nodes child[j] (left) and child[j] + 1 (right) of
    the next level.  Leaves hold 0 in `feature`, `threshold`, `gain` and
    `child`, splits 0.0 in `value`."""

    split: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    gain: np.ndarray
    value: np.ndarray
    child: np.ndarray


def _node_totals(gh: np.ndarray, rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(2, nodes) totals of grad and hess (the rows of `gh`) over each
    node's rows, rows[starts[j]:][:sizes[j]]: one `.sum()` per node over its
    values in their order, since numpy's pairwise summation rounds by length
    and order.  The values lie in C-contiguous rows, which numpy sums as it
    sums a 1-D array."""
    values = np.take(gh, rows, axis=1)
    ends = (starts + sizes).tolist()
    return np.array([values[:, a:b].sum(axis=1) for a, b in zip(starts.tolist(), ends)]).T


def _gains(
    gl: np.ndarray, hl: np.ndarray, g: np.ndarray, h: np.ndarray, parent: np.ndarray,
    reg_lambda: float, gamma: float,
) -> np.ndarray:
    """The gain of each split, left sums `gl`, `hl` of node totals `g`, `h`
    and parent term `parent`, broadcast together and computed in place in
    `gl`; -inf where a side's hessian plus lambda is not positive."""
    gr = g - gl
    dl = hl + reg_lambda
    dr = h - hl
    dr += reg_lambda
    gl *= gl
    gl /= dl
    gr *= gr
    gr /= dr
    gl += gr
    gl -= parent
    gl *= 0.5
    gl -= gamma
    np.copyto(gl, -np.inf, where=(dl <= 0) | (dr <= 0))
    return gl


def _search(
    x: np.ndarray, ranks: np.ndarray, gh: np.ndarray, rows: np.ndarray, sizes: np.ndarray,
    reg_lambda: float, gamma: float, unit_hess: bool,
) -> tuple[np.ndarray, ...]:
    """The totals and best split of each of a block of nodes: ((2, nodes)
    grad and hess totals, gain, feature, boundary, threshold, the nodes'
    rows sorted on their features, node after node).

    Node j's rows are rows[j, :sizes[j]], then copies of the padding row
    (see `_grow`), whose rank is the largest.  Its totals are one `.sum()`
    over its values, as `_node_totals` takes them.  Each feature sorts
    stably, node by node, in one argsort of the keys `node * n_ranks +
    rank`, so padding sorts after the node's rows.  Running sums along a row
    are sequential, so padding at the end leaves each node's sums bit for
    bit the same.  With `unit_hess` (every hessian 1) the hessian sums are
    the row counts, one vector for every node and feature, and gains are
    computed at every sorted position; otherwise only at the boundaries
    between distinct values, since most positions of tied columns are none.
    Gains are laid out feature by feature, boundaries in ascending order, so
    each node's first maximum is the lowest feature and, within it, the
    lowest threshold; a node with no boundary gets gain -inf.  The left
    child takes sorted positions 0..boundary."""
    nodes, width = rows.shape
    n_features = ranks.shape[0]
    n_ranks = int(ranks[0, -1]) + 1
    offsets = np.arange(0, nodes * n_ranks, n_ranks)
    offsets = offsets.astype(np.min_scalar_type(offsets[-1] + n_ranks - 1))
    keys = (np.take(ranks, rows, axis=1) + offsets[:, None]).reshape(n_features, -1)
    # Positions into the block's rows, node by node, then feature by feature.
    order = np.argsort(keys, axis=1, kind="stable").reshape(n_features, nodes, width).transpose(1, 0, 2)
    keys = keys[np.arange(n_features)[:, None], order]
    candidate = np.zeros(order.shape, dtype=bool)  # boundaries after each sorted position
    candidate[..., :-1] = keys[..., 1:] != keys[..., :-1]
    candidate[np.arange(nodes), :, sizes - 1] = False  # padding, whose keys are all the same, follows
    values = np.take(gh, rows, axis=1)
    totals = np.array([v[:, :n].sum(axis=1) for v, n in zip(values.transpose(1, 0, 2), sizes.tolist())]).T
    h_lambda = totals[1] + reg_lambda
    parent = np.where(h_lambda > 0, totals[0] * totals[0] / h_lambda, 0.0)
    gl = np.cumsum(np.take(values[0], order), axis=-1)
    if unit_hess:  # every cell: the hessian sums are the row counts, exactly
        gains = _gains(gl, np.arange(1.0, width + 1), *(t[:, None, None] for t in (*totals, parent)),
                       reg_lambda, gamma)
        np.copyto(gains, -np.inf, where=~candidate)
    else:  # the boundaries only
        at = np.flatnonzero(candidate)
        per_node = candidate.reshape(nodes, -1).sum(axis=1)
        hl = np.cumsum(np.take(values[1], order), axis=-1).reshape(-1)[at]
        found = _gains(gl.reshape(-1)[at], hl, *(np.repeat(t, per_node) for t in (*totals, parent)),
                       reg_lambda, gamma)
        gains = np.full(candidate.shape, -np.inf)
        gains.reshape(-1)[at] = found
    gains = gains.reshape(nodes, -1)
    best = np.argmax(gains, axis=1)  # the first maximum of each node
    every = np.arange(nodes)
    feature, boundary = np.divmod(best, width)
    chosen = rows.reshape(-1)[order[every, feature]]
    lo = x[chosen[every, boundary], feature]
    hi = x[chosen[every, boundary + 1], feature]
    mid = 0.5 * (lo + hi)
    threshold = np.where((lo < mid) & (mid <= hi), mid, hi)
    chosen = chosen[np.arange(width) < sizes[:, None]]
    return totals, gains[every, best], feature, boundary, threshold, chosen


def _blocks(nodes: np.ndarray, sizes: np.ndarray, n_features: int, per_batch: int) -> list[np.ndarray]:
    """`nodes` (of `sizes` rows) in blocks to search together: longest
    first, so a block's nodes are padded to a similar length, and as many
    as fit in _BLOCK_CELLS cells of its longest node's length times
    `n_features`, at least one.  A block holds at most `per_batch` nodes, so
    its sort keys stay under _KEY_LIMIT."""
    order = np.argsort(-sizes, kind="stable")
    nodes, lengths = nodes[order], sizes[order].tolist()
    blocks, i = [], 0
    while i < nodes.size:
        step = max(1, min(per_batch, _BLOCK_CELLS // (n_features * lengths[i])))
        blocks.append(nodes[i:i + step])
        i += step
    return blocks


def _padded(rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(nodes, longest): each node's rows, rows[starts[j]:][:sizes[j]], then
    copies of the padding row, rows[-1] (see `_grow`)."""
    at = starts[:, None] + np.arange(sizes.max())
    return rows[np.where(at < (starts + sizes)[:, None], at, -1)]


def _grow(
    x: np.ndarray, ranks: np.ndarray, grad: np.ndarray, hess: np.ndarray, sizes: Sequence[int],
    reg_lambda: float, gamma: float, max_depth: int,
) -> tuple[list[_Level], np.ndarray]:
    """Grow one tree per member, all of them a level at a time, and return
    the levels and each row's leaf value.

    Member m owns the next sizes[m] rows of `x` (rows, features), of
    `ranks` (features, rows; see `_dense_ranks`) and of `grad` and `hess`.
    One more row, past the last, pads nodes in blocks (see `_search`): it
    holds the largest rank and no grad or hess.

    A level lays its nodes' rows out node after node; the children of a
    level's splits come in the order of its blocks, as `child` records.  A
    node keeps its rows in its parent's stable order on the winning feature,
    the root's in row order; that order fixes each node's sums and every
    later tie.  A node above `max_depth` with 2 rows or more splits at its
    best positive gain (`_search`); the others take their totals from
    `_node_totals`.  A node's rows get its value once it is a leaf.  The
    threshold is the midpoint of the values either side of the boundary, so
    every left row holds x < threshold and the trees route each row to the
    leaf the builder put it in."""
    n_ranks = int(ranks.max(initial=0)) + 1
    ranks = np.concatenate([ranks, np.full((ranks.shape[0], 1), n_ranks - 1, ranks.dtype)], axis=1)
    gh = np.zeros((2, x.shape[0] + 1))
    gh[0, :-1], gh[1, :-1] = grad, hess
    rows = np.arange(x.shape[0] + 1)  # each level's rows, node after node, then the padding row
    sizes = np.asarray(sizes, dtype=np.intp)
    out = np.empty(x.shape[0], dtype=np.float64)
    levels: list[_Level] = []
    per_batch = max(1, _KEY_LIMIT // n_ranks)
    unit_hess = bool(np.all(hess == 1.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for depth in range(max_depth + 1):
            starts = np.cumsum(sizes) - sizes
            searched = (sizes >= 2) & (depth < max_depth)
            blocks = _blocks(np.flatnonzero(searched), sizes[searched], x.shape[1], per_batch)
            found = [_search(x, ranks, gh, _padded(rows, starts[b], sizes[b]), sizes[b],
                             reg_lambda, gamma, unit_hess) for b in blocks]
            n = sizes.size
            level = _Level(np.zeros(n, bool), np.zeros(n, np.intp), np.zeros(n), np.zeros(n),
                           np.zeros(n), np.zeros(n, np.intp))
            levels.append(level)
            totals = np.empty((2, n))
            rest = np.flatnonzero(~searched)
            if rest.size:
                totals[:, rest] = _node_totals(gh, rows, starts[rest], sizes[rest])
            if found:
                # Per searched node, in block order: totals, gain, feature,
                # boundary, threshold; then the nodes' rows, each sorted on its feature.
                nodes = np.concatenate(blocks)
                node_totals, gain, feature, boundary, threshold, chosen = (
                    np.concatenate(a, axis=-1) for a in zip(*found))
                totals[:, nodes] = node_totals
                split = ~(gain <= 0.0)
                parents = nodes[split]
                level.split[parents] = True
                level.feature[parents] = feature[split]
                level.threshold[parents] = threshold[split]
                level.gain[parents] = gain[split]
                level.child[parents] = 2 * np.arange(parents.size)
            leaf = ~level.split
            h_lambda = totals[1] + reg_lambda
            level.value[leaf] = np.where(h_lambda > 0, -totals[0] / h_lambda, 0.0)[leaf]
            out[rows[:-1][np.repeat(leaf, sizes)]] = np.repeat(level.value[leaf], sizes[leaf])
            if leaf.all():
                break
            rows = np.append(chosen[np.repeat(split, sizes[nodes])], rows[-1])
            left = boundary[split] + 1
            sizes = np.column_stack([left, sizes[parents] - left]).ravel()
    return levels, out


def _trees(levels: Sequence[_Level]) -> list[Tree]:
    """Each member's tree, from its root in level 0, as pre-order node arrays."""
    subtree = []  # per level, the size of each node's subtree
    below = np.zeros(0, dtype=np.intp)
    for level in reversed(levels):
        size = np.ones(level.split.size, dtype=np.intp)
        left = level.child[level.split]
        size[level.split] += below[left] + below[left + 1]
        subtree.append(below := size)
    subtree.reverse()
    sizes = subtree[0]
    first = np.cumsum(sizes) - sizes  # the members' trees, one after another
    right = np.zeros(int(sizes.sum()), dtype=np.intp)
    arrays = [np.zeros(right.size, dtype=np.intp), *(np.zeros(right.size) for _ in range(3))]
    at = first  # each node's index in the pre-order
    for depth, level in enumerate(levels):
        for array, values in zip(arrays, (level.feature, level.threshold, level.gain, level.value)):
            array[at] = values
        if depth + 1 < len(levels):
            left = level.child[level.split]
            below = np.empty(levels[depth + 1].split.size, dtype=np.intp)
            below[left] = at[level.split] + 1
            below[left + 1] = right[at[level.split]] = below[left] + subtree[depth + 1][left]
            at = below
    right[right > 0] -= np.repeat(first, sizes)[right > 0]
    return [Tree(*(a[i:i + n] for a in (*arrays, right))) for i, n in zip(first.tolist(), sizes.tolist())]


def _route(levels: Sequence[_Level], x: np.ndarray, node: np.ndarray) -> np.ndarray:
    """The leaf value of each row of `x` (rows, features) that starts at root
    `node` of `levels`, by the trees' own rule: x < threshold goes left."""
    value = np.empty(x.shape[0], dtype=np.float64)
    at = np.arange(x.shape[0])
    for level in levels:
        split = level.split[node]
        value[at[~split]] = level.value[node[~split]]
        at, node = at[split], node[split]
        node = level.child[node] + ~(x[at, level.feature[node]] < level.threshold[node])
    return value


def _rounds(
    x: np.ndarray, ranks: np.ndarray, z: np.ndarray | None, config: GbtConfig, sizes: Sequence[int]
) -> Iterator[list[_Level]]:
    """Boost every member in lockstep, forever, and yield each round's levels.

    Members are consecutive blocks of rows as `_grow` takes them; `z` holds
    the regression targets of the rows, or is None for PAIRWISE_RANK, whose
    pairs are the stacked rows of each member.  Gradients and prediction
    updates are elementwise, so each member's arithmetic is what it would be
    boosted alone."""
    preds = np.full(x.shape[0], _BASE_SCORE, dtype=np.float64)
    while True:
        if z is None:
            grad, hess = _pairwise_grad_hess(preds)
        else:
            grad, hess = _regression_grad_hess(config.loss, preds, z)
        levels, tree_preds = _grow(
            x, ranks, grad, hess, sizes, config.reg_lambda, config.gamma, config.max_depth)
        yield levels
        preds += config.learning_rate * tree_preds
        if config.loss is GbtLoss.SQUARED_LOG_ERROR:
            np.maximum(preds, _SLE_FLOOR, out=preds)


def _as_features(features: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if not np.isfinite(x).all():
        raise NonFiniteInput("features must hold finite values")
    return x


def _as_target(target: PreferenceTarget | np.ndarray) -> PreferenceTarget:
    """`target` itself, or a 1-D array read as a pointwise z."""
    if isinstance(target, PreferenceTarget):
        return target
    z = np.asarray(target, dtype=np.float64)
    if not np.isfinite(z).all():
        raise NonFiniteInput("targets must hold finite values")
    return PreferenceTarget.from_pointwise(z)


def _check_fit(
    shape: tuple[int, int], target: PreferenceTarget, config: GbtConfig, n_estimators: int
) -> None:
    """Refuse to boost `n_estimators` trees on features of `shape` against
    `target` (see `gbt_train`)."""
    if shape[0] == 0 or shape[1] == 0:
        raise EmptyInput("no training data")
    if shape[0] < 2:
        raise EmptyInput("need at least 2 training examples")
    if n_estimators < 1:
        raise MetacalError("n_estimators must be >= 1")
    pairwise = target.kind is TargetKind.PAIRWISE
    if pairwise != (config.loss is GbtLoss.PAIRWISE_RANK):
        raise InvalidTarget(f"the {config.loss.value} loss cannot fit a {target.kind.value} target")
    if target.n_units * target.rows_per_unit != shape[0]:
        raise InvalidTarget(
            f"{target.n_units} {target.kind.value} judgments for {shape[0]} feature rows")
    if config.loss is GbtLoss.SQUARED_LOG_ERROR and np.any(target.z <= -1.0):
        raise InvalidTarget("squared log error requires targets > -1")


def gbt_train(
    features: np.ndarray,
    target: PreferenceTarget | np.ndarray,
    config: GbtConfig,
    n_estimators: int,
) -> TreeEnsemble:
    """Boost `n_estimators` trees against the configured loss.

    PAIRWISE_RANK takes a pairwise target and the regression losses a
    pointwise one (see the module docstring).  Squared-log-error requires
    targets > -1 and clamps intermediate predictions to stay above -1 as
    well.
    """
    x = _as_features(features)
    target = _as_target(target)
    _check_fit(x.shape, target, config, n_estimators)
    rounds = _rounds(x, _dense_ranks(x), target.z, config, [x.shape[0]])
    return TreeEnsemble(
        trees=tuple(_trees(levels)[0] for levels in itertools.islice(rounds, n_estimators)),
        base_score=_BASE_SCORE,
        learning_rate=config.learning_rate,
    )


def feature_importance(model: TreeEnsemble, n_features: int) -> np.ndarray:
    """Total split gain per feature index; never-split features get 0.

    Gains are added in node order, tree by tree, each tree in pre-order
    (node, left subtree, right subtree).  `n_features` must exceed every
    split's feature index."""
    feature, gain, right = (_stacked(model.trees, name) for name in ("feature", "gain", "right"))
    split = right != 0
    needed = int(feature[split].max(initial=-1)) + 1
    if n_features < needed:
        raise MetacalError(f"n_features must be at least {needed} for this model, got {n_features}")
    return np.bincount(feature[split], weights=gain[split], minlength=n_features)


def _group_folds(
    groups: Sequence[Hashable], folds: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Fold assignment over units that keeps each group's units together:
    the sorted units of each chunk of a shuffle of the distinct groups."""
    unique = list(dict.fromkeys(groups))
    if folds > len(unique):
        raise TooFewExamples(f"{folds} folds over {len(unique)} unit groups")
    order = rng.permutation(len(unique))
    fold_of_group: dict[Hashable, int] = {}
    for fold_id, chunk in enumerate(np.array_split(order, folds)):
        for gi in chunk:
            fold_of_group[unique[int(gi)]] = fold_id
    assignments = np.asarray([fold_of_group[g] for g in groups])
    return [np.flatnonzero(assignments == f) for f in range(folds)]


def _held_out_scorer(
    objective: ObjectiveKind, held: PreferenceTarget
) -> Callable[[np.ndarray], float]:
    """Pairwise accuracy on a pairwise target, else `objective` against z,
    prepared once for every ensemble size (-1 when degenerate)."""
    if held.kind is TargetKind.PAIRWISE:
        return lambda preds: pairwise_accuracy(*unstack_pairs(preds))
    z = prepare(objective, held.z)
    return lambda preds: score_or_worst(objective, preds, z)


def _cv_curve(
    x: np.ndarray,
    ranks: np.ndarray,
    target: PreferenceTarget,
    objective: ObjectiveKind,
    config: GbtConfig,
    sizes: Sequence[int],
) -> list[float]:
    """Mean held-out objective at each ensemble size in `sizes`.

    Folds shuffle the target's units; a pair group never straddles two
    folds, and every pointwise unit is its own group.  Each fold's model
    trains `max(sizes)` trees on the rows of the other folds' units, and all
    fold models grow in lockstep, as the members of one boosting run.  Its
    held-out rows are scored after the first n trees for every n in `sizes`:
    boosting is deterministic, so those are exactly the predictions of an
    n-tree model.  A fold whose held-out objective is degenerate (constant
    predictions) scores -1.  `ranks` is `_dense_ranks(x)`: a fold's rows
    sort on them as on their own ranks.
    """
    wanted = set(sizes)
    n_trees = max(wanted)
    units = np.arange(target.n_units)
    groups = [p.group_id for p in target.pairwise] if target.pairwise else range(target.n_units)
    train, held, scorers = [], [], []
    for hold in _group_folds(groups, config.cv_folds, np.random.default_rng(config.seed)):
        keep = np.setdiff1d(units, hold)
        train.append(unit_rows(target, keep))
        _check_fit((train[-1].size, x.shape[1]), target.take_units(keep), config, n_trees)
        held.append(unit_rows(target, hold))
        scorers.append(_held_out_scorer(objective, target.take_units(hold)))
    rows = np.concatenate(train)
    z = None if target.z is None else target.z[rows]
    rounds = _rounds(x[rows], ranks[:, rows], z, config, [r.size for r in train])
    held_x = x[np.concatenate(held)]
    root = np.repeat(np.arange(len(held)), [r.size for r in held])
    ends = np.cumsum([r.size for r in held]).tolist()
    preds = np.full(held_x.shape[0], _BASE_SCORE, dtype=np.float64)
    fold_scores: dict[int, list[float]] = {}
    for n, levels in enumerate(itertools.islice(rounds, n_trees), start=1):
        preds += config.learning_rate * _route(levels, held_x, root)
        if n in wanted:
            fold_scores[n] = [
                score(preds[end - r.size:end]) for score, r, end in zip(scorers, held, ends)]
    return [float(np.mean(fold_scores[n])) for n in sizes]


def cross_validate(
    features: np.ndarray,
    target: PreferenceTarget | np.ndarray,
    objective: ObjectiveKind,
    config: GbtConfig,
    n_estimators: int,
) -> float:
    """Mean held-out objective of `n_estimators`-tree models over seeded
    k-fold splits (see `_cv_curve`)."""
    x, target = _as_features(features), _as_target(target)
    return _cv_curve(x, _dense_ranks(x), target, objective, config, [n_estimators])[0]


def _best_size(
    x: np.ndarray, ranks: np.ndarray, target: PreferenceTarget, objective: ObjectiveKind,
    config: GbtConfig,
) -> tuple[int, float]:
    grid = config.n_estimators_grid()
    curve = _cv_curve(x, ranks, target, objective, config, grid)
    best = int(np.argmax(curve))  # the first maximum
    return grid[best], curve[best]


def search_n_estimators(
    features: np.ndarray,
    target: PreferenceTarget | np.ndarray,
    objective: ObjectiveKind,
    config: GbtConfig,
) -> tuple[int, float]:
    """The grid's ensemble size with the best mean CV objective, and that
    objective; ties keep the smaller, cheaper model."""
    x = _as_features(features)
    return _best_size(x, _dense_ranks(x), _as_target(target), objective, config)


def calibrate_gbt(
    features: np.ndarray,
    target: PreferenceTarget | np.ndarray,
    objective: ObjectiveKind,
    config: GbtConfig,
    specs: Sequence[MetricSpec],
    prune_iterations: int | None = None,
) -> tuple[CalibratedModel, PruneTrace | None]:
    """Train a boosted-tree calibrated model on normalized metric features,
    with `prune_iterations` rounds of iterative feature pruning (one round
    when it is None).

    Each round searches the ensemble size with CV on the surviving features,
    records that CV objective, trains that size on all data to measure
    total-gain importance, and removes the least-important feature.  The
    full-data model of the best-scoring round (the earliest on ties) is the
    returned model; the prune trace is returned only for a pruned run.
    """
    x = _as_features(features)
    target = _as_target(target)
    specs = tuple(specs)
    n_features = x.shape[1]
    if len(specs) != n_features:
        raise MetacalError(f"{len(specs)} specs for {n_features} feature columns")
    rounds = 1 if prune_iterations is None else prune_iterations
    if not 1 <= rounds <= n_features:
        raise MetacalError(f"prune_iterations must be in [1, {n_features}], got {prune_iterations}")

    ranks = _dense_ranks(x)
    active = list(range(n_features))
    performances: list[float] = []
    pruned: list[str] = []
    for _ in range(rounds):
        round_specs, round_x = tuple(specs[i] for i in active), x[:, active]
        n_trees, value = _best_size(round_x, ranks[active], target, objective, config)
        ensemble = gbt_train(round_x, target, config, n_trees)
        if not performances or value > max(performances):
            best, retained_specs = ensemble, round_specs
        performances.append(value)
        least = int(np.argmin(feature_importance(ensemble, len(active))))  # ties: the earliest column
        pruned.append(round_specs[least].name)
        del active[least]

    model = CalibratedModel(
        kind=ModelKind.GBT,
        metric_specs=retained_specs,
        objective_used=scored_by(objective, target).value,
        seed=config.seed,
        trees=best,
    )
    trace = PruneTrace(tuple(performances), tuple(pruned))
    return model, (None if prune_iterations is None else trace)
