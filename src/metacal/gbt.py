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

Splits sort dense-rank keys, not values: each training call ranks every
feature column once (equal values, -0.0 and 0.0 among them, share a rank)
in the smallest unsigned dtype that holds the ranks, and numpy sorts 8- and
16-bit keys by radix.  Ranks keep the order of the values, so a stable sort
of the keys is the permutation a stable sort of the values gives, and every
sum, gain, threshold and child is bit for bit the same.  Values are read
only for the two sides of the chosen boundary.

A `Tree` is five parallel node arrays in pre-order: `feature`, `threshold`,
`gain`, `value` and `right`.  A split's left child is the next node and its
right child is node `right[i]`, with i + 1 < right[i] < tree size; the root
is never a right child, so `right[i] == 0` marks a leaf.  Leaves hold 0 in
`feature`, `threshold` and `gain`, splits 0 in `value`.  The trainer and the
model-file reader both build trees through `Tree.grow`.

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
per fold, adding held-out predictions tree by tree (the staged-prediction
idea of XGBoost's `iteration_range`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, Callable, Hashable, Iterator, Sequence

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
    ranks = np.stack([np.unique(col, return_inverse=True)[1] for col in x.T])
    return np.ascontiguousarray(ranks, dtype=np.min_scalar_type(int(ranks.max())))


def _best_split(
    x: np.ndarray, ranks: np.ndarray, grad: np.ndarray, hess: np.ndarray, idx: np.ndarray,
    g_total: float, h_total: float, reg_lambda: float, gamma: float,
) -> tuple[float, int, float, np.ndarray, np.ndarray] | None:
    """Best (gain, feature, threshold, left rows, right rows) over every
    boundary between distinct values of every feature, or None when all
    features are constant on `idx`.  `ranks` is `_dense_ranks(x)`, and
    `g_total`, `h_total` are the sums of `grad[idx]` and `hess[idx]`.

    All features are searched at once: one stable sort of each column's
    rank keys (see the module docstring) and one running sum along each
    sorted column, the same additions in the same order as a scan of one
    feature at a time.  Gains are laid out feature
    by feature, boundaries in ascending order, so the first maximum is the
    lowest feature and, within it, the lowest threshold."""
    g = grad[idx]
    h = hess[idx]
    parent = g_total * g_total / (h_total + reg_lambda) if h_total + reg_lambda > 0 else 0.0
    keys = ranks[:, idx]
    order = np.argsort(keys, axis=1, kind="stable")
    rs = np.take_along_axis(keys, order, axis=1)
    boundary = rs[:, 1:] != rs[:, :-1]
    gl = np.cumsum(g[order], axis=1)[:, :-1][boundary]
    if gl.size == 0:
        return None
    hl = np.cumsum(h[order], axis=1)[:, :-1][boundary]
    gr = g_total - gl
    hr = h_total - hl
    dl = hl + reg_lambda
    dr = hr + reg_lambda
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 0.5 * (gl * gl / dl + gr * gr / dr - parent) - gamma
    gains[(dl <= 0) | (dr <= 0)] = -np.inf
    best = int(np.argmax(gains))
    feature, b = divmod(int(np.flatnonzero(boundary)[best]), boundary.shape[1])
    left = idx[order[feature, : b + 1]]
    right = idx[order[feature, b + 1 :]]
    lo, hi = float(x[left[-1], feature]), float(x[right[0], feature])
    threshold = 0.5 * (lo + hi)
    if not lo < threshold <= hi:
        threshold = hi
    return float(gains[best]), feature, threshold, left, right


def _build_tree(
    x: np.ndarray, ranks: np.ndarray, grad: np.ndarray, hess: np.ndarray,
    reg_lambda: float, gamma: float, max_depth: int,
) -> tuple[Tree, np.ndarray]:
    """The tree, and its output on each training row: the builder routes
    every row to its leaf (x <= lo, hence x < threshold, goes left), so the
    rows need no second walk of the finished tree.  `ranks` is
    `_dense_ranks(x)`."""
    out = np.empty(x.shape[0], dtype=np.float64)

    def visit(node: tuple[np.ndarray, int]) -> tuple:
        idx, depth = node
        g = float(grad[idx].sum())
        h = float(hess[idx].sum())
        found = None
        if depth < max_depth and idx.size >= 2:
            found = _best_split(x, ranks, grad, hess, idx, g, h, reg_lambda, gamma)
        if found is None or found[0] <= 0.0:
            value = -g / (h + reg_lambda) if h + reg_lambda > 0 else 0.0
            out[idx] = value
            return (value,)
        gain, feature, threshold, left_idx, right_idx = found
        return feature, threshold, gain, (left_idx, depth + 1), (right_idx, depth + 1)

    return Tree.grow((np.arange(x.shape[0]), 0), visit), out


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
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise EmptyInput("no training data")
    if x.shape[0] < 2:
        raise EmptyInput("need at least 2 training examples")
    if n_estimators < 1:
        raise MetacalError("n_estimators must be >= 1")
    pairwise = target.kind is TargetKind.PAIRWISE
    if pairwise != (config.loss is GbtLoss.PAIRWISE_RANK):
        raise InvalidTarget(f"the {config.loss.value} loss cannot fit a {target.kind.value} target")
    if target.n_units * target.rows_per_unit != x.shape[0]:
        raise InvalidTarget(
            f"{target.n_units} {target.kind.value} judgments for {x.shape[0]} feature rows")
    if config.loss is GbtLoss.SQUARED_LOG_ERROR and np.any(target.z <= -1.0):
        raise InvalidTarget("squared log error requires targets > -1")

    ranks = _dense_ranks(x)
    preds = np.full(x.shape[0], _BASE_SCORE, dtype=np.float64)
    trees: list[Tree] = []
    for _ in range(n_estimators):
        if pairwise:
            grad, hess = _pairwise_grad_hess(preds)
        else:
            grad, hess = _regression_grad_hess(config.loss, preds, target.z)
        tree, tree_preds = _build_tree(
            x, ranks, grad, hess, config.reg_lambda, config.gamma, config.max_depth)
        trees.append(tree)
        preds += config.learning_rate * tree_preds
        if config.loss is GbtLoss.SQUARED_LOG_ERROR:
            np.maximum(preds, _SLE_FLOOR, out=preds)
    return TreeEnsemble(
        trees=tuple(trees),
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
    target: PreferenceTarget,
    objective: ObjectiveKind,
    config: GbtConfig,
    sizes: Sequence[int],
) -> list[float]:
    """Mean held-out objective at each ensemble size in `sizes`.

    Folds shuffle the target's units; a pair group never straddles two
    folds, and every pointwise unit is its own group.  Each fold trains
    `max(sizes)` trees once on the rows of the other folds' units and scores
    its held-out rows after the first n trees for every n in `sizes`:
    boosting is deterministic, so those are exactly the predictions of an
    n-tree model.  A fold whose held-out objective is degenerate (constant
    predictions) scores -1.
    """
    wanted = set(sizes)
    n_trees = max(wanted)
    units = np.arange(target.n_units)
    groups = [p.group_id for p in target.pairwise] if target.pairwise else range(target.n_units)
    fold_scores: list[dict[int, float]] = []
    for hold in _group_folds(groups, config.cv_folds, np.random.default_rng(config.seed)):
        keep = np.setdiff1d(units, hold)
        model = gbt_train(x[unit_rows(target, keep)], target.take_units(keep), config, n_trees)
        score = _held_out_scorer(objective, target.take_units(hold))
        fold_scores.append({
            n: score(preds)
            for n, preds in enumerate(model.staged_predict(x[unit_rows(target, hold)]))
            if n in wanted
        })
    return [float(np.mean([scores[n] for scores in fold_scores])) for n in sizes]


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
    return _cv_curve(x, target, objective, config, [n_estimators])[0]


def search_n_estimators(
    features: np.ndarray,
    target: PreferenceTarget | np.ndarray,
    objective: ObjectiveKind,
    config: GbtConfig,
) -> tuple[int, float]:
    """The grid's ensemble size with the best mean CV objective, and that
    objective; ties keep the smaller, cheaper model."""
    grid = config.n_estimators_grid()
    curve = _cv_curve(_as_features(features), _as_target(target), objective, config, grid)
    best = int(np.argmax(curve))  # the first maximum
    return grid[best], curve[best]


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

    active = list(range(n_features))
    performances: list[float] = []
    pruned: list[str] = []
    for _ in range(rounds):
        round_specs, round_x = tuple(specs[i] for i in active), x[:, active]
        n_trees, value = search_n_estimators(round_x, target, objective, config)
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
