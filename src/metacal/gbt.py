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

On top of the trainer sit k-fold cross-validation, a grid search over the
ensemble size, and iterative pruning: repeatedly drop the feature with the
least total-gain importance, track CV performance, and keep the model of
the best-scoring feature subset.  Boosting has no randomness, so an n-tree
model is exactly the first n trees of a longer run: the whole size grid is
scored from one boosting run per fold, adding held-out predictions tree by
tree (the staged-prediction idea of XGBoost's `iteration_range`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence, Union

import numpy as np

from .core import (
    CalibratedModel,
    MetacalError,
    MetricSpec,
    ModelKind,
    unstack_pairs,
)
from .objectives import (
    EmptyInput,
    ObjectiveKind,
    pairwise_accuracy,
    score_or_worst,
)

_MIN_HESSIAN = 1e-6
_SLE_FLOOR = -1.0 + 1e-6


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
    base_score: float = 0.5

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
        if self.reg_lambda < 0 or self.gamma < 0:
            raise MetacalError("reg_lambda and gamma must be non-negative")
        if self.cv_folds < 2:
            raise MetacalError("cv_folds must be >= 2")

    def n_estimators_grid(self) -> list[int]:
        return list(
            range(self.n_estimators_low, self.n_estimators_high + 1, self.n_estimators_step)
        )


@dataclass(frozen=True)
class Leaf:
    value: float


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float
    left: "Node"
    right: "Node"


Node = Union[Leaf, Split]


@dataclass(frozen=True)
class TreeEnsemble:
    """An additive tree model: prediction = base_score + learning_rate * sum
    of per-tree outputs.  Routing rule at a split: x[feature] < threshold
    goes left."""

    trees: tuple[Node, ...]
    base_score: float
    learning_rate: float

    def validate(self, n_features: int) -> None:
        """Reject split features outside [0, n_features) and a non-finite
        base score, learning rate, threshold, gain or leaf value."""
        if not math.isfinite(self.base_score):
            raise MetacalError("non-finite base_score")
        if not math.isfinite(self.learning_rate):
            raise MetacalError("non-finite learning_rate")
        stack = list(self.trees)
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                if not math.isfinite(node.value):
                    raise MetacalError("non-finite leaf value")
                continue
            if not 0 <= node.feature < n_features:
                raise MetacalError(
                    f"tree references feature index {node.feature} but only "
                    f"{n_features} metrics are retained"
                )
            if not (math.isfinite(node.threshold) and math.isfinite(node.gain)):
                raise MetacalError("non-finite split threshold or gain")
            stack.append(node.left)
            stack.append(node.right)

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        out = np.full(x.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += self.learning_rate * _predict_tree(tree, x)
        return out

    def staged_predict(self, features: np.ndarray) -> Iterator[np.ndarray]:
        """Yield the predictions of the first 1, 2, ... trees, bit for bit
        what `predict` returns for the truncated ensemble.  The yielded
        array is updated in place by the next step."""
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        out = np.full(x.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += self.learning_rate * _predict_tree(tree, x)
            yield out


@dataclass(frozen=True)
class PruneTrace:
    """Record of one iterative-pruning run.

    `performances[i]` is the CV objective on the feature set of iteration i
    (0-based); `pruned_features[i]` is the feature removed after it.
    `best_features` is the full set minus everything pruned before
    `best_iteration`.
    """

    performances: tuple[float, ...]
    pruned_features: tuple[str, ...]
    best_iteration: int
    best_features: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.performances) != len(self.pruned_features):
            raise MetacalError("prune trace lengths disagree")
        if not 0 <= self.best_iteration < len(self.performances):
            raise MetacalError("best_iteration outside recorded trace")


@dataclass(frozen=True)
class RankingPairs:
    """Preference pairs as row indices into a shared feature matrix."""

    chosen: np.ndarray
    rejected: np.ndarray
    groups: tuple[str, ...]

    def __post_init__(self) -> None:
        c = np.asarray(self.chosen, dtype=np.intp)
        r = np.asarray(self.rejected, dtype=np.intp)
        if c.size != r.size or c.size != len(self.groups):
            raise MetacalError("ranking pair arrays must have equal length")
        object.__setattr__(self, "chosen", c)
        object.__setattr__(self, "rejected", r)

    @property
    def n_pairs(self) -> int:
        return int(self.chosen.size)

    @classmethod
    def stacked(cls, n_pairs: int, groups: Sequence[str]) -> "RankingPairs":
        """Pairs over the rows of a stacked pair matrix (see `metacal.core`)."""
        return cls(*unstack_pairs(np.arange(2 * n_pairs)), tuple(groups))


Target = Union[np.ndarray, RankingPairs]


def _predict_tree(node: Node, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0], dtype=np.float64)
    stack = [(node, np.arange(x.shape[0]))]
    while stack:
        current, idx = stack.pop()
        if isinstance(current, Leaf):
            out[idx] = current.value
            continue
        goes_left = x[idx, current.feature] < current.threshold
        stack.append((current.left, idx[goes_left]))
        stack.append((current.right, idx[~goes_left]))
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


def _pairwise_grad_hess(
    pairs: RankingPairs, preds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Logistic pairwise loss log(1 + exp(-(s_chosen - s_rejected))) per pair.
    margin = preds[pairs.chosen] - preds[pairs.rejected]
    sig = 1.0 / (1.0 + np.exp(-margin))
    pair_grad = sig - 1.0
    pair_hess = np.maximum(sig * (1.0 - sig), _MIN_HESSIAN)
    grad = np.zeros_like(preds)
    hess = np.zeros_like(preds)
    np.add.at(grad, pairs.chosen, pair_grad)
    np.add.at(grad, pairs.rejected, -pair_grad)
    np.add.at(hess, pairs.chosen, pair_hess)
    np.add.at(hess, pairs.rejected, pair_hess)
    return grad, hess


def _best_split(
    x: np.ndarray, grad: np.ndarray, hess: np.ndarray, idx: np.ndarray,
    reg_lambda: float, gamma: float,
) -> tuple[float, int, float, np.ndarray, np.ndarray] | None:
    """Best (gain, feature, threshold, left rows, right rows) over every
    boundary between distinct values of every feature, or None when all
    features are constant on `idx`.

    All features are searched at once: one stable sort per column and one
    running sum along each sorted column, the same additions in the same
    order as a scan of one feature at a time.  Gains are laid out feature
    by feature, boundaries in ascending order, so the first maximum is the
    lowest feature and, within it, the lowest threshold."""
    g = grad[idx]
    h = hess[idx]
    g_total = float(g.sum())
    h_total = float(h.sum())
    parent = g_total * g_total / (h_total + reg_lambda) if h_total + reg_lambda > 0 else 0.0
    cols = x[idx].T
    order = np.argsort(cols, axis=1, kind="stable")
    xs = np.take_along_axis(cols, order, axis=1)
    boundary = xs[:, 1:] > xs[:, :-1]
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
    lo, hi = float(xs[feature, b]), float(xs[feature, b + 1])
    threshold = 0.5 * (lo + hi)
    if not lo < threshold <= hi:
        threshold = hi
    left = idx[order[feature, : b + 1]]
    right = idx[order[feature, b + 1 :]]
    return float(gains[best]), feature, threshold, left, right


def _build_tree(
    x: np.ndarray, grad: np.ndarray, hess: np.ndarray,
    reg_lambda: float, gamma: float, max_depth: int,
) -> Node:
    def build(idx: np.ndarray, depth: int) -> Node:
        g = float(grad[idx].sum())
        h = float(hess[idx].sum())
        leaf_value = -g / (h + reg_lambda) if h + reg_lambda > 0 else 0.0
        if depth >= max_depth or idx.size < 2:
            return Leaf(leaf_value)
        found = _best_split(x, grad, hess, idx, reg_lambda, gamma)
        if found is None or found[0] <= 0.0:
            return Leaf(leaf_value)
        gain, feature, threshold, left_idx, right_idx = found
        return Split(
            feature=feature,
            threshold=threshold,
            gain=gain,
            left=build(left_idx, depth + 1),
            right=build(right_idx, depth + 1),
        )

    return build(np.arange(x.shape[0]), 0)


def gbt_train(
    features: np.ndarray,
    target: Target,
    config: GbtConfig,
    n_estimators: int,
) -> TreeEnsemble:
    """Boost `n_estimators` trees against the configured loss.

    `target` is a 1-D array for the regression losses or `RankingPairs`
    (indices into `features` rows) for PAIRWISE_RANK.  Squared-log-error
    requires targets > -1 and clamps intermediate predictions to stay above
    -1 as well.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise EmptyInput("no training data")
    if x.shape[0] < 2:
        raise EmptyInput("need at least 2 training examples")
    if n_estimators < 1:
        raise MetacalError("n_estimators must be >= 1")

    if isinstance(target, RankingPairs):
        if config.loss is not GbtLoss.PAIRWISE_RANK:
            raise InvalidTarget("ranking pairs require the PAIRWISE_RANK loss")
        if target.n_pairs == 0:
            raise EmptyInput("no preference pairs")
        hi = int(max(target.chosen.max(), target.rejected.max()))
        if hi >= x.shape[0]:
            raise InvalidTarget(f"pair index {hi} outside {x.shape[0]} feature rows")
        y = None
    else:
        if config.loss is GbtLoss.PAIRWISE_RANK:
            raise InvalidTarget("PAIRWISE_RANK loss requires ranking pairs")
        y = np.asarray(target, dtype=np.float64).ravel()
        if y.size != x.shape[0]:
            raise InvalidTarget(f"{y.size} targets for {x.shape[0]} examples")
        if config.loss is GbtLoss.SQUARED_LOG_ERROR and np.any(y <= -1.0):
            raise InvalidTarget("squared log error requires targets > -1")

    preds = np.full(x.shape[0], config.base_score, dtype=np.float64)
    trees: list[Node] = []
    for _ in range(n_estimators):
        if y is not None:
            grad, hess = _regression_grad_hess(config.loss, preds, y)
        else:
            grad, hess = _pairwise_grad_hess(target, preds)
        tree = _build_tree(x, grad, hess, config.reg_lambda, config.gamma, config.max_depth)
        trees.append(tree)
        preds += config.learning_rate * _predict_tree(tree, x)
        if config.loss is GbtLoss.SQUARED_LOG_ERROR:
            np.maximum(preds, _SLE_FLOOR, out=preds)
    return TreeEnsemble(
        trees=tuple(trees),
        base_score=config.base_score,
        learning_rate=config.learning_rate,
    )


def feature_importance(model: TreeEnsemble, n_features: int) -> np.ndarray:
    """Total split gain per feature index; never-split features get 0.

    Gains are added tree by tree in pre-order (node, left, right), without
    recursion, so arbitrarily deep loaded trees are safe."""
    totals = [0.0] * n_features
    for tree in model.trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, Split):
                totals[node.feature] += node.gain
                stack.append(node.right)
                stack.append(node.left)
    return np.asarray(totals)


def _pointwise_folds(
    n: int, folds: int, rng: np.random.Generator
) -> list[np.ndarray]:
    if folds > n:
        raise TooFewExamples(f"{folds} folds over {n} examples")
    return [np.sort(part) for part in np.array_split(rng.permutation(n), folds)]


def _group_folds(
    groups: Sequence[str], folds: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Fold assignment over pair indices that keeps each group's pairs together."""
    unique: list[str] = []
    seen: set[str] = set()
    for g in groups:
        if g not in seen:
            seen.add(g)
            unique.append(g)
    if folds > len(unique):
        raise TooFewExamples(f"{folds} folds over {len(unique)} pair groups")
    order = rng.permutation(len(unique))
    fold_of_group: dict[str, int] = {}
    for fold_id, chunk in enumerate(np.array_split(order, folds)):
        for gi in chunk:
            fold_of_group[unique[int(gi)]] = fold_id
    assignments = np.asarray([fold_of_group[g] for g in groups])
    return [np.flatnonzero(assignments == f) for f in range(folds)]


def _subset_pairs(
    features: np.ndarray, pairs: RankingPairs, keep: np.ndarray
) -> tuple[np.ndarray, RankingPairs]:
    """Restrict to the given pair indices, compacting member rows."""
    rows = np.unique(np.concatenate([pairs.chosen[keep], pairs.rejected[keep]]))
    chosen = np.searchsorted(rows, pairs.chosen[keep])
    rejected = np.searchsorted(rows, pairs.rejected[keep])
    groups = tuple(pairs.groups[int(i)] for i in keep)
    return features[rows], RankingPairs(chosen, rejected, groups)


def _cv_curve(
    features: np.ndarray,
    target: Target,
    objective: ObjectiveKind,
    config: GbtConfig,
    sizes: Sequence[int],
) -> list[float]:
    """Mean held-out objective at each ensemble size in `sizes`.

    Each fold trains `max(sizes)` trees once and scores its held-out rows
    after the first n trees for every n in `sizes`: boosting is
    deterministic, so those are exactly the predictions of an n-tree model.
    Pointwise folds shuffle example indices; pairwise folds shuffle pair
    groups so no group straddles a fold.  A fold whose held-out objective is
    degenerate (constant predictions) scores -1.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    wanted = set(sizes)
    n_trees = max(wanted)
    rng = np.random.default_rng(config.seed)
    fold_scores: list[dict[int, float]] = []
    if isinstance(target, RankingPairs):
        folds = _group_folds(target.groups, config.cv_folds, rng)
        for hold in folds:
            keep = np.setdiff1d(np.arange(target.n_pairs), hold)
            train_x, train_pairs = _subset_pairs(x, target, keep)
            model = gbt_train(train_x, train_pairs, config, n_trees)
            n_held = hold.size
            held_x = x[np.concatenate([target.chosen[hold], target.rejected[hold]])]
            fold_scores.append({
                n: pairwise_accuracy(preds[:n_held], preds[n_held:])
                for n, preds in enumerate(model.staged_predict(held_x), start=1)
                if n in wanted
            })
    else:
        y = np.asarray(target, dtype=np.float64).ravel()
        folds = _pointwise_folds(x.shape[0], config.cv_folds, rng)
        for hold in folds:
            keep = np.setdiff1d(np.arange(x.shape[0]), hold)
            model = gbt_train(x[keep], y[keep], config, n_trees)
            fold_scores.append({
                n: score_or_worst(objective, preds, y[hold])
                for n, preds in enumerate(model.staged_predict(x[hold]), start=1)
                if n in wanted
            })
    return [float(np.mean([scores[n] for scores in fold_scores])) for n in sizes]


def cross_validate(
    features: np.ndarray,
    target: Target,
    objective: ObjectiveKind,
    config: GbtConfig,
    n_estimators: int,
) -> float:
    """Mean held-out objective of `n_estimators`-tree models over seeded
    k-fold splits (see `_cv_curve`)."""
    return _cv_curve(features, target, objective, config, [n_estimators])[0]


def _search_n_estimators_scored(
    features: np.ndarray,
    target: Target,
    objective: ObjectiveKind,
    config: GbtConfig,
) -> tuple[int, float]:
    grid = config.n_estimators_grid()
    curve = _cv_curve(features, target, objective, config, grid)
    best_n: int | None = None
    best_value = -math.inf
    for n, value in zip(grid, curve):
        if value > best_value:  # strict: ties keep the smaller, cheaper model
            best_value = value
            best_n = n
    assert best_n is not None
    return best_n, best_value


def search_n_estimators(
    features: np.ndarray,
    target: Target,
    objective: ObjectiveKind,
    config: GbtConfig,
) -> int:
    """Grid-search the ensemble size on CV objective; ties pick the smallest."""
    return _search_n_estimators_scored(features, target, objective, config)[0]


def _fit_searched(
    features: np.ndarray,
    target: Target,
    objective: ObjectiveKind,
    config: GbtConfig,
) -> tuple[TreeEnsemble, float]:
    """Search the ensemble size by CV, then train that size on all data.
    Returns the model and its CV objective."""
    best_n, best_value = _search_n_estimators_scored(features, target, objective, config)
    return gbt_train(features, target, config, best_n), best_value


def _calibrated_model(
    ensemble: TreeEnsemble,
    specs: Sequence[MetricSpec],
    target: Target,
    objective: ObjectiveKind,
    config: GbtConfig,
) -> CalibratedModel:
    return CalibratedModel(
        kind=ModelKind.GBT,
        metric_specs=tuple(specs),
        objective_used=(
            ObjectiveKind.PAIRWISE_ACCURACY.value
            if isinstance(target, RankingPairs)
            else objective.value
        ),
        seed=config.seed,
        trees=ensemble,
    )


def iterative_prune(
    features: np.ndarray,
    target: Target,
    objective: ObjectiveKind,
    config: GbtConfig,
    k: int,
    specs: Sequence[MetricSpec],
) -> tuple[CalibratedModel, PruneTrace]:
    """Iterative feature pruning (k rounds):

    each round searches the ensemble size with CV on the surviving features,
    records that CV objective, trains that size on all data to measure
    total-gain importance, and removes the least-important feature.  The
    full-data model of the best-scoring round (the earliest on ties) is the
    returned model.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    specs = tuple(specs)
    n_features = x.shape[1]
    if len(specs) != n_features:
        raise MetacalError(f"{len(specs)} specs for {n_features} feature columns")
    if not 1 <= k <= n_features:
        raise MetacalError(f"k must be in [1, {n_features}], got {k}")

    active = list(range(n_features))
    performances: list[float] = []
    pruned: list[str] = []
    best_iteration = 0
    best: tuple[TreeEnsemble, tuple[MetricSpec, ...]] | None = None
    for iteration in range(k):
        round_specs = tuple(specs[i] for i in active)
        ensemble, value = _fit_searched(x[:, active], target, objective, config)
        if best is None or value > performances[best_iteration]:
            best_iteration, best = iteration, (ensemble, round_specs)
        performances.append(value)
        gains = feature_importance(ensemble, len(active))
        least = int(np.argmin(gains))  # ties: earliest (lowest column order)
        pruned.append(round_specs[least].name)
        del active[least]
        if not active:
            break

    assert best is not None
    ensemble, retained_specs = best
    trace = PruneTrace(
        performances=tuple(performances),
        pruned_features=tuple(pruned),
        best_iteration=best_iteration,
        best_features=tuple(s.name for s in retained_specs),
    )
    return _calibrated_model(ensemble, retained_specs, target, objective, config), trace


def calibrate_gbt(
    features: np.ndarray,
    target: Target,
    objective: ObjectiveKind,
    config: GbtConfig,
    specs: Sequence[MetricSpec],
    prune_iterations: int | None = None,
) -> tuple[CalibratedModel, PruneTrace | None]:
    """Train a boosted-tree calibrated model on normalized metric features.

    Without pruning this is a CV grid search over the ensemble size followed
    by a full-data train of the chosen size; with `prune_iterations` it runs
    `iterative_prune`.
    """
    if prune_iterations is not None:
        return iterative_prune(features, target, objective, config, prune_iterations, specs)
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    specs = tuple(specs)
    if len(specs) != x.shape[1]:
        raise MetacalError(f"{len(specs)} specs for {x.shape[1]} feature columns")
    ensemble, _ = _fit_searched(x, target, objective, config)
    return _calibrated_model(ensemble, specs, target, objective, config), None
