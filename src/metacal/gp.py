"""Bayesian optimization of metric weights.

A Gaussian-process surrogate with a Matern-5/2 kernel models the mapping
from a weight vector w in [0, 1]^D to the alignment objective rho(y_mm(w), z),
where y_mm(w) is the weighted sum of (possibly pair-expanded) normalized
metric scores.  An upper-confidence-bound acquisition picks each next
candidate; the best weight vector observed over the whole run wins.

Alignment targets are standardized to zero mean and unit variance inside
the surrogate, so the GP prior mean is zero by construction.  Only the
nu = 5/2 closed form of the Matern family is implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import (
    CalibratedModel,
    MetacalError,
    MetricSpec,
    ModelKind,
    PreferenceTarget,
    ScoreMatrix,
    TargetKind,
    Weighting,
    expanded_feature_names,  # re-exported: the feature labels of `expand_matrix`
    pointwise_z,
    unstack_pairs,
    validate_alignment,
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
from .preprocess import unit_specs

_SQRT5 = math.sqrt(5.0)
_MAX_JITTER = 1e-2
_LOW, _HIGH = 0.0, 1.0  # the weight search box [0, 1]^D


class DimensionMismatch(MetacalError):
    """Weight vectors of different dimensionality were combined."""


class FactorizationFailure(MetacalError):
    """The kernel matrix stayed non-positive-definite after jitter escalation."""


class TooFewMetrics(MetacalError):
    """Pairwise-product weighting needs at least two metrics."""


class LengthscalePolicy(Enum):
    FIXED_ONE = "fixed"
    MAXIMIZE_MARGINAL_LIKELIHOOD = "mml"


@dataclass(frozen=True)
class GpConfig:
    """Budget and surrogate settings for the weight search.

    The first phase evaluates the injected starts, uniform weights and (for
    D > 1 weights) each one-hot vector, topped up with random probes up to
    `init_points`; `n_iter` optimization steps follow.  A run over D > 1
    weights thus makes max(init_points, D + 1) + n_iter objective
    evaluations: 106 at the defaults for five linear weights.  The default
    budget and the UCB exploration constant are the stock settings this
    calibrator ships with.
    """

    init_points: int = 5
    n_iter: int = 100
    kappa: float = 2.576
    noise_jitter: float = 1e-6
    lengthscale_policy: LengthscalePolicy = LengthscalePolicy.FIXED_ONE
    seed: int = 0
    weighting: Weighting = Weighting.LINEAR

    def __post_init__(self) -> None:
        if self.init_points < 1:
            raise MetacalError("init_points must be >= 1")
        if self.n_iter < 0:
            raise MetacalError("n_iter must be >= 0")
        if not 0 <= self.kappa < math.inf:
            raise MetacalError("kappa must be finite and >= 0")
        if not 0 < self.noise_jitter < math.inf:
            raise MetacalError("noise_jitter must be finite and positive")
        if self.seed < 0:
            raise MetacalError("seed must be >= 0")


@dataclass(frozen=True)
class GpSurrogate:
    """Fitted GP posterior over alignment values.

    Targets are stored standardized (`target_mean`, `target_scale` undo it).
    `chol_inv` is the inverse of the lower Cholesky factor of the jittered
    kernel matrix, computed once per fit; `alpha = chol_inv.T @ chol_inv @ y`
    (plus one refinement step) for the standardized targets y.  The posterior
    is matrix products only (Rasmussen & Williams, GPML, Alg. 2.1).
    """

    observed_weights: np.ndarray
    observed_alignments: np.ndarray
    lengthscale: float
    jitter: float
    target_mean: float
    target_scale: float
    chol_inv: np.ndarray
    alpha: np.ndarray


def _check_lengthscale(lengthscale: float) -> None:
    if not 0 < lengthscale < math.inf:
        raise MetacalError(f"lengthscale must be finite and positive, got {lengthscale!r}")


def _finite_array(values: Sequence[float] | np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{what} must hold finite values")
    return arr


def _matern52_from_sq(sq: np.ndarray, lengthscale: float) -> np.ndarray:
    """Matern-5/2 kernel values from squared distances, in place in `sq`.
    The order of operations is fixed: the artifacts depend on its bits."""
    r = np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
    r *= _SQRT5
    r /= lengthscale
    decay = np.negative(r)
    np.exp(decay, out=decay)
    quad = r * r
    quad /= 3.0
    r += 1.0
    r += quad
    r *= decay
    return r


def matern52(w: Sequence[float], w_prime: Sequence[float], lengthscale: float) -> float:
    """Matern kernel at nu = 5/2 in closed form:

        k(d) = (1 + sqrt(5) d / l + 5 d^2 / (3 l^2)) * exp(-sqrt(5) d / l)

    with d the Euclidean distance between the two weight vectors.
    """
    _check_lengthscale(lengthscale)
    a = _finite_array(w, "kernel inputs").ravel()
    b = _finite_array(w_prime, "kernel inputs").ravel()
    if a.size != b.size:
        raise DimensionMismatch(f"kernel inputs of dim {a.size} vs {b.size}")
    diff = a - b
    return float(_matern52_from_sq(np.array([diff @ diff]), lengthscale)[0])


def _gram_matrix(points: np.ndarray, lengthscale: float) -> np.ndarray:
    # Direct differences make the matrix exactly symmetric with an exact unit
    # diagonal, which the expanded square does not guarantee.
    diff = points[:, None, :] - points[None, :, :]
    return _matern52_from_sq(np.sum(diff * diff, axis=2), lengthscale)


def _cross_kernel(points: np.ndarray, queries: np.ndarray, lengthscale: float) -> np.ndarray:
    # The expanded square: direct differences on the wide candidate block made
    # desk runs ~50% slower, and the kernel's zero slope at d = 0 absorbs the
    # rounding of small distances.
    sq = np.add.outer(np.sum(points * points, axis=1), np.sum(queries * queries, axis=1))
    products = points @ queries.T
    products *= 2.0
    sq -= products
    return _matern52_from_sq(sq, lengthscale)


def _factorize(kernel: np.ndarray, start_jitter: float) -> tuple[np.ndarray, float]:
    jitter = start_jitter
    eye = np.eye(kernel.shape[0])
    while jitter <= _MAX_JITTER:
        try:
            return np.linalg.cholesky(kernel + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise FactorizationFailure(f"kernel matrix not positive definite up to jitter {_MAX_JITTER}")


def _solve(weights: np.ndarray, targets_std: np.ndarray, lengthscale: float,
           start_jitter: float) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """(L, L^-1, jitter, alpha = A^-1 y) for the jittered Gram matrix A, factored once.  One
    refinement step keeps alpha accurate when repeated points carry different targets."""
    system = _gram_matrix(weights, lengthscale)
    chol, jitter = _factorize(system, start_jitter)
    chol_inv = np.linalg.inv(chol)
    system[np.diag_indices_from(system)] += jitter
    alpha = chol_inv.T @ (chol_inv @ targets_std)
    alpha += chol_inv.T @ (chol_inv @ (targets_std - system @ alpha))
    return chol, chol_inv, jitter, alpha


def _log_marginal_likelihood(
    weights: np.ndarray, targets_std: np.ndarray, lengthscale: float, jitter: float
) -> float:
    try:
        chol, _, _, alpha = _solve(weights, targets_std, lengthscale, jitter)
    except FactorizationFailure:
        return -math.inf
    n = weights.shape[0]
    log_det = np.sum(np.log(np.diag(chol)))
    return float(-0.5 * targets_std @ alpha - log_det - 0.5 * n * math.log(2.0 * math.pi))


def _fit_lengthscale(weights: np.ndarray, targets_std: np.ndarray, jitter: float) -> float:
    """Grid-maximize the log marginal likelihood over log-spaced lengthscales,
    then refine with 8 shrinking local passes around the incumbent."""
    grid = np.logspace(-2.0, 2.0, 17)
    scores = [_log_marginal_likelihood(weights, targets_std, l, jitter) for l in grid]
    best = int(np.argmax(scores))
    best_l, best_score = float(grid[best]), scores[best]
    span = 10.0 ** (4.0 / 16.0)
    for _ in range(8):
        local = np.logspace(math.log10(best_l / span), math.log10(best_l * span), 5)
        for l in local:
            s = _log_marginal_likelihood(weights, targets_std, float(l), jitter)
            if s > best_score:
                best_score, best_l = s, float(l)
        span = span ** 0.5
    return best_l


def gp_fit(
    W: Sequence[Sequence[float]] | np.ndarray,
    rho: Sequence[float] | np.ndarray,
    config: GpConfig,
    lengthscale: float | None = None,
) -> GpSurrogate:
    """Fit the GP surrogate to observed (weight vector, alignment) pairs.

    Targets are standardized internally (population mean/std; a zero or
    undefined std falls back to 1).  The kernel matrix is factorized with
    escalating jitter from `config.noise_jitter` up to 1e-2.  A given
    `lengthscale` (finite, > 0) overrides the policy; otherwise FIXED_ONE
    uses 1.0 and MML grid-maximizes the log marginal likelihood.  Non-finite
    weights or alignments raise `NonFiniteInput`.
    """
    weights = np.atleast_2d(_finite_array(W, "weight vectors"))
    targets = _finite_array(rho, "alignments").ravel()
    if weights.shape[0] != targets.size:
        raise DimensionMismatch(f"{weights.shape[0]} weight vectors vs {targets.size} alignments")
    if targets.size == 0:
        raise EmptyInput("gp_fit needs at least one observation")

    mean = float(targets.mean())
    scale = float(targets.std())
    if scale == 0.0:
        scale = 1.0
    targets_std = (targets - mean) / scale

    if lengthscale is not None:
        _check_lengthscale(lengthscale)
    elif config.lengthscale_policy is LengthscalePolicy.FIXED_ONE:
        lengthscale = 1.0
    else:
        lengthscale = _fit_lengthscale(weights, targets_std, config.noise_jitter)

    _, chol_inv, jitter, alpha = _solve(weights, targets_std, lengthscale, config.noise_jitter)
    return GpSurrogate(
        observed_weights=weights,
        observed_alignments=targets,
        lengthscale=float(lengthscale),
        jitter=jitter,
        target_mean=mean,
        target_scale=scale,
        chol_inv=chol_inv,
        alpha=alpha,
    )


def _predict_batch(model: GpSurrogate, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cross = _cross_kernel(model.observed_weights, candidates, model.lengthscale)
    v = model.chol_inv @ cross
    v *= v
    var = 1.0 - np.sum(v, axis=0)
    mean = model.target_mean + model.target_scale * (cross.T @ model.alpha)
    std = model.target_scale * np.sqrt(np.clip(var, 0.0, None))
    return mean, std


def gp_predict(model: GpSurrogate, w: Sequence[float]) -> tuple[float, float]:
    """Posterior mean and standard deviation (std clamped at 0) at one point.
    A non-finite query raises `NonFiniteInput`."""
    point = _finite_array(w, "query").ravel()
    if point.size != model.observed_weights.shape[1]:
        raise DimensionMismatch(
            f"query dim {point.size} vs training dim {model.observed_weights.shape[1]}"
        )
    mean, std = _predict_batch(model, point[None, :])
    return float(mean[0]), float(std[0])


def suggest_next(
    model: GpSurrogate, config: GpConfig, rng: np.random.Generator
) -> np.ndarray:
    """Next weight vector to evaluate: the UCB argmax over 1000 uniform
    samples in [0, 1]^D plus 10 local perturbations of the incumbent best."""
    dim = model.observed_weights.shape[1]
    candidates = rng.uniform(_LOW, _HIGH, size=(1000, dim))
    incumbent = model.observed_weights[int(np.argmax(model.observed_alignments))]
    local = incumbent[None, :] + rng.normal(0.0, 0.1 * (_HIGH - _LOW), size=(10, dim))
    pool = np.vstack([candidates, np.clip(local, _LOW, _HIGH)])
    mean, std = _predict_batch(model, pool)
    ucb = mean + config.kappa * std
    return pool[int(np.argmax(ucb))].copy()


def expand_features(y: Sequence[float], weighting: Weighting) -> np.ndarray:
    """Map N normalized scores to the feature vector the weights act on.

    LINEAR keeps the scores; MULTIPLICATIVE emits the N*(N-1)/2 pairwise
    products y_i * y_j for i < j; COMBINED concatenates both.
    """
    row = _finite_array(y, "normalized scores").ravel()
    return expand_matrix(row[None, :], weighting)[0]


def expand_matrix(values: np.ndarray, weighting: Weighting) -> np.ndarray:
    """Row-wise `expand_features` over an (M, N) array."""
    arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
    n = arr.shape[1]
    if n < 1:
        raise EmptyInput("no metric columns to expand")
    if weighting is Weighting.LINEAR:
        return arr
    if n < 2:
        raise TooFewMetrics("pairwise products need at least 2 metrics")
    ii, jj = np.triu_indices(n, k=1)
    products = arr[:, ii] * arr[:, jj]
    if weighting is Weighting.MULTIPLICATIVE:
        return products
    return np.hstack([arr, products])


def _injected_starts(dim: int) -> list[np.ndarray]:
    """Uniform-weight and one-hot vectors, so the calibrated result can never
    score below the uniform ensemble or any single metric on the tuning set."""
    starts = [np.ones(dim)]
    if dim > 1:
        starts.extend(np.eye(dim))
    return starts


def _scorer(
    features: np.ndarray, matrix: ScoreMatrix, target: PreferenceTarget, objective: ObjectiveKind
) -> Callable[[Callable[[np.ndarray], np.ndarray]], float]:
    """`score(meta)`: the alignment with the target of the meta-scores
    `meta(x)` of feature rows x (-1 if degenerate).  Pairs are split before
    `meta`: a stacked product's halves can differ in the last bit."""
    if target.kind is TargetKind.POINTWISE:
        z = prepare(objective, pointwise_z(matrix, target))
        return lambda meta: score_or_worst(objective, meta(features), z)
    chosen, rejected = unstack_pairs(features)
    return lambda meta: pairwise_accuracy(meta(chosen), meta(rejected))


def calibrate_gp(
    matrix: ScoreMatrix,
    target: PreferenceTarget,
    objective: ObjectiveKind,
    config: GpConfig,
    specs: Sequence[MetricSpec] | None = None,
) -> CalibratedModel:
    """Search weight space by Bayesian optimization; return the best-observed
    weights as a linear calibrated model.

    `matrix` must already be normalized.  `specs` records the preprocessing
    the model will apply to raw inputs at scoring time; it defaults to the
    identity (0, 1, higher) specs matching the normalized input space.
    Pointwise targets are scored by `objective`; pairwise targets always use
    pairwise accuracy over the chosen/rejected member scores.  A candidate
    whose meta-score is constant (degenerate objective) scores -1.
    """
    validate_alignment(matrix, target)
    if specs is None:
        specs = unit_specs(matrix.metric_names)
    specs = tuple(specs)
    if tuple(s.name for s in specs) != matrix.metric_names:
        raise MetacalError("specs must match matrix columns by name and order")

    features = expand_matrix(matrix.values, config.weighting)
    score = _scorer(features, matrix, target, objective)

    def evaluate(w: np.ndarray) -> float:
        return score(lambda x: x @ w)

    dim = features.shape[1]

    rng = np.random.default_rng(config.seed)
    observed: list[np.ndarray] = list(_injected_starts(dim))
    for _ in range(config.init_points - len(observed)):
        observed.append(rng.uniform(_LOW, _HIGH, size=dim))
    alignments = [evaluate(w) for w in observed]

    refit = config.lengthscale_policy is LengthscalePolicy.MAXIMIZE_MARGINAL_LIKELIHOOD
    lengthscale: float | None = None  # None: gp_fit applies the policy
    for _ in range(config.n_iter):
        if refit and len(observed) % 10 == 0:
            lengthscale = None
        surrogate = gp_fit(np.vstack(observed), alignments, config, lengthscale=lengthscale)
        lengthscale = surrogate.lengthscale
        w_next = suggest_next(surrogate, config, rng)
        observed.append(w_next)
        alignments.append(evaluate(w_next))

    best = int(np.argmax(alignments))
    return CalibratedModel(
        kind=ModelKind.LINEAR,
        metric_specs=specs,
        objective_used=scored_by(objective, target).value,
        seed=config.seed,
        weighting=config.weighting,
        weights=tuple(float(v) for v in observed[best]),
    )


def select_top_k(
    matrix: ScoreMatrix,
    target: PreferenceTarget,
    objective: ObjectiveKind,
    k: int,
) -> tuple[int, ...]:
    """Indices (ascending) of the k metrics whose individual scores align best
    with the target; ties keep the earlier column."""
    n = matrix.n_metrics
    if not 1 <= k <= n:
        raise MetacalError(f"k must be in [1, {n}], got {k}")
    score = _scorer(matrix.values, matrix, target, objective)
    scores = np.array([score(lambda x: x[:, j]) for j in range(n)])
    ranked = np.argsort(-scores, kind="stable")
    return tuple(sorted(int(i) for i in ranked[:k]))
