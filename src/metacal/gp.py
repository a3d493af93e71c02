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
from typing import Sequence

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
    pointwise_z,
    unstack_pairs,
    validate_alignment,
)
from .objectives import (
    DegenerateInput,
    EmptyInput,
    ObjectiveKind,
    pairwise_accuracy,
    score_or_worst,
)
from .preprocess import unit_specs

_SQRT5 = math.sqrt(5.0)
_MAX_JITTER = 1e-2


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

    The default budget (5 initial probes + 100 optimization steps) and the
    UCB exploration constant are the stock settings this calibrator ships
    with.
    """

    init_points: int = 5
    n_iter: int = 100
    kappa: float = 2.576
    bounds: tuple[float, float] = (0.0, 1.0)
    noise_jitter: float = 1e-6
    lengthscale_policy: LengthscalePolicy = LengthscalePolicy.FIXED_ONE
    seed: int = 0
    weighting: Weighting = Weighting.LINEAR

    def __post_init__(self) -> None:
        if self.init_points < 1:
            raise MetacalError("init_points must be >= 1")
        if self.n_iter < 0:
            raise MetacalError("n_iter must be >= 0")
        if self.kappa < 0:
            raise MetacalError("kappa must be >= 0")
        if self.noise_jitter <= 0:
            raise MetacalError("noise_jitter must be positive")
        if not self.bounds[0] < self.bounds[1]:
            raise MetacalError("bounds must satisfy low < high")


@dataclass(frozen=True)
class GpSurrogate:
    """Fitted GP posterior over alignment values.

    Targets are stored standardized (`target_mean`, `target_scale` undo it);
    `chol` is the lower Cholesky factor of the jittered kernel matrix and
    `alpha` solves (K + jitter*I) alpha = standardized targets.
    """

    observed_weights: np.ndarray
    observed_alignments: np.ndarray
    lengthscale: float
    jitter: float
    target_mean: float
    target_scale: float
    kernel: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray


def matern52(w: Sequence[float], w_prime: Sequence[float], lengthscale: float) -> float:
    """Matern kernel at nu = 5/2 in closed form:

        k(d) = (1 + sqrt(5) d / l + 5 d^2 / (3 l^2)) * exp(-sqrt(5) d / l)

    with d the Euclidean distance between the two weight vectors.
    """
    if lengthscale <= 0:
        raise MetacalError("lengthscale must be positive")
    a = np.asarray(w, dtype=np.float64).ravel()
    b = np.asarray(w_prime, dtype=np.float64).ravel()
    if a.size != b.size:
        raise DimensionMismatch(f"kernel inputs of dim {a.size} vs {b.size}")
    d = float(np.linalg.norm(a - b))
    r = _SQRT5 * d / lengthscale
    return (1.0 + r + r * r / 3.0) * math.exp(-r)


def _kernel_matrix(a: np.ndarray, b: np.ndarray, lengthscale: float) -> np.ndarray:
    # Distances via direct differences: the expanded-square shortcut loses
    # precision for near-coincident points, which matters because the
    # posterior must match a plain dense solve to 1e-8 even when the kernel
    # matrix is poorly conditioned.
    diff = a[:, None, :] - b[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=2))
    r = _SQRT5 * d / lengthscale
    return (1.0 + r + r * r / 3.0) * np.exp(-r)


def _kernel_matrix_fast(a: np.ndarray, b: np.ndarray, lengthscale: float) -> np.ndarray:
    # Expanded-square distances: cheaper for the wide candidate batches the
    # acquisition scans, where last-ulp accuracy is irrelevant.
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    d = np.sqrt(np.clip(sq, 0.0, None))
    r = _SQRT5 * d / lengthscale
    return (1.0 + r + r * r / 3.0) * np.exp(-r)


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


def _refined_solve(system: np.ndarray, chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    # One step of iterative refinement keeps ill-conditioned solves within
    # the dense-solve oracle's accuracy.
    x = _cho_solve(chol, b)
    return x + _cho_solve(chol, b - system @ x)


def _factorize(kernel: np.ndarray, start_jitter: float) -> tuple[np.ndarray, float]:
    jitter = start_jitter
    eye = np.eye(kernel.shape[0])
    while jitter <= _MAX_JITTER:
        try:
            return np.linalg.cholesky(kernel + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise FactorizationFailure(
        f"kernel matrix not positive definite up to jitter {_MAX_JITTER}"
    )


def _log_marginal_likelihood(
    weights: np.ndarray, targets_std: np.ndarray, lengthscale: float, jitter: float
) -> float:
    kernel = _kernel_matrix(weights, weights, lengthscale)
    try:
        chol, _ = _factorize(kernel, jitter)
    except FactorizationFailure:
        return -math.inf
    alpha = _cho_solve(chol, targets_std)
    n = weights.shape[0]
    return float(
        -0.5 * targets_std @ alpha
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * n * math.log(2.0 * math.pi)
    )


def _fit_lengthscale(weights: np.ndarray, targets_std: np.ndarray, jitter: float) -> float:
    """Grid-maximize the log marginal likelihood over log-spaced lengthscales,
    then refine with 8 shrinking local passes around the incumbent."""
    grid = np.logspace(-2.0, 2.0, 17)
    scores = [_log_marginal_likelihood(weights, targets_std, l, jitter) for l in grid]
    best = int(np.argmax(scores))
    best_l, best_score = float(grid[best]), scores[best]
    span = 10.0 ** (4.0 / 16.0)
    for _ in range(8):
        local = np.logspace(
            math.log10(best_l / span), math.log10(best_l * span), 5
        )
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
    escalating jitter from `config.noise_jitter` up to 1e-2.  When
    `lengthscale` is given it overrides the policy; otherwise FIXED_ONE
    uses 1.0 and MML grid-maximizes the log marginal likelihood.
    """
    weights = np.atleast_2d(np.asarray(W, dtype=np.float64))
    targets = np.asarray(rho, dtype=np.float64).ravel()
    if weights.shape[0] != targets.size:
        raise DimensionMismatch(
            f"{weights.shape[0]} weight vectors vs {targets.size} alignments"
        )
    if targets.size == 0:
        raise EmptyInput("gp_fit needs at least one observation")

    mean = float(targets.mean())
    scale = float(targets.std())
    if scale == 0.0:
        scale = 1.0
    targets_std = (targets - mean) / scale

    if lengthscale is None:
        if config.lengthscale_policy is LengthscalePolicy.FIXED_ONE:
            lengthscale = 1.0
        else:
            lengthscale = _fit_lengthscale(weights, targets_std, config.noise_jitter)

    kernel = _kernel_matrix(weights, weights, lengthscale)
    chol, jitter = _factorize(kernel, config.noise_jitter)
    system = kernel + jitter * np.eye(kernel.shape[0])
    alpha = _refined_solve(system, chol, targets_std)
    return GpSurrogate(
        observed_weights=weights,
        observed_alignments=targets,
        lengthscale=float(lengthscale),
        jitter=jitter,
        target_mean=mean,
        target_scale=scale,
        kernel=system,
        chol=chol,
        alpha=alpha,
    )


def _predict_batch(
    model: GpSurrogate, candidates: np.ndarray, exact: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    if exact:
        cross = _kernel_matrix(model.observed_weights, candidates, model.lengthscale)
        v = _refined_solve(model.kernel, model.chol, cross)
        var = 1.0 - np.sum(cross * v, axis=0)
    else:
        cross = _kernel_matrix_fast(model.observed_weights, candidates, model.lengthscale)
        v = np.linalg.solve(model.chol, cross)
        var = 1.0 - np.sum(v * v, axis=0)
    mean = model.target_mean + model.target_scale * (cross.T @ model.alpha)
    std = model.target_scale * np.sqrt(np.clip(var, 0.0, None))
    return mean, std


def gp_predict(model: GpSurrogate, w: Sequence[float]) -> tuple[float, float]:
    """Posterior mean and standard deviation (std clamped at 0) at one point."""
    point = np.asarray(w, dtype=np.float64).ravel()
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
    samples in bounds plus 10 local perturbations of the incumbent best."""
    dim = model.observed_weights.shape[1]
    low, high = config.bounds
    candidates = rng.uniform(low, high, size=(1000, dim))
    incumbent = model.observed_weights[int(np.argmax(model.observed_alignments))]
    local = incumbent[None, :] + rng.normal(0.0, 0.1 * (high - low), size=(10, dim))
    pool = np.vstack([candidates, np.clip(local, low, high)])
    mean, std = _predict_batch(model, pool, exact=False)
    ucb = mean + config.kappa * std
    return pool[int(np.argmax(ucb))].copy()


def expand_features(y: Sequence[float], weighting: Weighting) -> np.ndarray:
    """Map N normalized scores to the feature vector the weights act on.

    LINEAR keeps the scores; MULTIPLICATIVE emits the N*(N-1)/2 pairwise
    products y_i * y_j for i < j; COMBINED concatenates both.
    """
    row = np.asarray(y, dtype=np.float64).ravel()
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


def expanded_feature_names(names: Sequence[str], weighting: Weighting) -> tuple[str, ...]:
    """Feature labels matching `expand_features` output order."""
    base = tuple(names)
    pairs = tuple(
        f"{base[i]}*{base[j]}" for i in range(len(base)) for j in range(i + 1, len(base))
    )
    if weighting is Weighting.LINEAR:
        return base
    if weighting is Weighting.MULTIPLICATIVE:
        return pairs
    return base + pairs


def _injected_starts(dim: int) -> list[np.ndarray]:
    """Uniform-weight and one-hot vectors, so the calibrated result can never
    score below the uniform ensemble or any single metric on the tuning set."""
    starts = [np.ones(dim)]
    if dim > 1:
        starts.extend(np.eye(dim))
    return starts


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

    if target.kind is TargetKind.POINTWISE:
        features = expand_matrix(matrix.values, config.weighting)
        z = pointwise_z(matrix, target)

        def evaluate(w: np.ndarray) -> float:
            return score_or_worst(objective, features @ w, z)

        dim = features.shape[1]
        objective_used = objective.value
    else:
        # Split before the product: halves of the stacked product can differ
        # in the last bit from each half's own product.
        chosen, rejected = unstack_pairs(expand_matrix(matrix.values, config.weighting))

        def evaluate(w: np.ndarray) -> float:
            return pairwise_accuracy(chosen @ w, rejected @ w)

        dim = chosen.shape[1]
        objective_used = ObjectiveKind.PAIRWISE_ACCURACY.value

    rng = np.random.default_rng(config.seed)
    low, high = config.bounds

    observed: list[np.ndarray] = list(_injected_starts(dim))
    n_random = max(config.init_points - len(observed), 0)
    for _ in range(n_random):
        observed.append(rng.uniform(low, high, size=dim))
    alignments = [evaluate(w) for w in observed]

    current_lengthscale: float | None = (
        1.0 if config.lengthscale_policy is LengthscalePolicy.FIXED_ONE else None
    )
    for _ in range(config.n_iter):
        if (
            config.lengthscale_policy is LengthscalePolicy.MAXIMIZE_MARGINAL_LIKELIHOOD
            and (current_lengthscale is None or len(observed) % 10 == 0)
        ):
            current_lengthscale = None  # refit below
        surrogate = gp_fit(
            np.vstack(observed), alignments, config, lengthscale=current_lengthscale
        )
        current_lengthscale = surrogate.lengthscale
        w_next = suggest_next(surrogate, config, rng)
        observed.append(w_next)
        alignments.append(evaluate(w_next))

    best = int(np.argmax(alignments))
    return CalibratedModel(
        kind=ModelKind.LINEAR,
        metric_specs=specs,
        objective_used=objective_used,
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
    scores = np.empty(n)
    if target.kind is TargetKind.POINTWISE:
        z = pointwise_z(matrix, target)
        for j in range(n):
            scores[j] = score_or_worst(objective, matrix.values[:, j], z)
    else:
        chosen, rejected = unstack_pairs(matrix.values)
        for j in range(n):
            scores[j] = pairwise_accuracy(chosen[:, j], rejected[:, j])
    ranked = np.argsort(-scores, kind="stable")
    return tuple(sorted(int(i) for i in ranked[:k]))
