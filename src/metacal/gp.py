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
    Weighting,
    expanded_feature_names,  # re-exported: the feature labels of `expand_matrix`
    validate_alignment,
)
from .objectives import (
    EmptyInput,
    NonFiniteInput,
    ObjectiveKind,
    alignment_scorer,
    score_or_worst,  # unused here: perfbench's tracer test checks that this copy is rebound
    scored_by,
)
from .preprocess import unit_specs

_SQRT5 = math.sqrt(5.0)
_MAX_JITTER = 1e-2
_LOW, _HIGH = 0.0, 1.0  # the weight search box [0, 1]^D
_N_UNIFORM, _N_LOCAL = 1000, 10  # acquisition candidates: uniform samples, incumbent perturbations


class DimensionMismatch(MetacalError):
    """Weight vectors of different dimensionality were combined."""


class FactorizationFailure(MetacalError):
    """The kernel matrix stayed non-positive-definite after jitter escalation."""


class TooFewMetrics(MetacalError):
    """Pairwise-product weighting needs at least two metrics."""


class SearchTooLarge(MetacalError):
    """The search's probe budget (init_points + n_iter) does not fit in memory."""


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
    `jittered_gram` is the kernel matrix of the observed weights plus
    `jitter` on its diagonal, and `chol_inv` the inverse of its lower
    Cholesky factor: computed afresh, or, when the fit extends a previous
    surrogate by one point (`gp_fit(..., previous=...)`), bordered by one
    row in O(n^2).  `alpha = chol_inv.T @ chol_inv @ y` (plus one
    refinement step against `jittered_gram`) for the standardized targets
    y.  The posterior is matrix products only (Rasmussen & Williams, GPML,
    Alg. 2.1).
    """

    observed_weights: np.ndarray
    observed_alignments: np.ndarray
    lengthscale: float
    jitter: float
    target_mean: float
    target_scale: float
    chol_inv: np.ndarray
    alpha: np.ndarray
    jittered_gram: np.ndarray


def _check_lengthscale(lengthscale: float) -> None:
    if not 0 < lengthscale < math.inf:
        raise MetacalError(f"lengthscale must be finite and positive, got {lengthscale!r}")


def _finite_array(values: Sequence[float] | np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{what} must hold finite values")
    return arr


def _matern52_from_sq(sq: np.ndarray, lengthscale: float, decay: np.ndarray | None = None,
                      quad: np.ndarray | None = None) -> np.ndarray:
    """Matern-5/2 kernel values from squared distances, in place in `sq`;
    the tail's two temporaries go to `decay` and `quad` when given.

    With r = sqrt(5) d / l the kernel is (1 + r + r^2 / 3) exp(-r).  Eight
    passes and no division, in this fixed order (the artifacts depend on its
    bits): clamp sq at 0; quad = sq * 5 / (3 l^2), which is r^2 / 3;
    d = sqrt(sq); decay = d * -sqrt(5) / l, which is -r; t = 1 - decay;
    t += quad; exp(decay); t *= decay."""
    np.maximum(sq, 0.0, out=sq)
    quad = np.multiply(sq, 5.0 / (3.0 * lengthscale * lengthscale), out=quad)
    d = np.sqrt(sq, out=sq)
    decay = np.multiply(d, -_SQRT5 / lengthscale, out=decay)
    t = np.subtract(1.0, decay, out=sq)
    t += quad
    np.exp(decay, out=decay)
    t *= decay
    return t


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


def _pairwise_sq(points: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of `points`, by direct differences:
    the matrix is exactly symmetric with an exact zero diagonal, which the
    expanded square does not guarantee."""
    diff = points[:, None, :] - points[None, :, :]
    return np.sum(diff * diff, axis=2)


def _gram_matrix(points: np.ndarray, lengthscale: float) -> np.ndarray:
    return _matern52_from_sq(_pairwise_sq(points), lengthscale)


class _CandidateBlocks:
    """Float64 buffers for the (observations x candidates) blocks of the
    acquisition, allocated once per search for up to `rows` observations.
    A fresh block per step goes back to the system when freed and is
    faulted in again on the next step."""

    def __init__(self, rows: int, cols: int = _N_UNIFORM + _N_LOCAL) -> None:
        self._flat = tuple(np.empty(rows * cols) for _ in range(3))

    def views(self, n: int, m: int) -> tuple[np.ndarray, ...]:
        """Three contiguous (n, m) views, one per buffer."""
        return tuple(flat[: n * m].reshape(n, m) for flat in self._flat)


def _cross_kernel(points: np.ndarray, queries: np.ndarray, lengthscale: float,
                  blocks: Sequence[np.ndarray | None] = (None,) * 3) -> np.ndarray:
    """The (points x queries) kernel block.  Given `blocks`, it is computed
    in three (points x queries) arrays: the squared distances, which become
    the result; the Matern tail's `quad`; its `decay`.

    The squared distances are one GEMM of the augmented rows,
    [p, |p|^2, 1] . [-2q, 1, |q|^2], with the row norms by `einsum`.  Direct
    differences on the wide candidate block made desk runs ~50% slower, and
    the kernel's zero slope at d = 0 absorbs the rounding of small
    distances.  This order is fixed: the artifacts depend on its bits."""
    sq, quad, decay = blocks
    n, dim = points.shape
    left = np.empty((n, dim + 2))
    left[:, :dim] = points
    np.einsum("ij,ij->i", points, points, out=left[:, dim])
    left[:, dim + 1] = 1.0
    right = np.empty((queries.shape[0], dim + 2))
    np.multiply(queries, -2.0, out=right[:, :dim])
    right[:, dim] = 1.0
    np.einsum("ij,ij->i", queries, queries, out=right[:, dim + 1])
    sq = np.matmul(left, right.T, out=sq)
    return _matern52_from_sq(sq, lengthscale, decay, quad)


def _factorize(kernel: np.ndarray, start_jitter: float) -> tuple[np.ndarray, float]:
    jitter = start_jitter
    eye = np.eye(kernel.shape[0])
    while jitter <= _MAX_JITTER:
        try:
            return np.linalg.cholesky(kernel + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise FactorizationFailure(f"kernel matrix not positive definite up to jitter {_MAX_JITTER}")


def _solve(gram: np.ndarray, start_jitter: float) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """(L, L^-1, jitter, A) for the jittered Gram matrix A = LL^T, factored
    once; `gram` becomes A."""
    chol, jitter = _factorize(gram, start_jitter)
    chol_inv = np.linalg.inv(chol)
    gram[np.diag_indices_from(gram)] += jitter
    return chol, chol_inv, jitter, gram


def _bordered(previous: GpSurrogate, weights: np.ndarray, lengthscale: float,
              jitter: float) -> tuple[np.ndarray, np.ndarray] | None:
    """(L^-1, A) for `weights`, the previous surrogate's points plus one new
    last row, by bordering the previous factor: with k the new point's
    kernel column, l = L^-1 k and d^2 = 1 + jitter - l.l, the new last row
    of L^-1 is (-(l^T L^-1) / d, 1 / d).  None when that does not apply:
    other points, another lengthscale, a jitter the previous fit had to
    escalate, or d^2 not > 0."""
    n = previous.observed_weights.shape[0]
    if (weights.shape[0] != n + 1 or lengthscale != previous.lengthscale
            or previous.jitter != jitter or not np.array_equal(weights[:n], previous.observed_weights)):
        return None
    diff = weights[:n] - weights[n]  # direct differences, as in `_gram_matrix`
    k = _matern52_from_sq(np.sum(diff * diff, axis=1), lengthscale)
    l = previous.chol_inv @ k
    d2 = 1.0 + jitter - l @ l
    if not 0.0 < d2 < math.inf:
        return None
    d = math.sqrt(d2)
    chol_inv = np.zeros((n + 1, n + 1))
    chol_inv[:n, :n] = previous.chol_inv
    chol_inv[n, :n] = -(l @ previous.chol_inv) / d
    chol_inv[n, n] = 1.0 / d
    system = np.empty((n + 1, n + 1))
    system[:n, :n] = previous.jittered_gram
    system[n, :n] = system[:n, n] = k
    system[n, n] = 1.0 + jitter
    return chol_inv, system


def _alpha(chol_inv: np.ndarray, system: np.ndarray, targets_std: np.ndarray) -> np.ndarray:
    """A^-1 y from L^-1.  One refinement step keeps alpha accurate when
    repeated points carry different targets."""
    alpha = chol_inv.T @ (chol_inv @ targets_std)
    alpha += chol_inv.T @ (chol_inv @ (targets_std - system @ alpha))
    return alpha


def _log_marginal_likelihood(
    sq: np.ndarray, targets_std: np.ndarray, lengthscale: float, jitter: float
) -> float:
    """Log marginal likelihood of the standardized targets at `lengthscale`,
    from the points' pairwise squared distances `sq` (left unchanged)."""
    try:
        chol, chol_inv, _, system = _solve(_matern52_from_sq(sq.copy(), lengthscale), jitter)
    except FactorizationFailure:
        return -math.inf
    alpha = _alpha(chol_inv, system, targets_std)
    n = sq.shape[0]
    log_det = np.sum(np.log(np.diag(chol)))
    return float(-0.5 * targets_std @ alpha - log_det - 0.5 * n * math.log(2.0 * math.pi))


def _fit_lengthscale(weights: np.ndarray, targets_std: np.ndarray, jitter: float) -> float:
    """Grid-maximize the log marginal likelihood over log-spaced lengthscales,
    then refine with 8 shrinking local passes around the incumbent.  Only
    the Matern transform depends on the lengthscale, so the pairwise squared
    distances are computed once."""
    sq = _pairwise_sq(weights)
    grid = np.logspace(-2.0, 2.0, 17)
    scores = [_log_marginal_likelihood(sq, targets_std, l, jitter) for l in grid]
    best = int(np.argmax(scores))
    best_l, best_score = float(grid[best]), scores[best]
    span = 10.0 ** (4.0 / 16.0)
    for _ in range(8):
        local = np.logspace(math.log10(best_l / span), math.log10(best_l * span), 5)
        for l in local:
            s = _log_marginal_likelihood(sq, targets_std, float(l), jitter)
            if s > best_score:
                best_score, best_l = s, float(l)
        span = span ** 0.5
    return best_l


def gp_fit(
    W: Sequence[Sequence[float]] | np.ndarray,
    rho: Sequence[float] | np.ndarray,
    config: GpConfig,
    lengthscale: float | None = None,
    *,
    previous: GpSurrogate | None = None,
) -> GpSurrogate:
    """Fit the GP surrogate to observed (weight vector, alignment) pairs.

    Targets are standardized internally (population mean/std; a zero or
    undefined std falls back to 1).  The kernel matrix is factorized with
    escalating jitter from `config.noise_jitter` up to 1e-2.  A given
    `lengthscale` (finite, > 0) overrides the policy; otherwise FIXED_ONE
    uses 1.0 and MML grid-maximizes the log marginal likelihood.  Non-finite
    weights or alignments raise `NonFiniteInput`.

    `previous`, a surrogate fitted to all but the last of `W` at the same
    lengthscale and at the starting jitter, lets the fit extend its factor
    by one row instead of factoring afresh; in any other case it is ignored.
    Either way the posterior agrees with the fresh fit's to rounding.
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

    jitter = config.noise_jitter
    factor = None if previous is None else _bordered(previous, weights, lengthscale, jitter)
    if factor is None:
        _, chol_inv, jitter, system = _solve(_gram_matrix(weights, lengthscale), jitter)
    else:
        chol_inv, system = factor
    alpha = _alpha(chol_inv, system, targets_std)
    return GpSurrogate(
        observed_weights=weights,
        observed_alignments=targets,
        lengthscale=float(lengthscale),
        jitter=jitter,
        target_mean=mean,
        target_scale=scale,
        chol_inv=chol_inv,
        alpha=alpha,
        jittered_gram=system,
    )


def _predict_batch(model: GpSurrogate, candidates: np.ndarray,
                   scratch: _CandidateBlocks | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and std at each candidate."""
    blocks: Sequence[np.ndarray | None] = (None,) * 3
    if scratch is not None:
        blocks = scratch.views(model.observed_weights.shape[0], candidates.shape[0])
    cross = _cross_kernel(model.observed_weights, candidates, model.lengthscale, blocks)
    v = np.matmul(model.chol_inv, cross, out=blocks[1])  # `quad` is dead by now
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
    model: GpSurrogate, config: GpConfig, rng: np.random.Generator, *,
    scratch: _CandidateBlocks | None = None,
) -> np.ndarray:
    """Next weight vector to evaluate: the UCB argmax over 1000 uniform
    samples in [0, 1]^D plus 10 local perturbations of the incumbent best.
    `scratch`, buffers `calibrate_gp` allocates once per search, holds the
    candidate blocks; the result is the same without it."""
    dim = model.observed_weights.shape[1]
    candidates = rng.uniform(_LOW, _HIGH, size=(_N_UNIFORM, dim))
    incumbent = model.observed_weights[int(np.argmax(model.observed_alignments))]
    local = incumbent[None, :] + rng.normal(0.0, 0.1 * (_HIGH - _LOW), size=(_N_LOCAL, dim))
    pool = np.vstack([candidates, np.clip(local, _LOW, _HIGH)])
    mean, std = _predict_batch(model, pool, scratch)
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
    score = alignment_scorer(objective, target)

    def evaluate(w: np.ndarray) -> float:
        return score(lambda x: x @ w, features)

    dim = features.shape[1]

    starts = _injected_starts(dim)
    n_start = max(config.init_points, len(starts))
    try:  # before any probe, so a budget too large to hold fails at once
        observed = np.empty((n_start + config.n_iter, dim))
        scratch = _CandidateBlocks(n_start + config.n_iter - 1)  # the last probe is never fitted
    except (MemoryError, ValueError):
        raise SearchTooLarge(
            f"init_points + n_iter is too large: {n_start + config.n_iter} probes of "
            f"{dim} weights do not fit in memory") from None
    rng = np.random.default_rng(config.seed)
    observed[:len(starts)] = starts
    for i in range(len(starts), n_start):
        observed[i] = rng.uniform(_LOW, _HIGH, size=dim)
    alignments = [evaluate(w) for w in observed[:n_start]]

    refit = config.lengthscale_policy is LengthscalePolicy.MAXIMIZE_MARGINAL_LIKELIHOOD
    lengthscale: float | None = None  # None: gp_fit applies the policy
    surrogate: GpSurrogate | None = None
    for n in range(n_start, n_start + config.n_iter):
        if refit and n % 10 == 0:
            lengthscale = None
        surrogate = gp_fit(observed[:n], alignments, config, lengthscale=lengthscale,
                           previous=surrogate)
        lengthscale = surrogate.lengthscale
        w_next = suggest_next(surrogate, config, rng, scratch=scratch)
        observed[n] = w_next
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
    validate_alignment(matrix, target)
    n = matrix.n_metrics
    if not 1 <= k <= n:
        raise MetacalError(f"k must be in [1, {n}], got {k}")
    score = alignment_scorer(objective, target)
    scores = np.array([score(lambda x: x[:, j], matrix.values) for j in range(n)])
    ranked = np.argsort(-scores, kind="stable")
    return tuple(sorted(int(i) for i in ranked[:k]))
