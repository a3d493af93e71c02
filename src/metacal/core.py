"""Shared data model: metric specifications, score matrices, preference
targets, and calibrated models.

Everything here is immutable after construction and safe to share across
workers.  Scores are validated finite at ingestion; missing values are a
hard error, never imputed.

A score matrix is aligned with human judgments in one of two ways, and
only this module knows how:

- pointwise: the target maps example ids to human scores z, and
  `pointwise_z` returns z in matrix row order;
- pairwise: the matrix stacks the pair members, pair i's chosen member at
  row 2i and its rejected member at row 2i + 1, and `unstack_pairs` splits
  any sequence in that row order into its (chosen, rejected) halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .gbt import TreeEnsemble


class MetacalError(Exception):
    """Base class for every validation and computation error in metacal."""


class InvalidSpec(MetacalError):
    """A metric specification violates its invariants (e.g. min >= max)."""


class MissingTarget(MetacalError):
    """A score row has no matching preference target."""

    def __init__(self, example_id) -> None:
        super().__init__(f"no target for example {example_id!r}")
        self.example_id = example_id


class ExampleId(NamedTuple):
    """Identity of one scored example.

    Tasks that need fewer grouping keys (e.g. flat summarization data) leave
    the unused positions as "-".
    """

    dataset: str
    system: str
    segment: str


@dataclass(frozen=True)
class MetricSpec:
    """Declares one base metric: its valid score range and orientation."""

    name: str
    min: float
    max: float
    higher_is_better: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidSpec("metric name must be non-empty")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise InvalidSpec(f"{self.name}: range bounds must be finite")
        if not self.min < self.max:
            raise InvalidSpec(
                f"{self.name}: min must be strictly below max, got [{self.min}, {self.max}]"
            )


def _check_unique_names(specs: Sequence[MetricSpec]) -> None:
    seen: set[str] = set()
    for spec in specs:
        if spec.name in seen:
            raise InvalidSpec(f"duplicate metric name {spec.name!r}")
        seen.add(spec.name)


@dataclass(frozen=True)
class ScoreMatrix:
    """M examples by N base-metric raw scores, with example identity.

    `values` is a read-only float64 array of shape (M, N) whose columns
    follow `metric_names`.  All entries are finite; example ids are unique.
    """

    metric_names: tuple[str, ...]
    example_ids: tuple[ExampleId, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise MetacalError(f"score values must be 2-D, got shape {arr.shape}")
        if arr.shape != (len(self.example_ids), len(self.metric_names)):
            raise MetacalError(
                f"score shape {arr.shape} does not match "
                f"{len(self.example_ids)} examples x {len(self.metric_names)} metrics"
            )
        if arr.size and not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise MetacalError(
                f"non-finite score at row {bad[0]}, column "
                f"{self.metric_names[bad[1]]!r}"
            )
        if len(set(self.example_ids)) != len(self.example_ids):
            seen: set[ExampleId] = set()
            for eid in self.example_ids:
                if eid in seen:
                    raise MetacalError(f"duplicate example id {eid!r}")
                seen.add(eid)
        if len(set(self.metric_names)) != len(self.metric_names):
            raise MetacalError("duplicate metric names in score matrix")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "metric_names", tuple(self.metric_names))
        object.__setattr__(
            self, "example_ids", tuple(ExampleId(*e) for e in self.example_ids)
        )

    @classmethod
    def from_rows(
        cls,
        metric_names: Sequence[str],
        rows: Iterable[tuple[ExampleId | tuple[str, str, str], Sequence[float]]],
    ) -> "ScoreMatrix":
        ids = []
        scores = []
        names = tuple(metric_names)
        for eid, row in rows:
            if len(row) != len(names):
                raise MetacalError(
                    f"row {eid!r} has {len(row)} scores, expected {len(names)}"
                )
            ids.append(ExampleId(*eid))
            scores.append([float(v) for v in row])
        values = np.asarray(scores, dtype=np.float64).reshape(len(ids), len(names))
        return cls(names, tuple(ids), values)

    @property
    def n_examples(self) -> int:
        return len(self.example_ids)

    @property
    def n_metrics(self) -> int:
        return len(self.metric_names)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.metric_names.index(name)]

    def take_rows(self, indices: Sequence[int]) -> "ScoreMatrix":
        idx = list(indices)
        return ScoreMatrix(
            self.metric_names,
            tuple(self.example_ids[i] for i in idx),
            self.values[idx],
        )

    def take_columns(self, indices: Sequence[int]) -> "ScoreMatrix":
        idx = list(indices)
        return ScoreMatrix(
            tuple(self.metric_names[i] for i in idx),
            self.example_ids,
            self.values[:, idx],
        )


class TargetKind(Enum):
    POINTWISE = "pointwise"
    PAIRWISE = "pairwise"


@dataclass(frozen=True)
class PreferencePair:
    """One chosen/rejected judgment.  Its members' base-metric scores are
    rows of the accompanying `ScoreMatrix`, stacked by the pair's position
    in the target (see the module docstring)."""

    group_id: str
    category: str = "-"


@dataclass(frozen=True)
class PreferenceTarget:
    """Human ground truth: pointwise scores z, or grouped chosen/rejected pairs.

    Tied z values are stored verbatim; tie handling is owned by the
    objectives that consume them.
    """

    kind: TargetKind
    pointwise: Mapping[ExampleId, float] | None = None
    pairwise: tuple[PreferencePair, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind is TargetKind.POINTWISE:
            if self.pointwise is None or self.pairwise is not None:
                raise MetacalError("pointwise target must carry only a z mapping")
            frozen = {ExampleId(*k): float(v) for k, v in self.pointwise.items()}
            for eid, z in frozen.items():
                if not math.isfinite(z):
                    raise MetacalError(f"non-finite z for example {eid!r}")
            object.__setattr__(self, "pointwise", frozen)
        else:
            if self.pairwise is None or self.pointwise is not None:
                raise MetacalError("pairwise target must carry only preference pairs")
            object.__setattr__(self, "pairwise", tuple(self.pairwise))

    @classmethod
    def from_pointwise(cls, mapping: Mapping[ExampleId, float]) -> "PreferenceTarget":
        return cls(TargetKind.POINTWISE, pointwise=dict(mapping))

    @classmethod
    def from_pairs(cls, pairs: Iterable[PreferencePair]) -> "PreferenceTarget":
        return cls(TargetKind.PAIRWISE, pairwise=tuple(pairs))


class ModelKind(Enum):
    LINEAR = "linear"
    GBT = "gbt"


class Weighting(Enum):
    """Feature scheme for linear models: raw metrics, pairwise products, or both."""

    LINEAR = "linear"
    MULTIPLICATIVE = "multiplicative"
    COMBINED = "combined"


def expected_weight_count(n_metrics: int, weighting: Weighting) -> int:
    pairs = n_metrics * (n_metrics - 1) // 2
    if weighting is Weighting.LINEAR:
        return n_metrics
    if weighting is Weighting.MULTIPLICATIVE:
        return pairs
    return n_metrics + pairs


@dataclass(frozen=True)
class CalibratedModel:
    """A learned meta-metric: weight vector or tree ensemble plus the
    preprocessing specs needed to score raw inputs.

    `metric_specs` order defines feature order; scoring any input uses
    this order.
    """

    kind: ModelKind
    metric_specs: tuple[MetricSpec, ...]
    objective_used: str
    seed: int
    version: int = 1
    weighting: Weighting | None = None
    weights: tuple[float, ...] | None = None
    trees: "TreeEnsemble | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric_specs", tuple(self.metric_specs))
        _check_unique_names(self.metric_specs)
        n = len(self.metric_specs)
        if self.kind is ModelKind.LINEAR:
            if self.weighting is None or self.weights is None:
                raise MetacalError("linear model requires weighting and weights")
            if self.trees is not None:
                raise MetacalError("linear model must not carry trees")
            weights = tuple(float(w) for w in self.weights)
            object.__setattr__(self, "weights", weights)
            expected = expected_weight_count(n, self.weighting)
            if len(weights) != expected:
                raise MetacalError(
                    f"{self.weighting.value} weighting over {n} metrics needs "
                    f"{expected} weights, got {len(weights)}"
                )
            for w in weights:
                if not math.isfinite(w):
                    raise MetacalError("non-finite weight in calibrated model")
        else:
            if self.trees is None:
                raise MetacalError("gbt model requires trees")
            if self.weighting is not None or self.weights is not None:
                raise MetacalError("gbt model must not carry weight fields")
            self.trees.validate(n)

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.metric_specs)


def pointwise_z(matrix: ScoreMatrix, target: PreferenceTarget) -> np.ndarray:
    """The target's z for every matrix row, in row order."""
    if target.pointwise is None:
        raise MetacalError("target carries no pointwise z")
    try:
        return np.asarray([target.pointwise[eid] for eid in matrix.example_ids])
    except KeyError as exc:
        raise MissingTarget(exc.args[0]) from None


def unstack_pairs(stacked: Sequence) -> tuple[Sequence, Sequence]:
    """Split a sequence in stacked row order into its (chosen, rejected)
    halves, each in pair order."""
    return stacked[0::2], stacked[1::2]


def validate_alignment(matrix: ScoreMatrix, target: PreferenceTarget) -> None:
    """Check that a score matrix and a preference target describe the same
    data: a z for every row, or exactly the stacked pair members."""
    if target.kind is TargetKind.POINTWISE:
        pointwise_z(matrix, target)
    elif matrix.n_examples != 2 * len(target.pairwise):
        raise MissingTarget(
            f"{matrix.n_examples} matrix rows for {len(target.pairwise)} pairs"
        )
