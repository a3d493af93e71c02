"""Shared data model: metric specifications, score matrices, preference
targets, and calibrated models.

Everything here is immutable after construction and safe to share across
workers.  Scores are validated finite at ingestion; missing values are a
hard error, never imputed.

A score matrix is aligned with human judgments by position, and only this
module knows the layout.  A target is a sequence of units, and unit i owns
the matrix rows [i * m, (i + 1) * m) for m members per unit:

- pointwise: one member per unit; z[i] is the human score of row i, and
  `pointwise_z` returns z after checking the row count;
- pairwise: two members per unit; pair i's chosen member is row 2i and its
  rejected member row 2i + 1, and `unstack_pairs` splits any sequence in
  that row order into its (chosen, rejected) halves.

`validate_alignment` checks that rule, and `unit_rows` maps units to rows.
A linear model holds one weight per name of `expanded_feature_names`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .gbt import TreeEnsemble


class MetacalError(Exception):
    """Base class for every validation and computation error in metacal."""


class InvalidSpec(MetacalError):
    """A metric specification violates its invariants (e.g. min >= max)."""


class MissingTarget(MetacalError):
    """A score matrix and a preference target do not have matching rows."""


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
        ids = tuple(self.example_ids)
        if set(map(type, ids)) - {ExampleId}:  # build only the ids not built yet
            ids = tuple(e if type(e) is ExampleId else ExampleId(*e) for e in ids)
        if len(set(ids)) != len(ids):
            seen: set[ExampleId] = set()
            for eid in ids:
                if eid in seen:
                    raise MetacalError(f"duplicate example id {eid!r}")
                seen.add(eid)
        if len(set(self.metric_names)) != len(self.metric_names):
            raise MetacalError("duplicate metric names in score matrix")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "metric_names", tuple(self.metric_names))
        object.__setattr__(self, "example_ids", ids)

    @property
    def n_examples(self) -> int:
        return len(self.example_ids)

    @property
    def n_metrics(self) -> int:
        return len(self.metric_names)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.metric_names.index(name)]

    def take_rows(self, indices: Sequence[int]) -> "ScoreMatrix":
        idx = np.asarray(indices, dtype=np.intp)
        return ScoreMatrix(
            self.metric_names,
            tuple(map(self.example_ids.__getitem__, idx.tolist())),
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

    `z` is a read-only float64 array in matrix row order (see the module
    docstring).  Tied z values are stored verbatim; tie handling is owned
    by the objectives that consume them.
    """

    kind: TargetKind
    z: np.ndarray | None = None
    pairwise: tuple[PreferencePair, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind is TargetKind.POINTWISE:
            if self.z is None or self.pairwise is not None:
                raise MetacalError("pointwise target must carry only z")
            try:  # a mapping fails here: z is ordered by position, not keyed
                z = np.array(self.z, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise MetacalError(f"z must be a sequence of numbers: {exc}") from None
            if z.ndim != 1:
                raise MetacalError(f"z must be 1-D, got shape {z.shape}")
            if not np.isfinite(z).all():
                raise MetacalError(f"non-finite z at row {int(np.argmin(np.isfinite(z)))}")
            z.flags.writeable = False
            object.__setattr__(self, "z", z)
        else:
            if self.pairwise is None or self.z is not None:
                raise MetacalError("pairwise target must carry only preference pairs")
            object.__setattr__(self, "pairwise", tuple(self.pairwise))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PreferenceTarget) and np.array_equal(self.z, other.z) and (
            (self.kind, self.pairwise) == (other.kind, other.pairwise))

    @classmethod
    def from_pointwise(cls, z: Sequence[float] | np.ndarray) -> "PreferenceTarget":
        return cls(TargetKind.POINTWISE, z=z)

    @classmethod
    def from_pairs(cls, pairs: Iterable[PreferencePair]) -> "PreferenceTarget":
        return cls(TargetKind.PAIRWISE, pairwise=tuple(pairs))

    @property
    def n_units(self) -> int:
        """Judgments in the target: z values or pairs."""
        return len(self.z) if self.kind is TargetKind.POINTWISE else len(self.pairwise)

    @property
    def rows_per_unit(self) -> int:
        return 1 if self.kind is TargetKind.POINTWISE else 2

    def take_units(self, units: Sequence[int]) -> "PreferenceTarget":
        """The target restricted to the given units, in the order given."""
        if self.kind is TargetKind.POINTWISE:
            return PreferenceTarget.from_pointwise(self.z[np.asarray(units, dtype=np.intp)])
        return PreferenceTarget.from_pairs(self.pairwise[u] for u in units)


class ModelKind(Enum):
    LINEAR = "linear"
    GBT = "gbt"


class Weighting(Enum):
    """Feature scheme for linear models: raw metrics, pairwise products, or both."""

    LINEAR = "linear"
    MULTIPLICATIVE = "multiplicative"
    COMBINED = "combined"


def expanded_feature_names(names: Sequence[str], weighting: Weighting) -> tuple[str, ...]:
    """Labels of the features a linear model's weights act on: the metric
    names, the products "a*b" of each pair a before b, or both in turn."""
    base = tuple(names)
    ii, jj = np.triu_indices(len(base), k=1)
    pairs = tuple(f"{base[i]}*{base[j]}" for i, j in zip(ii.tolist(), jj.tolist()))
    if weighting is Weighting.LINEAR:
        return base
    if weighting is Weighting.MULTIPLICATIVE:
        return pairs
    return base + pairs


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
    weighting: Weighting | None = None
    weights: tuple[float, ...] | None = None
    trees: "TreeEnsemble | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric_specs", tuple(self.metric_specs))
        seen: set[str] = set()
        for name in self.metric_names:
            if name in seen:
                raise InvalidSpec(f"duplicate metric name {name!r}")
            seen.add(name)
        n = len(self.metric_specs)
        if self.kind is ModelKind.LINEAR:
            if self.weighting is None or self.weights is None:
                raise MetacalError("linear model requires weighting and weights")
            if self.trees is not None:
                raise MetacalError("linear model must not carry trees")
            weights = tuple(float(w) for w in self.weights)
            object.__setattr__(self, "weights", weights)
            expected = len(expanded_feature_names(self.metric_names, self.weighting))
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
    """The target's z, one value per matrix row in row order."""
    if target.z is None:
        raise MetacalError("target carries no pointwise z")
    validate_alignment(matrix, target)
    return target.z


def unstack_pairs(stacked: Sequence) -> tuple[Sequence, Sequence]:
    """Split a sequence in stacked row order into its (chosen, rejected)
    halves, each in pair order."""
    return stacked[0::2], stacked[1::2]


def unit_rows(target: PreferenceTarget | None, units: Sequence[int]) -> np.ndarray:
    """The matrix rows of the given target units, unit by unit; without a
    target every row is its own unit."""
    per_unit = 1 if target is None else target.rows_per_unit
    first = per_unit * np.asarray(units, dtype=np.intp).reshape(-1, 1)
    return (first + np.arange(per_unit)).ravel()


def validate_alignment(matrix: ScoreMatrix, target: PreferenceTarget) -> None:
    """Check that a score matrix and a preference target describe the same
    data: as many rows as the target's units have members."""
    if matrix.n_examples != target.n_units * target.rows_per_unit:
        raise MissingTarget(
            f"{matrix.n_examples} matrix rows for {target.n_units} {target.kind.value} judgments"
        )
