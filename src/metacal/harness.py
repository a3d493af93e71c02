"""Meta-evaluation statistics over grouped (metric, human) scores.

Per dataset: system-level Pearson over per-system mean scores, segment-level
Pearson over the flattened system x segment cells, and acc-t, the fraction
of human-rankable system pairs the metric orders the same way.  The overall
avg-corr is an unweighted mean over every per-dataset statistic; that
aggregation is a documented local convention, not a reimplementation of any
shared-task script, so reports label it explicitly.

Each dataset is grouped once into the arrays the statistics read (see
`GroupedScores`): labels sort as Python strings, and a system's mean adds its
cells in first-seen row order with numpy's pairwise sum over one 1-D array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import ExampleId, MetacalError
from .objectives import (
    DegenerateInput,
    EmptyInput,
    LengthMismatch,
    NonFiniteInput,
    pairwise_accuracy,
    pearson_r,
)

TIE_POLICIES = ("strict", "half")


class NoRankablePairs(MetacalError):
    """Every system pair is tied on human means; acc-t is undefined."""


class DatasetScores(NamedTuple):
    """One dataset's scores as the statistics read them: each cell's metric
    and human score in (system, segment) key order, then each system's mean
    metric and mean human score, systems in sorted order."""

    cell_metric: np.ndarray
    cell_human: np.ndarray
    system_metric: np.ndarray
    system_human: np.ndarray

    @classmethod
    def of(cls, cells: Mapping[tuple[str, str], int], scores: np.ndarray) -> "DatasetScores":
        """`cells` maps (system, segment) to its column of `scores` (metric, human rows)."""
        rows: dict[str, list[int]] = {}
        for (system, _), i in cells.items():
            rows.setdefault(system, []).append(i)
        by_key = [cells[key] for key in sorted(cells)]
        means = [[row[rows[system]].mean() for system in sorted(rows)] for row in scores]
        return cls(*(row[by_key] for row in scores), *np.array(means))


@dataclass(frozen=True)
class GroupedScores:
    """dataset -> `DatasetScores`: cell scores in (system, segment) key order
    and per-system means, each over one contiguous array of the system's cells
    in first-seen row order.  The system x segment grid may be ragged;
    statistics only ever use the cells present."""

    groups: Mapping[str, DatasetScores]

    @classmethod
    def from_examples(cls, examples: Iterable[tuple[ExampleId, float, float]]) -> "GroupedScores":
        cells: dict[str, dict[tuple[str, str], int]] = {}
        metric, human = [], []
        for (dataset, system, segment), metric_score, human_score in examples:
            dataset_cells = cells.setdefault(dataset, {})
            if (system, segment) in dataset_cells:
                raise MetacalError(f"duplicate cell {(system, segment)} in dataset {dataset!r}")
            dataset_cells[system, segment] = len(metric)
            metric.append(metric_score)
            human.append(human_score)
        scores = np.array([metric, human], dtype=np.float64)
        return cls({dataset: DatasetScores.of(c, scores) for dataset, c in cells.items()})

    def datasets(self) -> tuple[str, ...]:
        return tuple(self.groups)

    def _scores(self, dataset: str) -> DatasetScores:
        if dataset not in self.groups:
            raise MetacalError(f"unknown dataset {dataset!r}")
        return self.groups[dataset]


def sys_pearson(grouped: GroupedScores, dataset: str) -> float:
    """Pearson between per-system mean metric and mean human scores."""
    scores = grouped._scores(dataset)
    if scores.system_metric.size < 2:
        raise DegenerateInput(f"dataset {dataset!r} has fewer than 2 systems")
    return pearson_r(scores.system_metric, scores.system_human)


def seg_pearson(grouped: GroupedScores, dataset: str) -> float:
    """Pearson over the flattened (system, segment) cells."""
    scores = grouped._scores(dataset)
    if scores.cell_metric.size < 2:
        raise DegenerateInput(f"dataset {dataset!r} has fewer than 2 cells")
    return pearson_r(scores.cell_metric, scores.cell_human)


def acc_t(grouped: GroupedScores, dataset: str, tie_policy: str = "strict") -> float:
    """System-pair ranking accuracy.

    Pairs whose human means tie are excluded from the denominator.  A
    metric-mean tie earns 0 under the default "strict" policy and 0.5 under
    "half" (a sensitivity-check alternative).  Non-finite means are refused.
    """
    if tie_policy not in TIE_POLICIES:
        raise MetacalError(f"tie_policy must be one of {TIE_POLICIES}")
    _, _, metric, human = grouped._scores(dataset)
    if metric.size < 2:
        raise NoRankablePairs(f"dataset {dataset!r} has fewer than 2 systems")
    if not (np.isfinite(metric).all() and np.isfinite(human).all()):
        raise NonFiniteInput(f"system mean scores of {dataset!r} must be finite")
    i, j = np.triu_indices(metric.size, 1)
    dh = np.sign(human[i] - human[j])
    dm = np.sign(metric[i] - metric[j])
    rankable = int(np.count_nonzero(dh))
    if rankable == 0:
        raise NoRankablePairs(f"all system pairs tie on human means in {dataset!r}")
    wins = int(np.count_nonzero(dh * dm > 0))
    ties = int(np.count_nonzero(dh[dm == 0])) if tie_policy == "half" else 0
    # Whole and half credits add exactly, as a pair-by-pair sum would.
    return (wins + 0.5 * ties) / rankable


@dataclass(frozen=True)
class DatasetStats:
    sys_pearson: float
    seg_pearson: float
    acc_t: float

    def as_triple(self) -> tuple[float, float, float]:
        return (self.sys_pearson, self.seg_pearson, self.acc_t)


def avg_corr(parts: Mapping[str, DatasetStats]) -> float:
    """Unweighted mean over every (dataset x statistic) value; all finite."""
    if not parts:
        raise EmptyInput("no dataset statistics to aggregate")
    values = [v for stats in parts.values() for v in stats.as_triple()]
    if not np.isfinite(values).all():
        raise NonFiniteInput("dataset statistics must be finite")
    return float(np.mean(values))


@dataclass(frozen=True)
class EvalReport:
    """Per-dataset correlation statistics plus the aggregate, or per-category
    pairwise accuracies for preference-style data."""

    datasets: dict[str, DatasetStats] = field(default_factory=dict)
    avg_corr: float | None = None
    tie_policy: str = "strict"
    category_accuracy: dict[str, float] | None = None
    overall_accuracy: float | None = None


def build_report(grouped: GroupedScores, tie_policy: str = "strict") -> EvalReport:
    """Compute all per-dataset statistics and the unweighted aggregate."""
    stats = {
        dataset: DatasetStats(sys_pearson(grouped, dataset), seg_pearson(grouped, dataset),
                              acc_t(grouped, dataset, tie_policy))
        for dataset in grouped.datasets()
    }
    return EvalReport(datasets=stats, avg_corr=avg_corr(stats), tie_policy=tie_policy)


def grouped_pairwise_accuracy(
    categories: Sequence[str], chosen: Sequence[float], rejected: Sequence[float]
) -> EvalReport:
    """Per-category pairwise accuracy over aligned arrays, pair i being
    (categories[i], chosen[i], rejected[i]) meta-scores; the overall figure
    is the unweighted category mean."""
    c = np.asarray(chosen, dtype=np.float64)
    r = np.asarray(rejected, dtype=np.float64)
    if not len(categories) == c.size == r.size:
        raise LengthMismatch("categories, chosen and rejected scores differ in length")
    rows: dict[str, list[int]] = {}
    for i, category in enumerate(categories):
        rows.setdefault(category, []).append(i)
    if not rows:
        raise EmptyInput("no preference pairs")
    accuracies = {
        category: pairwise_accuracy(c[members], r[members])
        for category, members in sorted(rows.items())
    }
    return EvalReport(
        category_accuracy=accuracies,
        overall_accuracy=float(np.mean(list(accuracies.values()))),
    )
