"""Meta-evaluation statistics over grouped (metric, human) scores.

Per dataset: system-level Pearson over per-system mean scores, segment-level
Pearson over the flattened system x segment cells, and acc-t, the fraction
of human-rankable system pairs the metric orders the same way.  The overall
avg-corr is an unweighted mean over every per-dataset statistic; that
aggregation is a documented local convention, not a reimplementation of any
shared-task script, so reports label it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ExampleId, MetacalError
from .objectives import DegenerateInput, EmptyInput, LengthMismatch, pairwise_accuracy, pearson_r

TIE_POLICIES = ("strict", "half")


class NoRankablePairs(MetacalError):
    """Every system pair is tied on human means; acc-t is undefined."""


@dataclass(frozen=True)
class GroupedScores:
    """dataset -> (system, segment) -> (metric_score, human_score).

    The system x segment grid may be ragged; statistics only ever use the
    cells present.
    """

    groups: Mapping[str, Mapping[tuple[str, str], tuple[float, float]]]

    @classmethod
    def from_examples(
        cls, examples: Iterable[tuple[ExampleId, float, float]]
    ) -> "GroupedScores":
        groups: dict[str, dict[tuple[str, str], tuple[float, float]]] = {}
        for eid, metric_score, human_score in examples:
            eid = ExampleId(*eid)
            cells = groups.setdefault(eid.dataset, {})
            key = (eid.system, eid.segment)
            if key in cells:
                raise MetacalError(f"duplicate cell {key} in dataset {eid.dataset!r}")
            cells[key] = (float(metric_score), float(human_score))
        return cls(groups)

    def datasets(self) -> tuple[str, ...]:
        return tuple(self.groups)

    def _cells(self, dataset: str) -> Mapping[tuple[str, str], tuple[float, float]]:
        if dataset not in self.groups:
            raise MetacalError(f"unknown dataset {dataset!r}")
        return self.groups[dataset]


def _system_means(
    cells: Mapping[tuple[str, str], tuple[float, float]]
) -> tuple[list[str], np.ndarray, np.ndarray]:
    per_system: dict[str, list[tuple[float, float]]] = {}
    for (system, _), scores in cells.items():
        per_system.setdefault(system, []).append(scores)
    systems = sorted(per_system)
    metric = np.asarray([np.mean([s[0] for s in per_system[name]]) for name in systems])
    human = np.asarray([np.mean([s[1] for s in per_system[name]]) for name in systems])
    return systems, metric, human


def sys_pearson(grouped: GroupedScores, dataset: str) -> float:
    """Pearson between per-system mean metric and mean human scores."""
    _, metric, human = _system_means(grouped._cells(dataset))
    if metric.size < 2:
        raise DegenerateInput(f"dataset {dataset!r} has fewer than 2 systems")
    return pearson_r(metric, human)


def seg_pearson(grouped: GroupedScores, dataset: str) -> float:
    """Pearson over the flattened (system, segment) cells."""
    cells = grouped._cells(dataset)
    keys = sorted(cells)
    metric = np.asarray([cells[k][0] for k in keys])
    human = np.asarray([cells[k][1] for k in keys])
    if metric.size < 2:
        raise DegenerateInput(f"dataset {dataset!r} has fewer than 2 cells")
    return pearson_r(metric, human)


def acc_t(grouped: GroupedScores, dataset: str, tie_policy: str = "strict") -> float:
    """System-pair ranking accuracy.

    Pairs whose human means tie are excluded from the denominator.  A
    metric-mean tie earns 0 under the default "strict" policy and 0.5 under
    "half" (a sensitivity-check alternative).
    """
    if tie_policy not in TIE_POLICIES:
        raise MetacalError(f"tie_policy must be one of {TIE_POLICIES}")
    _, metric, human = _system_means(grouped._cells(dataset))
    if metric.size < 2:
        raise NoRankablePairs(f"dataset {dataset!r} has fewer than 2 systems")
    rankable = 0
    credit = 0.0
    for i in range(metric.size):
        for j in range(i + 1, metric.size):
            dh = human[i] - human[j]
            if dh == 0.0:
                continue
            rankable += 1
            dm = metric[i] - metric[j]
            if dm == 0.0:
                credit += 0.5 if tie_policy == "half" else 0.0
            elif (dh > 0.0) == (dm > 0.0):
                credit += 1.0
    if rankable == 0:
        raise NoRankablePairs(f"all system pairs tie on human means in {dataset!r}")
    return credit / rankable


@dataclass(frozen=True)
class DatasetStats:
    sys_pearson: float
    seg_pearson: float
    acc_t: float

    def as_triple(self) -> tuple[float, float, float]:
        return (self.sys_pearson, self.seg_pearson, self.acc_t)


def avg_corr(parts: Mapping[str, DatasetStats]) -> float:
    """Unweighted mean over every (dataset x statistic) value."""
    if not parts:
        raise EmptyInput("no dataset statistics to aggregate")
    values = [v for stats in parts.values() for v in stats.as_triple()]
    return float(np.mean(values))


@dataclass(frozen=True)
class EvalReport:
    """Per-dataset correlation statistics plus the aggregate, or per-category
    pairwise accuracies for preference-style data."""

    datasets: dict[str, DatasetStats] = field(default_factory=dict)
    avg_corr: float | None = None
    avg_corr_aggregation: str = "unweighted"
    tie_policy: str = "strict"
    category_accuracy: dict[str, float] | None = None
    overall_accuracy: float | None = None


def build_report(grouped: GroupedScores, tie_policy: str = "strict") -> EvalReport:
    """Compute all per-dataset statistics and the unweighted aggregate."""
    stats: dict[str, DatasetStats] = {}
    for dataset in grouped.datasets():
        stats[dataset] = DatasetStats(
            sys_pearson=sys_pearson(grouped, dataset),
            seg_pearson=seg_pearson(grouped, dataset),
            acc_t=acc_t(grouped, dataset, tie_policy),
        )
    return EvalReport(
        datasets=stats,
        avg_corr=avg_corr(stats),
        tie_policy=tie_policy,
    )


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
