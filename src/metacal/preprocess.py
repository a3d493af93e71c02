"""Raw-score preprocessing: clip to the declared range, rescale to [0, 1],
invert lower-is-better metrics.

The steps run in exactly that order.  Clipping absorbs out-of-range values
(neural metrics routinely overshoot their nominal range), so normalization
never fails on real inputs.  A NaN or infinite raw score is refused with
`NonFiniteInput`, never clipped into a plausible one.  Range metadata is
user-supplied configuration: ranges are metric knowledge, not something
estimated from data.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import MetacalError, MetricSpec, ScoreMatrix
from .objectives import NonFiniteInput


class SpecMismatch(MetacalError):
    """Metric specs do not line up with the matrix columns."""


def normalize_score(raw: float, spec: MetricSpec) -> float:
    """`normalize_values` of one raw score."""
    raw = float(raw)
    if not math.isfinite(raw):
        raise NonFiniteInput(f"{spec.name}: raw score must be finite, got {raw!r}")
    return float(normalize_values(np.array([[raw]]), [spec])[0, 0])


def normalize_values(values: np.ndarray, specs: Sequence[MetricSpec]) -> np.ndarray:
    """Clip each column of a raw (M, N) array into its spec's [min, max],
    rescale it to [0, 1], and invert it when lower raw scores are better."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(specs):
        raise SpecMismatch(
            f"value shape {arr.shape} does not match {len(specs)} specs"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteInput("raw scores must be finite")
    out = np.empty_like(arr)
    for j, spec in enumerate(specs):
        col = np.clip(arr[:, j], spec.min, spec.max)
        scaled = (col - spec.min) / (spec.max - spec.min)
        out[:, j] = scaled if spec.higher_is_better else 1.0 - scaled
    return out


def normalize_matrix(matrix: ScoreMatrix, specs: Sequence[MetricSpec]) -> ScoreMatrix:
    """`normalize_values` of the matrix values; example ids pass through.
    `specs` name the matrix columns in order."""
    names = tuple(s.name for s in specs)
    if names != matrix.metric_names:
        raise SpecMismatch(f"specs {list(names)} do not match columns {list(matrix.metric_names)}")
    return ScoreMatrix(
        matrix.metric_names,
        matrix.example_ids,
        normalize_values(matrix.values, specs),
    )


def unit_specs(names: Sequence[str]) -> tuple[MetricSpec, ...]:
    """Identity specs (0, 1, higher-is-better) for already-normalized columns."""
    return tuple(MetricSpec(name, 0.0, 1.0, True) for name in names)
