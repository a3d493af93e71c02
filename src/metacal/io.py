"""File formats, model persistence, and model application.

CSV carries text corpora, tabular scores and meta-scores, JSONL carries
pairwise preference records, and JSON carries metric specs, models, and
reports.  Every numeric value in an output file is serialized with 17
significant digits, which round-trips float64 exactly and makes repeated
runs byte-identical.  Every output file is written whole or not at all.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence, TextIO

import numpy as np

from .core import (
    CalibratedModel,
    ExampleId,
    MetacalError,
    MetricSpec,
    ModelKind,
    PreferencePair,
    PreferenceTarget,
    ScoreMatrix,
    TargetKind,
    Weighting,
    pointwise_z,
    unstack_pairs,
    validate_alignment,
)
from .gbt import Leaf, Node, Split, TreeEnsemble
from .gp import expand_matrix, expanded_feature_names
from .harness import EvalReport
from .preprocess import normalize_values
from .textmetrics import SegmentPair

MODEL_SCHEMA_VERSION = 1
ID_COLUMNS = ("dataset", "system", "segment")
HUMAN_COLUMN = "human"


class ParseError(MetacalError):
    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line


class HeaderMismatch(MetacalError):
    """The file header does not cover the declared metric names."""


class NonFiniteValue(MetacalError):
    def __init__(self, line: int, column: str) -> None:
        super().__init__(f"line {line}: non-finite value in column {column!r}")
        self.line = line


class SchemaVersionUnsupported(MetacalError):
    pass


class MalformedModel(MetacalError):
    pass


class ColumnMismatch(MetacalError):
    """Matrix columns do not cover the model's metric specs."""


# ---------------------------------------------------------------------------
# Canonical JSON with fixed float formatting
# ---------------------------------------------------------------------------


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise MetacalError(f"cannot serialize non-finite value {value!r}")
    return format(float(value), ".17g")


def _emit(obj: Any, parts: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(f'{pad}  {json.dumps(str(key))}: ')
            _emit(value, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(pad + "  ")
            _emit(value, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    else:
        raise MetacalError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj: Any) -> str:
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def dumps_compact(obj: Any) -> str:
    """Single-line variant of the canonical encoding (for JSONL records)."""
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {dumps_compact(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_compact(v) for v in obj) + "]"
    parts: list[str] = []
    _emit(obj, parts, 0)
    return "".join(parts)


@contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """Write `path` through a temp file in the same directory, moved into
    place only once writing succeeds; on any failure the temp file is
    removed, so no command leaves a partial artifact behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _parse_json(text: str, error: Callable[[str], MetacalError]) -> Any:
    """`json.loads`, raising `error(reason)` for any text it cannot decode."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # An integer too long to convert, or nesting deeper than the stack.
        raise error(f"unreadable JSON: {exc}") from None


def write_json(obj: Any, path: str) -> None:
    with _replacing(path) as fh:
        fh.write(dumps_canonical(obj))


# ---------------------------------------------------------------------------
# Metric spec files
# ---------------------------------------------------------------------------


def specs_to_obj(specs: Sequence[MetricSpec]) -> list[dict]:
    return [
        {
            "name": s.name,
            "min": float(s.min),
            "max": float(s.max),
            "higher_is_better": s.higher_is_better,
        }
        for s in specs
    ]


def specs_from_obj(obj: Any) -> tuple[MetricSpec, ...]:
    if not isinstance(obj, list) or not obj:
        raise MetacalError("metric spec file must be a non-empty JSON array")
    specs = []
    for entry in obj:
        try:
            higher_is_better = entry["higher_is_better"]
            if not isinstance(higher_is_better, bool):
                raise MetacalError(f"{entry!r}: higher_is_better must be true or false")
            specs.append(
                MetricSpec(
                    name=str(entry["name"]),
                    min=float(entry["min"]),
                    max=float(entry["max"]),
                    higher_is_better=higher_is_better,
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MetacalError(f"bad metric spec entry {entry!r}: {exc}") from exc
    return tuple(specs)


def load_specs(path: str) -> tuple[MetricSpec, ...]:
    with open(path, encoding="utf-8") as fh:
        return specs_from_obj(_parse_json(fh.read(), MetacalError))


def save_specs(specs: Sequence[MetricSpec], path: str) -> None:
    write_json(specs_to_obj(specs), path)


# ---------------------------------------------------------------------------
# Score ingestion
# ---------------------------------------------------------------------------


def _parse_value(text: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(line, f"cannot parse {text!r} in column {column!r}") from exc
    if not math.isfinite(value):
        raise NonFiniteValue(line, column)
    return value


def _read_table(
    path: str, columns: Sequence[str], parse: Callable[[int, tuple[str, ...]], Any]
) -> tuple[list[ExampleId], list, PreferenceTarget | None]:
    """Read a CSV table: the id columns, `columns`, and an optional human
    column.  Other columns are ignored and may repeat; a column read here
    may not.  Blank rows are skipped; a UTF-8 byte-order mark is dropped.

    Returns the example ids, `parse(line, fields)` of each row, where
    `fields` holds the row's `columns` in order, and a pointwise target
    when the human column is present.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(1, "empty file")
            used = [*ID_COLUMNS, *columns]
            missing = [c for c in used if c not in header]
            if missing:
                raise HeaderMismatch(f"missing columns: {', '.join(missing)}")
            has_human = HUMAN_COLUMN in header
            if has_human:
                used.append(HUMAN_COLUMN)
            repeated = [c for c in used if header.count(c) > 1]
            if repeated:
                raise HeaderMismatch(f"repeated columns: {', '.join(repeated)}")
            pick = itemgetter(*(header.index(c) for c in used))  # >= 3 columns: a tuple
            end = len(ID_COLUMNS) + len(columns)

            ids: list[ExampleId] = []
            rows: list = []
            zs: dict[ExampleId, float] = {}
            for line, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != len(header):
                    raise ParseError(line, f"{len(record)} fields, header has {len(header)}")
                fields = pick(record)
                eid = ExampleId(fields[0], fields[1], fields[2])
                ids.append(eid)
                rows.append(parse(line, fields[3:end]))
                if has_human:
                    zs[eid] = _parse_value(fields[end], line, HUMAN_COLUMN)
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ParseError(reader.line_num, str(exc)) from exc
    return ids, rows, (PreferenceTarget.from_pointwise(zs) if has_human else None)


def load_scores_csv(
    path: str, specs: Sequence[MetricSpec]
) -> tuple[ScoreMatrix, PreferenceTarget | None]:
    """Read a score table: id columns, one column per metric, optional human.

    Extra columns are ignored so a wide score file can serve narrower metric
    subsets.  Returns a pointwise target when the human column is present.
    """
    names = [s.name for s in specs]
    ids, rows, target = _read_table(
        path, names,
        lambda line, fields: [_parse_value(v, line, m) for v, m in zip(fields, names)],
    )
    values = np.asarray(rows, dtype=np.float64).reshape(len(ids), len(names))
    return ScoreMatrix(tuple(names), tuple(ids), values), target


def load_corpus_csv(
    path: str,
) -> tuple[list[ExampleId], list[SegmentPair], PreferenceTarget | None]:
    """Read a text corpus: id columns, hypothesis, reference, optional human.
    Returns the ids, the segment pairs and a pointwise target when the human
    column is present."""
    return _read_table(
        path, ("hypothesis", "reference"), lambda line, fields: SegmentPair(*fields)
    )


def save_scores_csv(
    matrix: ScoreMatrix, path: str, target: PreferenceTarget | None = None
) -> None:
    header = [*ID_COLUMNS, *matrix.metric_names]
    zs = None
    if target is not None:
        zs = pointwise_z(matrix, target)
        header.append(HUMAN_COLUMN)
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, (eid, row) in enumerate(zip(matrix.example_ids, matrix.values)):
            record = [*eid, *(format_float(v) for v in row)]
            if zs is not None:
                record.append(format_float(zs[i]))
            writer.writerow(record)


def save_meta_scores(
    example_ids: Sequence[ExampleId], scores: np.ndarray, path: str
) -> None:
    """Write one meta-score per example as CSV: id columns, meta_score."""
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*ID_COLUMNS, "meta_score"])
        for eid, value in zip(example_ids, scores):
            writer.writerow([*eid, format_float(value)])


def load_scores_jsonl(
    path: str, specs: Sequence[MetricSpec]
) -> tuple[ScoreMatrix, PreferenceTarget]:
    """Read pairwise preference records:

        {"group": ..., "category": ..., "chosen": {metric: value},
         "rejected": {metric: value}}

    Returns the stacked member matrix (chosen at row 2i, rejected at 2i+1)
    and the pairwise target.
    """
    names = [s.name for s in specs]
    pairs: list[PreferencePair] = []
    ids: list[ExampleId] = []
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        for line, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            record = _parse_json(raw, lambda reason: ParseError(line, reason))
            if not isinstance(record, dict) or "chosen" not in record or "rejected" not in record:
                raise ParseError(line, "record needs 'chosen' and 'rejected' objects")
            group = str(record.get("group", line - 1))
            category = str(record.get("category", "-"))
            for side in ("chosen", "rejected"):
                scores = record[side]
                if not isinstance(scores, dict):
                    raise ParseError(line, f"{side!r} must be an object of metric scores")
                missing = [m for m in names if m not in scores]
                if missing:
                    raise HeaderMismatch(
                        f"line {line}: {side} record missing metrics: {', '.join(missing)}"
                    )
                rows.append([_parse_value(str(scores[m]), line, m) for m in names])
                ids.append(ExampleId("-", group, f"{len(pairs)}:{side}"))
            pairs.append(PreferencePair(group_id=group, category=category))
    if not pairs:
        raise ParseError(1, "no pairwise records")
    matrix = ScoreMatrix(tuple(names), tuple(ids), np.asarray(rows, dtype=np.float64))
    return matrix, PreferenceTarget.from_pairs(pairs)


def save_scores_jsonl(target: PreferenceTarget, path: str, matrix: ScoreMatrix) -> None:
    """Write one pairwise record per pair; member scores come from the
    stacked matrix rows."""
    if target.kind is not TargetKind.PAIRWISE:
        raise MetacalError("JSONL score files carry pairwise targets only")
    validate_alignment(matrix, target)
    names = matrix.metric_names
    chosen, rejected = unstack_pairs(matrix.values.tolist())
    with _replacing(path) as fh:
        for pair, c, r in zip(target.pairwise, chosen, rejected):
            record = {
                "group": pair.group_id,
                "category": pair.category,
                "chosen": dict(zip(names, c)),
                "rejected": dict(zip(names, r)),
            }
            fh.write(dumps_compact(record) + "\n")


def load_scores(
    path: str, fmt: str, specs: Sequence[MetricSpec]
) -> tuple[ScoreMatrix, PreferenceTarget | None]:
    if fmt == "csv":
        return load_scores_csv(path, specs)
    if fmt == "jsonl":
        return load_scores_jsonl(path, specs)
    raise MetacalError(f"unknown score format {fmt!r}")


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------


def _node_to_obj(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"value": float(node.value)}
    return {
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "gain": float(node.gain),
        "left": _node_to_obj(node.left),
        "right": _node_to_obj(node.right),
    }


def _json_int(value: Any, name: str) -> int:
    """`value` if it is a JSON integer; true, false and 2.0 are not."""
    if type(value) is not int:
        raise MalformedModel(f"{name} must be an integer, got {value!r}")
    return value


def _node_from_obj(obj: Any) -> Node:
    if not isinstance(obj, dict):
        raise MalformedModel(f"tree node must be an object, got {type(obj).__name__}")
    if "value" in obj:
        if set(obj) != {"value"}:
            raise MalformedModel(f"leaf with unexpected keys: {sorted(obj)}")
        return Leaf(value=float(obj["value"]))
    expected = {"feature", "threshold", "gain", "left", "right"}
    if set(obj) != expected:
        raise MalformedModel(f"split with unexpected keys: {sorted(obj)}")
    return Split(
        feature=_json_int(obj["feature"], "feature"),
        threshold=float(obj["threshold"]),
        gain=float(obj["gain"]),
        left=_node_from_obj(obj["left"]),
        right=_node_from_obj(obj["right"]),
    )


def model_to_obj(model: CalibratedModel) -> dict:
    obj: dict[str, Any] = {
        "version": model.version,
        "kind": model.kind.value,
        "metrics": specs_to_obj(model.metric_specs),
    }
    if model.kind is ModelKind.LINEAR:
        obj["weighting"] = model.weighting.value
        obj["weights"] = [float(w) for w in model.weights]
    else:
        obj["trees"] = [_node_to_obj(t) for t in model.trees.trees]
        obj["base_score"] = float(model.trees.base_score)
        obj["learning_rate"] = float(model.trees.learning_rate)
    obj["objective_used"] = model.objective_used
    obj["seed"] = model.seed
    return obj


_LINEAR_KEYS = {"version", "kind", "metrics", "weighting", "weights", "objective_used", "seed"}
_GBT_KEYS = {"version", "kind", "metrics", "trees", "base_score", "learning_rate", "objective_used", "seed"}


def model_from_obj(obj: Any) -> CalibratedModel:
    if not isinstance(obj, dict):
        raise MalformedModel("model file must hold a JSON object")
    version = obj.get("version")
    if type(version) is not int or version != MODEL_SCHEMA_VERSION:
        raise SchemaVersionUnsupported(f"unsupported model schema version {version!r}")
    kind = obj.get("kind")
    if kind not in ("linear", "gbt"):
        raise MalformedModel(f"unknown model kind {kind!r}")
    allowed = _LINEAR_KEYS if kind == "linear" else _GBT_KEYS
    unknown = set(obj) - allowed
    if unknown:
        raise MalformedModel(f"unknown model keys: {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise MalformedModel(f"missing model keys: {sorted(missing)}")
    try:
        common = dict(
            metric_specs=specs_from_obj(obj["metrics"]),
            objective_used=str(obj["objective_used"]),
            seed=_json_int(obj["seed"], "seed"),
            version=version,
        )
        if kind == "linear":
            return CalibratedModel(
                kind=ModelKind.LINEAR,
                weighting=Weighting(obj["weighting"]),
                weights=tuple(float(w) for w in obj["weights"]),
                **common,
            )
        ensemble = TreeEnsemble(
            trees=tuple(_node_from_obj(t) for t in obj["trees"]),
            base_score=float(obj["base_score"]),
            learning_rate=float(obj["learning_rate"]),
        )
        return CalibratedModel(kind=ModelKind.GBT, trees=ensemble, **common)
    except MetacalError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: int() of an infinity, float() of a huge integer.
        raise MalformedModel(f"bad model payload: {exc}") from exc
    except RecursionError:
        raise MalformedModel("model nests too deeply") from None


def save_model(model: CalibratedModel, path: str) -> None:
    write_json(model_to_obj(model), path)


def load_model(path: str) -> CalibratedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_obj(_parse_json(fh.read(), MalformedModel))


# ---------------------------------------------------------------------------
# Scoring and splitting
# ---------------------------------------------------------------------------


def score_with_model(model: CalibratedModel, matrix: ScoreMatrix) -> np.ndarray:
    """Meta-score every matrix row: select the model's columns by name,
    normalize through its specs, expand features, apply weights or trees."""
    try:
        order = [matrix.metric_names.index(s.name) for s in model.metric_specs]
    except ValueError:
        wanted = set(model.metric_names)
        missing = sorted(wanted - set(matrix.metric_names))
        raise ColumnMismatch(f"matrix lacks model metrics: {', '.join(missing)}") from None
    raw = matrix.values[:, order]
    normalized = normalize_values(raw, model.metric_specs)
    if model.kind is ModelKind.LINEAR:
        features = expand_matrix(normalized, model.weighting)
        return features @ np.asarray(model.weights)
    return model.trees.predict(normalized)


def split_train_test(
    rows: Sequence, fraction: float = 0.30, seed: int = 0
) -> tuple[list, list]:
    """Seeded shuffle-then-split; the train side takes floor(fraction * n)."""
    if not 0.0 < fraction < 1.0:
        raise MetacalError(f"train fraction must be in (0, 1), got {fraction}")
    items = list(rows)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    n_train = int(math.floor(fraction * len(items)))
    train_idx = sorted(order[:n_train].tolist())
    test_idx = sorted(order[n_train:].tolist())
    return [items[i] for i in train_idx], [items[i] for i in test_idx]


def split_matrix(
    matrix: ScoreMatrix,
    target: PreferenceTarget | None,
    fraction: float = 0.30,
    seed: int = 0,
) -> tuple[
    tuple[ScoreMatrix, PreferenceTarget | None],
    tuple[ScoreMatrix, PreferenceTarget | None],
]:
    """Split a score matrix (and its target) by example; pairwise data is
    split by pair so members stay together."""
    if target is not None and target.kind is TargetKind.PAIRWISE:
        train_pairs, test_pairs = split_train_test(
            list(range(len(target.pairwise))), fraction, seed
        )
        chosen, rejected = unstack_pairs(np.arange(matrix.n_examples))

        def subset(pair_ids: list[int]):
            # pair_ids ascend, so their members' rows in matrix order are stacked.
            rows = np.sort(np.concatenate([chosen[pair_ids], rejected[pair_ids]]))
            sub_target = PreferenceTarget.from_pairs(
                target.pairwise[p] for p in pair_ids
            )
            return matrix.take_rows(rows), sub_target

        return subset(train_pairs), subset(test_pairs)

    train_rows, test_rows = split_train_test(range(matrix.n_examples), fraction, seed)

    def subset_rows(rows: list[int]):
        sub = matrix.take_rows(rows)
        if target is None:
            return sub, None
        sub_target = PreferenceTarget.from_pointwise(
            dict(zip(sub.example_ids, pointwise_z(sub, target)))
        )
        return sub, sub_target

    return subset_rows(train_rows), subset_rows(test_rows)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def report_model(model: CalibratedModel, epsilon: float = 0.01) -> tuple[str, dict]:
    """Human-readable text plus a JSON-ready dict of weights or importances.

    Linear models list every stored weight and flag those below `epsilon` as
    dropped; tree models list total-gain importances, largest first.
    """
    from .gbt import feature_importance

    if model.kind is ModelKind.LINEAR:
        names = expanded_feature_names(model.metric_names, model.weighting)
        weights = dict(zip(names, model.weights))
        dropped = [n for n, w in weights.items() if abs(w) < epsilon]
        obj = {
            "kind": "linear",
            "weighting": model.weighting.value,
            "objective_used": model.objective_used,
            "seed": model.seed,
            "sparsity_epsilon": float(epsilon),
            "weights": {n: float(w) for n, w in weights.items()},
            "dropped": dropped,
        }
        lines = [f"linear model ({model.weighting.value} weighting)"]
        for name, weight in weights.items():
            flag = "  [dropped]" if name in dropped else ""
            lines.append(f"  {name}: {format_float(weight)}{flag}")
    else:
        gains = feature_importance(model.trees, len(model.metric_specs)).tolist()
        ranked = sorted(zip(model.metric_names, gains), key=lambda kv: (-kv[1], kv[0]))
        obj = {
            "kind": "gbt",
            "objective_used": model.objective_used,
            "seed": model.seed,
            "n_trees": len(model.trees.trees),
            "importances": {n: float(v) for n, v in ranked},
        }
        lines = [f"gbt model ({len(model.trees.trees)} trees)"]
        for name, value in ranked:
            lines.append(f"  {name}: {format_float(value)}")
    return "\n".join(lines), obj


def report_to_obj(report: EvalReport) -> dict:
    obj: dict[str, Any] = {"version": 1}
    if report.category_accuracy is not None:
        obj["overall_accuracy"] = report.overall_accuracy
        obj["categories"] = {k: float(v) for k, v in report.category_accuracy.items()}
        return obj
    obj["avg_corr"] = report.avg_corr
    obj["avg_corr_aggregation"] = report.avg_corr_aggregation
    obj["tie_policy"] = report.tie_policy
    obj["datasets"] = {
        name: {
            "sys_pearson": stats.sys_pearson,
            "seg_pearson": stats.seg_pearson,
            "acc_t": stats.acc_t,
        }
        for name, stats in report.datasets.items()
    }
    return obj
