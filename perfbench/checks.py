"""Output checks run after each pass, outside the timed region.

Each check recomputes what a stage should have produced without calling
the code path under test: meta-scores from the model JSON (clip, rescale,
orient, then weights or a tree walk), tau-b by O(n^2) pair enumeration, and
pairwise accuracy by counting.  A check returns a list of failure messages;
an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

TOLERANCE = 1e-12
KENDALL_SAMPLE = 2000
ID_COLUMNS = ("dataset", "system", "segment")
BUILTIN = ("bleu", "chrf", "rouge1", "rouge2", "rougel")


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Table:
    """A score file as read independently of metacal.io."""

    ids: list[tuple[str, ...]]
    columns: dict[str, np.ndarray]
    human: np.ndarray | None
    categories: list[str] | None  # per pair, JSONL only


def read_table(path: str, fmt: str) -> Table:
    if fmt == "jsonl":
        ids, rows, categories = [], [], []
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh):
                record = json.loads(line)
                categories.append(record["category"])
                for side in ("chosen", "rejected"):
                    ids.append(("-", record["group"], f"{i}:{side}"))
                    rows.append(record[side])
        names = list(rows[0])
        columns = {n: np.asarray([r[n] for r in rows], dtype=np.float64) for n in names}
        return Table(ids, columns, None, categories)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        records = list(reader)
    col = {name: k for k, name in enumerate(header)}
    ids = [tuple(r[col[c]] for c in ID_COLUMNS) for r in records]
    columns = {
        name: np.asarray([float(r[k]) for r in records])
        for name, k in col.items()
        if name not in ID_COLUMNS and name not in ("hypothesis", "reference", "human")
    }
    human = np.asarray([float(r[col["human"]]) for r in records]) if "human" in col else None
    return Table(ids, columns, human, None)


def _tree_walk(node: dict, x: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    if "value" in node:
        out[rows] = node["value"]
        return
    left = x[rows, node["feature"]] < node["threshold"]
    _tree_walk(node["left"], x, rows[left], out)
    _tree_walk(node["right"], x, rows[~left], out)


def recompute_meta(model: dict[str, Any], table: Table) -> np.ndarray:
    """Meta-scores from a model JSON object and raw score columns."""
    normalized = []
    for spec in model["metrics"]:
        lo, hi = spec["min"], spec["max"]
        scaled = (np.clip(table.columns[spec["name"]], lo, hi) - lo) / (hi - lo)
        normalized.append(scaled if spec["higher_is_better"] else 1.0 - scaled)
    x = np.column_stack(normalized)
    if model["kind"] == "linear":
        if model["weighting"] != "linear":
            raise ValueError(f"unchecked weighting {model['weighting']!r}")
        return np.sum(x * np.asarray(model["weights"]), axis=1)
    out = np.full(x.shape[0], model["base_score"])
    tree_out = np.empty(x.shape[0])
    rows = np.arange(x.shape[0])
    for tree in model["trees"]:
        _tree_walk(tree, x, rows, tree_out)
        out += model["learning_rate"] * tree_out
    return out


def brute_kendall(a: np.ndarray, b: np.ndarray) -> float:
    """Tau-b by enumerating every pair i < j."""
    s = n_a = n_b = 0
    for i in range(a.size - 1):
        da = np.sign(a[i + 1:] - a[i])
        db = np.sign(b[i + 1:] - b[i])
        s += int(np.sum(da * db))
        n_a += int(np.count_nonzero(da))
        n_b += int(np.count_nonzero(db))
    return min(1.0, max(-1.0, s / math.sqrt(float(n_a) * float(n_b))))


class Checker:
    """Checks for one pass; caches parsed files the pass reads more than once."""

    def __init__(self, metacal_io: Any, kendall_tau: Any, seed: int) -> None:
        self._io = metacal_io
        self._kendall_tau = kendall_tau
        self._seed = seed
        self._tables: dict[str, Table] = {}
        self.quality: list[float] = []

    def table(self, path: str, fmt: str = "csv") -> Table:
        if path not in self._tables:
            self._tables[path] = read_table(path, fmt)
        return self._tables[path]

    def basemetrics(self, scores: str, corpus: str) -> list[str]:
        table, source = self.table(scores), self.table(corpus)
        failures = []
        if table.ids != source.ids:
            failures.append(f"{scores}: example ids differ from {corpus}")
        for name in BUILTIN:
            values = table.columns.get(name)
            if values is None or not np.all((values >= 0.0) & (values <= 1.0)):
                failures.append(f"{scores}: column {name} missing or outside [0, 1]")
        if (table.human is None) != (source.human is None) or (
            source.human is not None and not np.array_equal(table.human, source.human)
        ):
            failures.append(f"{scores}: human scores not carried over from {corpus}")
        return failures

    def split(self, source: str, train: str, test: str, fraction: float, fmt: str) -> list[str]:
        if fmt == "jsonl":
            with open(source, encoding="utf-8") as fh:
                total = sum(1 for _ in fh)
            with open(train, encoding="utf-8") as fh:
                n_train = sum(1 for _ in fh)
            with open(test, encoding="utf-8") as fh:
                n_test = sum(1 for _ in fh)
            overlap_ok = True
        else:
            src_ids = self.table(source).ids
            train_ids, test_ids = self.table(train).ids, self.table(test).ids
            total, n_train, n_test = len(src_ids), len(train_ids), len(test_ids)
            overlap_ok = sorted(train_ids + test_ids) == sorted(src_ids)
        if n_train != math.floor(fraction * total) or n_train + n_test != total or not overlap_ok:
            return [f"split of {source}: {n_train} + {n_test} rows from {total}"]
        return []

    def model(self, path: str) -> list[str]:
        try:
            self._io.load_model(path)
        except Exception as exc:  # any failure to load is a check failure
            return [f"{path}: does not load: {exc}"]
        return []

    def score(self, model_path: str, scores: str, fmt: str, meta: str) -> list[str]:
        with open(model_path, encoding="utf-8") as fh:
            model = json.load(fh)
        table = self.table(scores, fmt)
        expected = recompute_meta(model, table)
        with open(meta, encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))[1:]
        ids = [tuple(r[:3]) for r in records]
        got = np.asarray([float(r[3]) for r in records])
        if ids != table.ids:
            return [f"{meta}: example ids differ from {scores}"]
        err = float(np.max(np.abs(got - expected)))
        if not err <= TOLERANCE:
            return [f"{meta}: meta-scores differ from the model by {err:.3g}"]
        return []

    def evaluate(self, report_path: str, scores: str, fmt: str, meta: str) -> list[str]:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(meta, encoding="utf-8", newline="") as fh:
            got = np.asarray([float(r[3]) for r in list(csv.reader(fh))[1:]])
        table = self.table(scores, fmt)
        if fmt == "jsonl":
            return self._evaluate_pairwise(report, table, got, report_path)
        return self._evaluate_pointwise(report, table, got, report_path)

    def _evaluate_pointwise(self, report: dict, table: Table, meta: np.ndarray, path: str) -> list[str]:
        value = report.get("avg_corr")
        if not isinstance(value, float) or not -1.0 <= value <= 1.0:
            return [f"{path}: avg_corr {value!r} is not a correlation"]
        if sorted(report["datasets"]) != sorted({i[0] for i in table.ids}):
            return [f"{path}: dataset list differs from the scored file"]
        rng = np.random.default_rng(self._seed)
        n = meta.size
        sample = np.sort(rng.choice(n, size=min(n, KENDALL_SAMPLE), replace=False))
        a, b = meta[sample], table.human[sample]
        err = abs(brute_kendall(a, b) - self._kendall_tau(a, b))
        if not err <= TOLERANCE:
            return [f"{path}: kendall_tau differs from pair enumeration by {err:.3g}"]
        self.quality.append(value)
        return []

    def _evaluate_pairwise(self, report: dict, table: Table, meta: np.ndarray, path: str) -> list[str]:
        chosen, rejected = meta[0::2], meta[1::2]
        categories = np.asarray(table.categories)
        expected = {}
        for category in sorted(set(table.categories)):
            mask = categories == category
            wins = np.count_nonzero(chosen[mask] > rejected[mask])
            ties = np.count_nonzero(chosen[mask] == rejected[mask])
            expected[category] = (wins + 0.5 * ties) / int(np.count_nonzero(mask))
        overall = float(np.mean(list(expected.values())))
        got = report.get("categories", {})
        if sorted(got) != sorted(expected) or any(
            not abs(got[c] - expected[c]) <= TOLERANCE for c in expected
        ) or not abs(report.get("overall_accuracy", math.nan) - overall) <= TOLERANCE:
            return [f"{path}: accuracies differ from recomputation"]
        self.quality.append(report["overall_accuracy"])
        return []
