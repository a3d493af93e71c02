"""Tracing from outside the program: time the public functions of each
metacal layer by rebinding them from the benchmark, without editing metacal.

A function is reachable under many names: the defining module's global,
every ``from ... import`` copy in another module, dict registries such as
``objectives._CORRELATIONS`` and ``textmetrics.BUILTIN_METRICS``, and class
attributes for methods.  ``Tracer.install`` rebinds every one of them (by
identity, across all loaded ``metacal`` modules) and ``uninstall`` restores
them, so untraced passes run the pristine program.

Spans are kept in memory as ``Span`` records (name, start, end, parent
index, attributes) and written out once at the end of a run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# (layer, qualified name in that layer's module)
TRACED = (
    ("textmetrics", "score_corpus"),
    ("textmetrics", "bleu"),
    ("textmetrics", "chrf"),
    ("textmetrics", "rouge_1"),
    ("textmetrics", "rouge_2"),
    ("textmetrics", "rouge_l"),
    ("io", "load_scores"),
    ("io", "save_scores_csv"),
    ("io", "save_scores_jsonl"),
    ("io", "score_with_model"),
    ("io", "save_model"),
    ("io", "load_model"),
    ("preprocess", "normalize_matrix"),
    ("preprocess", "normalize_values"),
    ("objectives", "kendall_tau"),
    ("objectives", "spearman_rho"),
    ("objectives", "pearson_r"),
    ("objectives", "pairwise_accuracy"),
    ("objectives", "score_or_worst"),
    ("gp", "calibrate_gp"),
    ("gp", "gp_fit"),
    ("gp", "suggest_next"),
    ("gbt", "calibrate_gbt"),
    ("gbt", "cross_validate"),
    ("gbt", "gbt_train"),
    ("gbt", "feature_importance"),
    ("gbt", "TreeEnsemble.predict"),
    ("harness", "GroupedScores.from_examples"),
    ("harness", "build_report"),
    ("harness", "grouped_pairwise_accuracy"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[position]


def _observe(qualname: str, args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    """Counts recorded on a span, read from the call's arguments and result."""
    if qualname == "score_corpus":
        return {"segments": len(_arg(args, kwargs, 0, "pairs"))}
    if qualname == "kendall_tau":
        return {"rows": int(np.asarray(_arg(args, kwargs, 0, "a")).size)}
    if qualname == "load_scores":
        matrix, target = result
        pairs = target.pairwise if target is not None else None
        return {"rows": len(pairs) if pairs is not None else matrix.n_examples}
    if qualname == "save_scores_csv":
        return {"rows": _arg(args, kwargs, 0, "matrix").n_examples}
    if qualname == "save_scores_jsonl":
        return {"rows": len(_arg(args, kwargs, 0, "target").pairwise)}
    if qualname == "save_model":
        return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}
    if qualname == "gp_fit":
        config = _arg(args, kwargs, 2, "config")
        return {"jitter_escalated": int(result.jitter > config.noise_jitter)}
    if qualname == "gbt_train":
        return {"trees": int(_arg(args, kwargs, 3, "n_estimators"))}
    if qualname == "calibrate_gbt":
        model, trace = result
        return {
            "trees_kept": len(model.trees.trees),
            "prune_rounds": len(trace.performances) if trace is not None else 0,
        }
    return {}


class Tracer:
    """Collects spans for calls into metacal while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, qualname: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[index].attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer.end(index)
            tracer.spans[index].attrs.update(_observe(qualname, args, kwargs, result))
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function under every name metacal holds it by."""
        modules = [m for n, m in sys.modules.items() if n == "metacal" or n.startswith("metacal.")]
        for layer, qualname in TRACED:
            owner = sys.modules[f"metacal.{layer}"]
            name = f"{layer}.{qualname.split('.')[-1]}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    replacement: Any = classmethod(self._wrap(name, attr, raw.__func__))
                else:
                    replacement = self._wrap(name, attr, raw)
                setattr(cls, attr, replacement)
                self._undo.append(functools.partial(setattr, cls, attr, raw))
                continue
            original = getattr(owner, qualname)
            self._rebind(modules, original, self._wrap(name, qualname, original))

    def _rebind(self, modules: list, original: Callable, replacement: Callable) -> None:
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement
                    self._undo.append(functools.partial(namespace.__setitem__, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = replacement
                            self._undo.append(functools.partial(value.__setitem__, k, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                record = {"id": i, "name": span.name, "start": span.start, "end": span.end,
                          "parent": span.parent, **span.attrs}
                fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("textmetrics.score_corpus_s", "s"),
    ("textmetrics.segments", "count"),
    ("textmetrics.bleu_s", "s"),
    ("textmetrics.chrf_s", "s"),
    ("textmetrics.rouge1_s", "s"),
    ("textmetrics.rouge2_s", "s"),
    ("textmetrics.rougel_s", "s"),
    ("io.load_scores_s", "s"),
    ("io.rows_read", "count"),
    ("io.save_scores_s", "s"),
    ("io.rows_written", "count"),
    ("io.score_with_model_s", "s"),
    ("io.model_save_s", "s"),
    ("io.model_load_s", "s"),
    ("io.model_bytes", "bytes"),
    ("preprocess.normalize_s", "s"),
    ("preprocess.calls", "count"),
    ("objectives.kendall_s", "s"),
    ("objectives.kendall_calls", "count"),
    ("objectives.kendall_rows", "count"),
    ("objectives.spearman_s", "s"),
    ("objectives.spearman_calls", "count"),
    ("objectives.pearson_s", "s"),
    ("objectives.pairwise_s", "s"),
    ("objectives.pairwise_calls", "count"),
    ("objectives.degenerate", "count"),
    ("gp.calibrate_self_s", "s"),
    ("gp.fit_s", "s"),
    ("gp.fit_calls", "count"),
    ("gp.suggest_s", "s"),
    ("gp.suggest_calls", "count"),
    ("gp.objective_evals", "count"),
    ("gp.objective_s", "s"),
    ("gp.jitter_escalations", "count"),
    ("gbt.train_s", "s"),
    ("gbt.train_calls", "count"),
    ("gbt.trees_built", "count"),
    ("gbt.trees_kept", "count"),
    ("gbt.tree_yield", "ratio"),
    ("gbt.cv_s", "s"),
    ("gbt.cv_calls", "count"),
    ("gbt.predict_s", "s"),
    ("gbt.importance_s", "s"),
    ("gbt.degenerate_folds", "count"),
    ("gbt.prune_rounds", "count"),
    ("harness.group_s", "s"),
    ("harness.build_report_s", "s"),
    ("harness.grouped_pairwise_s", "s"),
)

# Metrics that count silent fallbacks: zero on healthy inputs.
FALLBACK_COUNTS = ("objectives.degenerate", "gp.jitter_escalations", "gbt.degenerate_folds")

_CORRELATIONS = ("objectives.kendall_tau", "objectives.spearman_rho", "objectives.pearson_r")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals and counts over a list of spans (one traced pass).

    A time is the wall time spent inside any of the named functions, each
    instant counted once even where the functions nest (``normalize_matrix``
    calls ``normalize_values``; ``spearman_rho`` calls ``pearson_r``).
    """
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def ancestors(i: int):
        p = spans[i].parent
        while p >= 0:
            yield p
            p = spans[p].parent

    def outermost(*names: str) -> list[int]:
        wanted = set(names)
        return [i for n in names for i in by_name.get(n, ())
                if not any(spans[a].name in wanted for a in ancestors(i))]

    def seconds(*names: str) -> float:
        return float(sum(spans[i].seconds for i in outermost(*names)))

    def calls(*names: str) -> int:
        return len(outermost(*names))

    def attr(name: str, key: str) -> int:
        return int(sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ())))

    children: dict[int, float] = {}
    for span in spans:
        if span.parent >= 0:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    gp_spans = by_name.get("gp.calibrate_gp", [])
    gp_parents = set(gp_spans)
    gp_objective = [
        i for i, span in enumerate(spans)
        if span.parent in gp_parents
        and span.name in ("objectives.score_or_worst", "objectives.pairwise_accuracy")
    ]
    degenerate = [
        i for n in _CORRELATIONS for i in by_name.get(n, ())
        if spans[i].attrs.get("raised") == "DegenerateInput"
        and any(spans[a].name == "objectives.score_or_worst" for a in ancestors(i))
    ]
    built = attr("gbt.gbt_train", "trees")
    kept = attr("gbt.calibrate_gbt", "trees_kept")
    return {
        "textmetrics.score_corpus_s": seconds("textmetrics.score_corpus"),
        "textmetrics.segments": attr("textmetrics.score_corpus", "segments"),
        "textmetrics.bleu_s": seconds("textmetrics.bleu"),
        "textmetrics.chrf_s": seconds("textmetrics.chrf"),
        "textmetrics.rouge1_s": seconds("textmetrics.rouge_1"),
        "textmetrics.rouge2_s": seconds("textmetrics.rouge_2"),
        "textmetrics.rougel_s": seconds("textmetrics.rouge_l"),
        "io.load_scores_s": seconds("io.load_scores"),
        "io.rows_read": attr("io.load_scores", "rows"),
        "io.save_scores_s": seconds("io.save_scores_csv", "io.save_scores_jsonl"),
        "io.rows_written": attr("io.save_scores_csv", "rows") + attr("io.save_scores_jsonl", "rows"),
        "io.score_with_model_s": seconds("io.score_with_model"),
        "io.model_save_s": seconds("io.save_model"),
        "io.model_load_s": seconds("io.load_model"),
        "io.model_bytes": attr("io.save_model", "bytes"),
        "preprocess.normalize_s": seconds("preprocess.normalize_matrix", "preprocess.normalize_values"),
        "preprocess.calls": calls("preprocess.normalize_matrix", "preprocess.normalize_values"),
        "objectives.kendall_s": seconds("objectives.kendall_tau"),
        "objectives.kendall_calls": calls("objectives.kendall_tau"),
        "objectives.kendall_rows": attr("objectives.kendall_tau", "rows"),
        "objectives.spearman_s": seconds("objectives.spearman_rho"),
        "objectives.spearman_calls": calls("objectives.spearman_rho"),
        "objectives.pearson_s": seconds("objectives.pearson_r"),
        "objectives.pairwise_s": seconds("objectives.pairwise_accuracy"),
        "objectives.pairwise_calls": calls("objectives.pairwise_accuracy"),
        "objectives.degenerate": len(degenerate),
        "gp.calibrate_self_s": float(sum(spans[i].seconds - children.get(i, 0.0) for i in gp_spans)),
        "gp.fit_s": seconds("gp.gp_fit"),
        "gp.fit_calls": calls("gp.gp_fit"),
        "gp.suggest_s": seconds("gp.suggest_next"),
        "gp.suggest_calls": calls("gp.suggest_next"),
        "gp.objective_evals": len(gp_objective),
        "gp.objective_s": float(sum(spans[i].seconds for i in gp_objective)),
        "gp.jitter_escalations": attr("gp.gp_fit", "jitter_escalated"),
        "gbt.train_s": seconds("gbt.gbt_train"),
        "gbt.train_calls": calls("gbt.gbt_train"),
        "gbt.trees_built": built,
        "gbt.trees_kept": kept,
        "gbt.tree_yield": kept / built if built else 0.0,
        "gbt.cv_s": seconds("gbt.cross_validate"),
        "gbt.cv_calls": calls("gbt.cross_validate"),
        "gbt.predict_s": seconds("gbt.predict"),
        "gbt.importance_s": seconds("gbt.feature_importance"),
        "gbt.degenerate_folds": sum(
            1 for i in degenerate if any(spans[a].name == "gbt.cross_validate" for a in ancestors(i))
        ),
        "gbt.prune_rounds": attr("gbt.calibrate_gbt", "prune_rounds"),
        "harness.group_s": seconds("harness.from_examples"),
        "harness.build_report_s": seconds("harness.build_report"),
        "harness.grouped_pairwise_s": seconds("harness.grouped_pairwise_accuracy"),
    }
