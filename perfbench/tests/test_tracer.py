"""Self-test of the benchmark's tracer: run every workload at its smallest
size with tracing on and check that each layer's metrics come out nonzero.

A layer whose function is reached through a binding the tracer failed to
rebind (a ``from ... import`` copy in another module, a registry dict
entry, a method) would read zero here.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metacal.cli  # noqa: E402
import metacal.gbt  # noqa: E402
import metacal.gp  # noqa: E402
import metacal.io  # noqa: E402
import metacal.objectives  # noqa: E402

import checks  # noqa: E402
import plans  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Pass  # noqa: E402


def _bindings() -> dict:
    """Every function-valued binding metacal holds, by location."""
    found = {}
    for name, module in sys.modules.items():
        if name != "metacal" and not name.startswith("metacal."):
            continue
        for key, value in vars(module).items():
            if callable(value):
                found[(name, key)] = value
                for attr, member in vars(value).items() if isinstance(value, type) else ():
                    found[(name, key, attr)] = member
            elif isinstance(value, dict) and key != "__builtins__":
                for k, v in value.items():
                    if callable(v):
                        found[(name, key, repr(k))] = v
    return found


@pytest.mark.parametrize("workload", sorted(plans.PLANS))
def test_traced_pass_reports_every_layer(workload, tmp_path):
    inputs = workloads.generate(workload, ROOT, 0, str(tmp_path / "inputs"), workloads.TINY)
    spans = tracer.Tracer()
    checker = checks.Checker(metacal.io, metacal.objectives.kendall_tau, 0)
    p = Pass(metacal.cli.main, str(tmp_path / "pass"), checker, spans)
    spans.install()
    try:
        plans.PLANS[workload](p, inputs, 0, workloads.TINY)
    finally:
        spans.uninstall()
    p.finish(check=True)
    assert [f for c in p.calls for f in c.failures] == []

    metrics = tracer.layer_metrics(spans.spans)
    assert sorted(metrics) == sorted(name for name, _ in tracer.PER_LAYER)
    may_be_zero = set(tracer.FALLBACK_COUNTS)
    if workload != "desk":  # only desk prunes
        may_be_zero.add("gbt.prune_rounds")
    zero = [name for name, value in metrics.items() if name not in may_be_zero and not value > 0]
    assert zero == []
    stages = [s for s in spans.spans if s.name.startswith("stage.")]
    assert all(s.parent == -1 for s in stages)
    assert sum(1 for s in spans.spans if s.parent == -1) == len(stages)


def test_uninstall_restores_every_binding():
    before = _bindings()
    spans = tracer.Tracer()
    spans.install()
    patched = _bindings()
    spans.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    changed = {k for k in before if patched[k] is not before[k]}
    # The bindings a plain module-attribute patch would miss.
    for key in [
        ("metacal.cli", "calibrate_gp"),
        ("metacal.cli", "score_corpus"),
        ("metacal.gp", "score_or_worst"),
        ("metacal.gbt", "pairwise_accuracy"),
        ("metacal.io", "normalize_values"),
        ("metacal.harness", "pearson_r"),
        ("metacal.objectives", "_CORRELATIONS", repr(metacal.objectives.ObjectiveKind.KENDALL)),
        ("metacal.textmetrics", "BUILTIN_METRICS", repr("chrf")),
        ("metacal.gbt", "TreeEnsemble", "predict"),
    ]:
        assert key in changed, key


def test_fallback_counters_count_silent_fallbacks():
    kendall = metacal.objectives.ObjectiveKind.KENDALL
    spans = tracer.Tracer()
    spans.install()
    try:
        assert metacal.objectives.score_or_worst(kendall, [1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == -1.0
        surrogate = metacal.gp.gp_fit(
            [[0.5, 0.5]] * 3, [0.1, 0.2, 0.3], metacal.gp.GpConfig(noise_jitter=1e-17))
        config = metacal.gbt.GbtConfig(n_estimators_low=1, n_estimators_high=1, cv_folds=2)
        value = metacal.gbt.cross_validate(np.zeros((10, 1)), np.arange(10.0), kendall, config, 1)
    finally:
        spans.uninstall()
    assert surrogate.jitter > 1e-17
    assert value == -1.0
    metrics = tracer.layer_metrics(spans.spans)
    assert metrics["objectives.degenerate"] == 3
    assert metrics["gbt.degenerate_folds"] == 2
    assert metrics["gp.jitter_escalations"] == 1
