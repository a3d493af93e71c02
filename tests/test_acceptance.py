"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

import metacal.gbt as gbt_mod
from metacal.cli import main
from metacal.core import ExampleId, MetricSpec, PreferenceTarget, ScoreMatrix
from metacal.gbt import GbtConfig, calibrate_gbt, gbt_train, search_n_estimators
from metacal.gp import GpConfig, calibrate_gp, expand_features, gp_fit, gp_predict
from metacal.harness import GroupedScores, acc_t, seg_pearson, sys_pearson
from metacal.core import Weighting
from metacal.io import load_scores_csv, save_specs
from metacal.objectives import ObjectiveKind, kendall_tau, pearson_r, spearman_rho
from metacal.preprocess import normalize_score
from metacal.textmetrics import builtin_specs

from oracles import (
    gp_dense_oracle,
    naive_kendall_tau,
    naive_pearson,
    naive_spearman,
)

CORPUS = Path(__file__).resolve().parent.parent / "src" / "metacal" / "data" / "desk_corpus.csv"
METRICS = ("bleu", "chrf", "rouge1", "rouge2", "rougel")


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_01_correlation_oracle_parity():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        while True:
            if rng.uniform() < 0.6:
                a = rng.integers(0, 5, size=n).astype(float)
                b = rng.integers(0, 5, size=n).astype(float)
            else:
                a = rng.normal(size=n)
                b = rng.normal(size=n)
            if not np.all(a == a[0]) and not np.all(b == b[0]):
                break
        worst = max(
            worst,
            abs(kendall_tau(a, b) - naive_kendall_tau(a, b)),
            abs(spearman_rho(a, b) - naive_spearman(a, b)),
            abs(pearson_r(a, b) - naive_pearson(a, b)),
        )
    elapsed = time.time() - start
    _report(
        "1 correlation oracle parity",
        worst <= 1e-12 and elapsed < 10.0,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_gp_exactness():
    rng = np.random.default_rng(0)
    cfg = GpConfig()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        weights = rng.uniform(0, 1, (n, d))
        rho = rng.normal(0, 1, n)
        model = gp_fit(weights, rho, cfg)
        for _ in range(5):
            query = rng.uniform(0, 1, d)
            mean, std = gp_predict(model, query)
            want_mean, want_std = gp_dense_oracle(
                weights, rho, model.lengthscale, model.jitter, query
            )
            worst = max(worst, abs(mean - want_mean), abs(std - want_std))
    _report("2 GP exactness vs dense solve", worst <= 1e-8, f"worst deviation {worst:.2e}")


def test_criterion_03_bo_recovery():
    start = time.time()
    passed = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = 200
        y = rng.uniform(0, 1, (m, 2))
        z = 0.7 * y[:, 0] + 0.3 * y[:, 1] + rng.normal(0.0, 0.1, m)
        ids = tuple(ExampleId("-", "-", str(i)) for i in range(m))
        matrix = ScoreMatrix(("y1", "y2"), ids, y)
        target = PreferenceTarget.from_pointwise(z)
        model = calibrate_gp(matrix, target, ObjectiveKind.KENDALL, GpConfig(seed=seed))
        tau = kendall_tau(y @ np.asarray(model.weights), z)

        grid_best = max(
            kendall_tau(y @ np.array([w1, 1.0 - w1]), z) for w1 in np.linspace(0, 1, 101)
        )
        baselines = max(
            kendall_tau(y @ np.ones(2), z),
            kendall_tau(y[:, 0], z),
            kendall_tau(y[:, 1], z),
        )
        if tau >= grid_best - 0.02 and tau >= baselines:
            passed += 1
    elapsed = time.time() - start
    _report(
        "3 BO recovery of a known mixture",
        passed >= 95 and elapsed < 120.0,
        f"{passed}/100 seeds, {elapsed:.0f}s",
    )


def test_criterion_04_gbt_loss_monotonicity():
    cfg = GbtConfig(
        n_estimators_low=1, n_estimators_high=1, n_estimators_step=1,
        max_depth=3, learning_rate=0.3, reg_lambda=0.0, gamma=0.0,
    )
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        x = rng.uniform(0, 1, (40, 3))
        y = rng.normal(0, 1, 40)
        model = gbt_train(x, y, cfg, 100)
        preds = np.full(40, model.base_score)
        previous = np.mean((preds - y) ** 2)
        for tree in model.trees:
            preds = preds + model.learning_rate * gbt_mod._predict_tree(tree, x)
            current = np.mean((preds - y) ** 2)
            if not current <= previous:
                ok = False
            previous = current
    _report("4 GBT training loss monotonicity", ok)


def test_criterion_05_iterative_pruning_behavior():
    specs = tuple(MetricSpec(n, 0.0, 1.0) for n in ("inf_a", "inf_b", "noise"))
    noise_first = 0
    cv_exact = True
    for seed in range(100):
        rng = np.random.default_rng(300 + seed)
        m = 300
        x = rng.uniform(0, 1, (m, 3))
        z = 1.5 * x[:, 0] + 0.8 * x[:, 1] + rng.normal(0.0, 0.1, m)
        cfg = GbtConfig(
            n_estimators_low=20, n_estimators_high=20, n_estimators_step=1,
            max_depth=3, cv_folds=3, seed=seed,
        )
        model, trace = calibrate_gbt(x, z, ObjectiveKind.KENDALL, cfg, specs, prune_iterations=3)
        if trace.pruned_features[0] == "noise":
            noise_first += 1
        retained = [j for j, s in enumerate(specs) if s.name in model.metric_names]
        _, final_cv = search_n_estimators(x[:, retained], z, ObjectiveKind.KENDALL, cfg)
        if final_cv != max(trace.performances):
            cv_exact = False
    _report(
        "5 iterative pruning drops the noise feature",
        noise_first >= 90 and cv_exact,
        f"noise pruned first in {noise_first}/100, CV-equality exact: {cv_exact}",
    )


def test_criterion_06_multiplicative_expansion():
    rng = np.random.default_rng(106)
    ok = True
    for n in range(2, 9):
        y = rng.uniform(0, 1, n)
        multiplicative = expand_features(y, Weighting.MULTIPLICATIVE)
        combined = expand_features(y, Weighting.COMBINED)
        expected_pairs = [y[i] * y[j] for i in range(n) for j in range(i + 1, n)]
        if multiplicative.size != n * (n - 1) // 2 or combined.size != n + n * (n - 1) // 2:
            ok = False
        if list(multiplicative) != expected_pairs:
            ok = False
        if list(combined) != list(y) + expected_pairs:
            ok = False
    _report("6 multiplicative expansion arithmetic", ok)


def test_criterion_07_preprocessing_invariants():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(10_000):
        low = float(rng.uniform(-1e3, 1e3))
        span = float(rng.uniform(1e-3, 1e3))
        spec_up = MetricSpec("m", low, low + span, True)
        spec_down = MetricSpec("m", low, low + span, False)
        raw_a = float(rng.uniform(low - span, low + 2 * span))
        raw_b = float(rng.uniform(low - span, low + 2 * span))
        up_a = normalize_score(raw_a, spec_up)
        if not 0.0 <= up_a <= 1.0:
            ok = False
        lo_raw, hi_raw = min(raw_a, raw_b), max(raw_a, raw_b)
        if normalize_score(lo_raw, spec_up) > normalize_score(hi_raw, spec_up):
            ok = False
        if normalize_score(lo_raw, spec_down) < normalize_score(hi_raw, spec_down):
            ok = False
        if normalize_score(raw_a, spec_down) != 1.0 - up_a:
            ok = False
    _report("7 preprocessing range/monotonicity/involution", ok)


def test_criterion_08_harness_statistics():
    # 3 systems x 2 segments with system means: human [3,2,1], metric [0.5,0.7,0.1]
    cells = [
        (ExampleId("wmt", "A", "1"), 0.4, 2.5),
        (ExampleId("wmt", "A", "2"), 0.6, 3.5),
        (ExampleId("wmt", "B", "1"), 0.6, 1.5),
        (ExampleId("wmt", "B", "2"), 0.8, 2.5),
        (ExampleId("wmt", "C", "1"), 0.05, 0.5),
        (ExampleId("wmt", "C", "2"), 0.15, 1.5),
    ]
    grouped = GroupedScores.from_examples(cells)
    ok = abs(acc_t(grouped, "wmt") - 2 / 3) <= 1e-12
    ok &= abs(sys_pearson(grouped, "wmt") - naive_pearson([0.5, 0.7, 0.1], [3, 2, 1])) <= 1e-12
    flat_metric = [0.4, 0.6, 0.6, 0.8, 0.05, 0.15]
    flat_human = [2.5, 3.5, 1.5, 2.5, 0.5, 1.5]
    ok &= abs(seg_pearson(grouped, "wmt") - naive_pearson(flat_metric, flat_human)) <= 1e-12

    rng = np.random.default_rng(108)
    for _ in range(100):
        n_sys = int(rng.integers(2, 7))
        n_seg = int(rng.integers(1, 5))
        table = []
        negated = []
        for s in range(n_sys):
            for g in range(n_seg):
                metric, human = float(rng.normal()), float(rng.normal())
                eid = ExampleId("d", f"s{s}", f"g{g}")
                table.append((eid, metric, human))
                negated.append((eid, -metric, human))
        a = acc_t(GroupedScores.from_examples(table), "d")
        b = acc_t(GroupedScores.from_examples(negated), "d")
        if abs((a + b) - 1.0) > 1e-12:
            ok = False
    _report("8 harness statistics + negation symmetry", ok)


def _run_pipeline(workdir: Path, seed: int) -> dict[str, Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "specs": workdir / "specs.json",
        "scores": workdir / "scores.csv",
        "train": workdir / "train.csv",
        "test": workdir / "test.csv",
        "gp_model": workdir / "gp.json",
        "gbt_model": workdir / "gbt.json",
        "gp_meta": workdir / "meta_gp.csv",
        "gbt_meta": workdir / "meta_gbt.csv",
        "gp_report": workdir / "report_gp.json",
        "gbt_report": workdir / "report_gbt.json",
        "gp_weights": workdir / "weights_gp.json",
    }
    save_specs(builtin_specs(METRICS), str(paths["specs"]))
    assert main(["basemetrics", "--input", str(CORPUS), "--output", str(paths["scores"])]) == 0
    assert main(["split", "--scores", str(paths["scores"]), "--specs", str(paths["specs"]),
                 "--seed", str(seed),
                 "--train-output", str(paths["train"]), "--test-output", str(paths["test"])]) == 0
    assert main(["calibrate", "--scores", str(paths["train"]), "--specs", str(paths["specs"]),
                 "--method", "gp", "--seed", str(seed), "--output", str(paths["gp_model"])]) == 0
    assert main(["calibrate", "--scores", str(paths["train"]), "--specs", str(paths["specs"]),
                 "--method", "gbt", "--seed", str(seed),
                 "--max-depth", "2", "--learning-rate", "0.05",
                 "--n-estimators-low", "50", "--n-estimators-high", "300",
                 "--n-estimators-step", "50",
                 "--output", str(paths["gbt_model"])]) == 0
    for tag in ("gp", "gbt"):
        assert main(["score", "--model", str(paths[f"{tag}_model"]),
                     "--scores", str(paths["test"]), "--output", str(paths[f"{tag}_meta"])]) == 0
        assert main(["evaluate", "--model", str(paths[f"{tag}_model"]),
                     "--scores", str(paths["test"]), "--output", str(paths[f"{tag}_report"])]) == 0
    assert main(["report", "--model", str(paths["gp_model"]),
                 "--output", str(paths["gp_weights"])]) == 0
    return paths


def _held_out_tau(meta_csv: Path, test_csv: Path) -> float:
    matrix, target = load_scores_csv(str(test_csv), builtin_specs(METRICS))
    z = target.z
    with open(meta_csv) as fh:
        rows = list(csv.DictReader(fh))
    meta = {(r["dataset"], r["system"], r["segment"]): float(r["meta_score"]) for r in rows}
    scores = np.asarray([meta[tuple(eid)] for eid in matrix.example_ids])
    return kendall_tau(scores, z)


def test_criterion_09_end_to_end_desk_run(tmp_path):
    start = time.time()
    run_a = _run_pipeline(tmp_path / "run_a", seed=0)
    run_b = _run_pipeline(tmp_path / "run_b", seed=0)
    elapsed = time.time() - start

    identical = all(
        run_a[key].read_bytes() == run_b[key].read_bytes() for key in run_a
    )

    matrix, target = load_scores_csv(str(run_a["test"]), builtin_specs(METRICS))
    z = target.z
    best_single = max(
        kendall_tau(matrix.values[:, j], z) for j in range(matrix.n_metrics)
    )
    gp_tau = _held_out_tau(run_a["gp_meta"], run_a["test"])
    gbt_tau = _held_out_tau(run_a["gbt_meta"], run_a["test"])

    _report(
        "9 end-to-end desk run",
        elapsed < 60.0 and identical and gp_tau >= best_single and gbt_tau >= best_single,
        f"{elapsed:.0f}s (two runs), byte-identical: {identical}, "
        f"gp {gp_tau:.3f} / gbt {gbt_tau:.3f} vs best single {best_single:.3f}",
    )


def test_criterion_10_command_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "first", seed=42)
    second = _run_pipeline(tmp_path / "second", seed=42)
    mismatched = [k for k in first if first[k].read_bytes() != second[k].read_bytes()]
    _report(
        "10 byte-identical artifacts under a fixed seed",
        not mismatched,
        f"mismatched: {mismatched}" if mismatched else "all artifacts identical",
    )
