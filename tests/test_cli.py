import csv
import gc
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import metacal.cli
from metacal.cli import build_parser, main
from metacal.core import CalibratedModel, MetricSpec, ModelKind, Weighting
from metacal.gbt import GbtConfig, Tree, TreeEnsemble
from metacal.gp import GpConfig
from metacal.io import dumps_canonical, load_model, load_scores_csv, model_to_obj, save_model, save_specs
from metacal.textmetrics import builtin_specs

CORPUS = Path(__file__).resolve().parent.parent / "src" / "metacal" / "data" / "desk_corpus.csv"
METRICS = ("bleu", "chrf", "rouge1", "rouge2", "rougel")


@pytest.fixture()
def specs_path(tmp_path):
    path = str(tmp_path / "specs.json")
    save_specs(builtin_specs(METRICS), path)
    return path


@pytest.fixture()
def scores_path(tmp_path):
    out = str(tmp_path / "scores.csv")
    assert main(["basemetrics", "--input", str(CORPUS), "--output", out]) == 0
    return out


def _write_pairs_jsonl(path):
    """Twelve pairs over METRICS, each chosen member above its rejected one
    on every metric; returns the path as a string."""
    rng = np.random.default_rng(0)
    with open(path, "w") as fh:
        for i in range(12):
            chosen = {m: float(v) for m, v in zip(METRICS, rng.uniform(0.5, 1, 5))}
            rejected = {m: float(v) for m, v in zip(METRICS, rng.uniform(0, 0.5, 5))}
            fh.write(json.dumps({
                "group": f"g{i}", "category": "chat" if i % 2 else "safety",
                "chosen": chosen, "rejected": rejected,
            }) + "\n")
    return str(path)


def _tiny_gbt_flags():
    return [
        "--max-depth", "2", "--cv-folds", "3",
        "--n-estimators-low", "10", "--n-estimators-high", "20", "--n-estimators-step", "10",
    ]


def test_calibrate_defaults_are_the_config_defaults():
    args = vars(build_parser().parse_args(["calibrate", "--scores", "s", "--specs", "p",
                                           "--output", "o"]))
    for config, names in [
        (GpConfig(), ("init_points", "n_iter", "kappa")),
        (GbtConfig(), ("max_depth", "learning_rate", "reg_lambda", "gamma", "cv_folds",
                       "n_estimators_low", "n_estimators_high", "n_estimators_step")),
    ]:
        assert {n: args[n] for n in names} == {n: getattr(config, n) for n in names}


class TestBasemetrics:
    def test_produces_score_table_with_human(self, scores_path):
        matrix, target = load_scores_csv(scores_path, builtin_specs(METRICS))
        assert matrix.n_examples == 200
        assert matrix.metric_names == METRICS
        assert target is not None
        assert np.all(matrix.values >= 0) and np.all(matrix.values <= 1)

    def test_unknown_metric_is_validation_error(self, tmp_path):
        rc = main([
            "basemetrics", "--input", str(CORPUS),
            "--output", str(tmp_path / "x.csv"), "--metrics", "bleu,nope",
        ])
        assert rc == 2

    def test_empty_selection_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["basemetrics", "--input", str(CORPUS), "--output", str(out), "--metrics", " , "])
        assert rc == 2
        assert "no built-in metric" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_metric_is_rejected_before_scoring(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("scored a selection that names a metric twice")

        monkeypatch.setattr("metacal.cli.score_corpus", never)
        out = tmp_path / "x.csv"
        rc = main(["basemetrics", "--input", str(CORPUS), "--output", str(out),
                   "--metrics", "bleu,chrf,bleu"])
        assert rc == 2
        assert "twice" in capsys.readouterr().err
        assert not out.exists()


class TestCalibrateAndScore:
    def test_gp_then_score_and_report(self, tmp_path, specs_path, scores_path):
        model_path = str(tmp_path / "gp.json")
        rc = main([
            "calibrate", "--scores", scores_path, "--specs", specs_path,
            "--method", "gp", "--seed", "1", "--n-iter", "10", "--output", model_path,
        ])
        assert rc == 0
        model = load_model(model_path)
        assert model.metric_names == METRICS

        meta_path = str(tmp_path / "meta.csv")
        assert main(["score", "--model", model_path, "--scores", scores_path,
                     "--output", meta_path]) == 0
        with open(meta_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        assert all("meta_score" in r for r in rows)

        report_path = str(tmp_path / "weights.json")
        assert main(["report", "--model", model_path, "--output", report_path]) == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert set(report["weights"]) == set(METRICS)

    def test_gbt_with_pruning(self, tmp_path, specs_path, scores_path):
        model_path = str(tmp_path / "gbt.json")
        rc = main([
            "calibrate", "--scores", scores_path, "--specs", specs_path,
            "--method", "gbt", "--seed", "1", "--prune-iterations", "2",
            *_tiny_gbt_flags(), "--output", model_path,
        ])
        assert rc == 0
        model = load_model(model_path)
        assert model.kind.value == "gbt"
        assert set(model.metric_names) <= set(METRICS)

    def test_top_k_restricts_metrics(self, tmp_path, specs_path, scores_path):
        model_path = str(tmp_path / "topk.json")
        rc = main([
            "calibrate", "--scores", scores_path, "--specs", specs_path,
            "--method", "gp", "--seed", "0", "--n-iter", "5", "--top-k", "2",
            "--output", model_path,
        ])
        assert rc == 0
        assert len(load_model(model_path).metric_specs) == 2

    def test_more_prune_iterations_than_metrics_is_validation_error(
        self, tmp_path, specs_path, scores_path, capsys
    ):
        model_path = tmp_path / "gbt.json"
        rc = main([
            "calibrate", "--scores", scores_path, "--specs", specs_path,
            "--method", "gbt", "--prune-iterations", "6", *_tiny_gbt_flags(),
            "--output", str(model_path),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: prune_iterations must be in [1, 5], got 6\n"
        assert not model_path.exists()

    def test_a_pointwise_fold_of_one_judgment_is_validation_error(
        self, tmp_path, specs_path, scores_path, capsys
    ):
        # The quick-start train split holds 60 judgments; 40 folds hold out 1 or 2.
        train = str(tmp_path / "train.csv")
        assert main(["split", "--scores", scores_path, "--specs", specs_path, "--seed", "0",
                     "--train-output", train, "--test-output", str(tmp_path / "test.csv")]) == 0
        capsys.readouterr()
        model_path = tmp_path / "gbt.json"
        rc = main(["calibrate", "--scores", train, "--specs", specs_path, "--method", "gbt",
                   "--cv-folds", "40", "--output", str(model_path)])
        assert rc == 2
        assert capsys.readouterr().err == ("error: 40 folds over 60 pointwise judgments hold out "
                                           "only 1 in a fold; a held-out correlation needs 2\n")
        assert not model_path.exists()

    def test_prune_with_gp_is_validation_error(self, tmp_path, specs_path, scores_path):
        rc = main([
            "calibrate", "--scores", scores_path, "--specs", specs_path,
            "--method", "gp", "--prune-iterations", "2",
            "--output", str(tmp_path / "x.json"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("flags, env, message", [
        (["--method", "gbt", "--weighting", "multiplicative"], None,
         "error: --weighting is only valid with --method gp"),
        (["--top-k", "0"], None, "error: --top-k must be >= 1"),
        (["--method", "gbt", "--prune-iterations", "0"], None, "error: --prune-iterations must be >= 1"),
        (["--seed", "-1"], None, "error: --seed must be >= 0, got -1"),
        ([], "abc", "error: METACAL_SEED must be an integer, got 'abc'"),
        ([], "-2", "error: METACAL_SEED must be >= 0, got -2"),
        (["--objective", "pairwise"], None, "error: --objective pairwise is only valid with --format jsonl"),
        (["--method", "gbt", "--objective", "pairwise", "--format", "csv"], None,
         "error: --objective pairwise is only valid with --format jsonl"),
        (["--top-k", "2", "--objective", "pairwise"], None,
         "error: --objective pairwise is only valid with --format jsonl"),
    ])
    def test_flag_rules_are_checked_before_any_file_is_read(
        self, tmp_path, capsys, monkeypatch, flags, env, message
    ):
        if env is None:
            monkeypatch.delenv("METACAL_SEED", raising=False)
        else:
            monkeypatch.setenv("METACAL_SEED", env)
        rc = main(["calibrate", "--scores", str(tmp_path / "absent.csv"),
                   "--specs", str(tmp_path / "absent.json"), "--output", str(tmp_path / "m.json"),
                   *flags])
        assert rc == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "m.json").exists()

    def test_missing_human_column_is_validation_error(self, tmp_path, specs_path, scores_path):
        stripped = str(tmp_path / "nohuman.csv")
        with open(scores_path) as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("human")
        with open(stripped, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in rows:
                writer.writerow(row[:drop] + row[drop + 1:])
        rc = main([
            "calibrate", "--scores", stripped, "--specs", specs_path,
            "--method", "gp", "--output", str(tmp_path / "x.json"),
        ])
        assert rc == 2

    def test_seed_env_fallback(self, tmp_path, specs_path, scores_path, monkeypatch):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        monkeypatch.setenv("METACAL_SEED", "77")
        assert main(["calibrate", "--scores", scores_path, "--specs", specs_path,
                     "--method", "gp", "--n-iter", "5", "--output", a]) == 0
        monkeypatch.delenv("METACAL_SEED")
        assert main(["calibrate", "--scores", scores_path, "--specs", specs_path,
                     "--method", "gp", "--n-iter", "5", "--seed", "77", "--output", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert load_model(a).seed == 77


class TestEvaluate:
    def test_model_report_structure(self, tmp_path, specs_path, scores_path):
        model_path = str(tmp_path / "gp.json")
        assert main(["calibrate", "--scores", scores_path, "--specs", specs_path,
                     "--method", "gp", "--seed", "2", "--n-iter", "5",
                     "--output", model_path]) == 0
        report_path = str(tmp_path / "report.json")
        assert main(["evaluate", "--model", model_path, "--scores", scores_path,
                     "--output", report_path]) == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert report["avg_corr_aggregation"] == "unweighted"
        stats = report["datasets"]["synthetic"]
        for key in ("sys_pearson", "seg_pearson", "acc_t"):
            assert -1.0 <= stats[key] <= 1.0

    def test_raw_metric_column(self, tmp_path, scores_path):
        report_path = str(tmp_path / "report.json")
        assert main(["evaluate", "--metric", "chrf", "--scores", scores_path,
                     "--output", report_path]) == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert report["datasets"]["synthetic"]["acc_t"] > 0.5

    def test_missing_metric_column_is_validation_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("dataset,system,segment,a,human\nd,s,1,0.5,1.0\nd,s,2,0.7,2.0\n")
        report_path = tmp_path / "report.json"
        rc = main(["evaluate", "--metric", "b", "--scores", str(scores),
                   "--output", str(report_path)])
        assert rc == 2
        assert "missing columns: b" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.csv"]

    def test_model_and_metric_together_rejected(self, tmp_path, scores_path):
        rc = main(["evaluate", "--model", "x.json", "--metric", "chrf",
                   "--scores", scores_path, "--output", str(tmp_path / "r.json")])
        assert rc == 2

    def test_pairwise_jsonl(self, tmp_path, specs_path):
        jsonl = _write_pairs_jsonl(tmp_path / "pairs.jsonl")
        model_path = str(tmp_path / "gp.json")
        assert main(["calibrate", "--scores", jsonl, "--specs", specs_path,
                     "--format", "jsonl", "--method", "gp", "--seed", "0",
                     "--n-iter", "5", "--output", model_path]) == 0
        report_path = str(tmp_path / "acc.json")
        assert main(["evaluate", "--model", model_path, "--scores", jsonl,
                     "--format", "jsonl", "--output", report_path]) == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert set(report["categories"]) == {"chat", "safety"}
        assert report["overall_accuracy"] == 1.0  # separable by construction


class TestUnreadableInputs:
    def test_missing_model_path_is_validation_error(self, tmp_path, scores_path, capsys):
        rc = main(["score", "--model", str(tmp_path / "nonexistent.json"),
                   "--scores", scores_path, "--output", str(tmp_path / "meta.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_undecodable_scores_is_validation_error(self, tmp_path, specs_path):
        scores = tmp_path / "latin1.csv"
        scores.write_bytes(b"dataset,system,segment,bleu\n\xff,s,1,0.5\n")
        rc = main(["split", "--scores", str(scores), "--specs", specs_path,
                   "--train-output", str(tmp_path / "tr.csv"),
                   "--test-output", str(tmp_path / "te.csv")])
        assert rc == 2


@pytest.mark.parametrize("enabled", [True, False])
def test_cyclic_gc_is_off_during_a_command_and_restored_after(monkeypatch, tmp_path, enabled):
    seen = []
    monkeypatch.setattr(metacal.cli, "_cmd_report", lambda args: seen.append(gc.isenabled()) or 0)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["report", "--model", "m.json"]) == 0
        assert gc.isenabled() is enabled
        assert main(["score", "--model", str(tmp_path / "missing.json"), "--scores", "s",
                     "--output", "o"]) == 2
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def _leaf(value: float) -> Tree:
    return Tree(feature=[0], threshold=[0.0], gain=[0.0], value=[value], right=[0])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestOverflowingModel:
    """A valid model whose two 1e308 leaves add up to inf meta-scores."""

    @pytest.fixture()
    def model_path(self, tmp_path):
        path = str(tmp_path / "huge.json")
        save_model(CalibratedModel(
            kind=ModelKind.GBT, metric_specs=builtin_specs(METRICS),
            objective_used="kendall", seed=0,
            trees=TreeEnsemble((_leaf(1e308), _leaf(1e308)), base_score=0.5, learning_rate=1.0),
        ), path)
        return path

    def test_evaluate_is_validation_error(self, tmp_path, scores_path, model_path):
        rc = main(["evaluate", "--model", model_path, "--scores", scores_path,
                   "--output", str(tmp_path / "report.json")])
        assert rc == 2
        assert not (tmp_path / "report.json").exists()

    def test_score_leaves_no_partial_output(self, tmp_path, scores_path, model_path):
        before = set(tmp_path.iterdir())
        rc = main(["score", "--model", model_path, "--scores", scores_path,
                   "--output", str(tmp_path / "meta.csv")])
        assert rc == 2
        assert set(tmp_path.iterdir()) == before

    def test_failed_score_keeps_previous_output(self, tmp_path, scores_path, model_path):
        meta = tmp_path / "meta.csv"
        meta.write_text("previous\n")
        rc = main(["score", "--model", model_path, "--scores", scores_path,
                   "--output", str(meta)])
        assert rc == 2
        assert meta.read_text() == "previous\n"


class TestSplit:
    def test_csv_split_sizes_and_determinism(self, tmp_path, specs_path, scores_path):
        tr1, te1 = str(tmp_path / "tr1.csv"), str(tmp_path / "te1.csv")
        tr2, te2 = str(tmp_path / "tr2.csv"), str(tmp_path / "te2.csv")
        for tr, te in ((tr1, te1), (tr2, te2)):
            assert main(["split", "--scores", scores_path, "--specs", specs_path,
                         "--seed", "5", "--train-output", tr, "--test-output", te]) == 0
        assert Path(tr1).read_bytes() == Path(tr2).read_bytes()
        assert Path(te1).read_bytes() == Path(te2).read_bytes()
        train_m, _ = load_scores_csv(tr1, builtin_specs(METRICS))
        test_m, _ = load_scores_csv(te1, builtin_specs(METRICS))
        assert train_m.n_examples == 60
        assert test_m.n_examples == 140
        assert not set(train_m.example_ids) & set(test_m.example_ids)

    @pytest.fixture(params=["csv", "jsonl"])
    def split_argv(self, request, tmp_path, specs_path):
        """A split command over a score file of each format, without its
        output flags."""
        if request.param == "csv":
            scores = request.getfixturevalue("scores_path")
        else:
            scores = _write_pairs_jsonl(tmp_path / "pairs.jsonl")
        return ["split", "--format", request.param, "--scores", scores, "--specs", specs_path]

    def test_negative_seed_is_refused(self, tmp_path, capsys, split_argv):
        before = set(tmp_path.iterdir())
        rc = main([*split_argv, "--seed", "-1", "--train-output", str(tmp_path / "tr"),
                   "--test-output", str(tmp_path / "te")])
        assert rc == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("test_output", ["missing/te", "a_directory"])
    def test_unwritable_test_output_leaves_no_file(self, tmp_path, split_argv, test_output):
        (tmp_path / "a_directory").mkdir()
        before = set(tmp_path.iterdir())
        rc = main([*split_argv, "--train-output", str(tmp_path / "tr"),
                   "--test-output", str(tmp_path / test_output)])
        assert rc == 2
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("second", ["out", "./out"])
    def test_one_path_for_both_outputs_is_refused(self, tmp_path, capsys, split_argv, second):
        before = set(tmp_path.iterdir())
        rc = main([*split_argv, "--train-output", str(tmp_path / "out"),
                   "--test-output", f"{tmp_path}/{second}"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --train-output and --test-output must be different files\n")
        assert set(tmp_path.iterdir()) == before

    def test_failed_test_write_keeps_previous_train_file(self, tmp_path, split_argv):
        train = tmp_path / "tr"
        train.write_text("previous\n")
        before = set(tmp_path.iterdir())
        rc = main([*split_argv, "--train-output", str(train),
                   "--test-output", str(tmp_path / "missing" / "te")])
        assert rc == 2
        assert train.read_text() == "previous\n"
        assert set(tmp_path.iterdir()) == before


def test_byte_identical_artifacts_across_runs(tmp_path, specs_path, scores_path):
    outputs = []
    for tag in ("one", "two"):
        model_path = str(tmp_path / f"m_{tag}.json")
        report_path = str(tmp_path / f"r_{tag}.json")
        assert main(["calibrate", "--scores", scores_path, "--specs", specs_path,
                     "--method", "gp", "--seed", "13", "--n-iter", "8",
                     "--output", model_path]) == 0
        assert main(["evaluate", "--model", model_path, "--scores", scores_path,
                     "--output", report_path]) == 0
        outputs.append((Path(model_path).read_bytes(), Path(report_path).read_bytes()))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Corrupted input files: the CLI exits 0 or 2, never 1, and leaves no temp file
# ---------------------------------------------------------------------------

_FUZZ_SPECS = (MetricSpec("a", 0.0, 1.0, True), MetricSpec("b", -1.0, 2.0, False))


def _fuzz_model(kind: ModelKind) -> bytes:
    common = dict(metric_specs=_FUZZ_SPECS, objective_used="kendall", seed=3)
    if kind is ModelKind.LINEAR:
        model = CalibratedModel(kind=kind, weighting=Weighting.COMBINED,
                                weights=(0.6, 0.25, 0.5), **common)
    else:
        # split(1, 0.5) -> leaf -0.125 | split(0, 0.25) -> leaf 0.5 | leaf 0.75
        tree = Tree(feature=[1, 0, 0, 0, 0], threshold=[0.5, 0, 0.25, 0, 0],
                    gain=[1.25, 0, 0.5, 0, 0], value=[0, -0.125, 0, 0.5, 0.75], right=[2, 0, 4, 0, 0])
        model = CalibratedModel(kind=kind, trees=TreeEnsemble((tree, _leaf(0.5)), 0.5, 0.1),
                                **common)
    return dumps_canonical(model_to_obj(model)).encode()


_FUZZ_FILES = {
    "specs.json": json.dumps([
        {"name": s.name, "min": s.min, "max": s.max, "higher_is_better": s.higher_is_better}
        for s in _FUZZ_SPECS
    ]).encode(),
    "scores.csv": ("dataset,system,segment,a,b,human\n" + "".join(
        f"d{i % 2},s{i % 3},g{i // 6},{i * 0.07 % 1:.2f},{i * 0.13 % 1:.2f},{i * 0.29 % 1:.2f}\n"
        for i in range(18)
    )).encode(),
    "pairs.jsonl": "".join(
        json.dumps({"group": f"g{i // 2}", "category": f"c{i % 2}",
                    "chosen": {"a": 0.5 + 0.05 * i, "b": 0.25},
                    "rejected": {"a": 0.5 - 0.05 * i, "b": 0.5}}) + "\n"
        for i in range(8)
    ).encode(),
    "linear.json": _fuzz_model(ModelKind.LINEAR),
    "gbt.json": _fuzz_model(ModelKind.GBT),
}

_TINY_GP = ["--method", "gp", "--init-points", "1", "--n-iter", "1"]
_TINY_GBT = ["--method", "gbt", "--cv-folds", "2", "--max-depth", "2",
             "--n-estimators-low", "1", "--n-estimators-high", "2", "--n-estimators-step", "1"]

# The commands that read each file, as argv templates over the fuzz directory.
_READERS = {
    "specs.json": [
        ["split", "--scores", "scores.csv", "--specs", "specs.json",
         "--train-output", "tr.csv", "--test-output", "te.csv"],
        ["calibrate", "--scores", "scores.csv", "--specs", "specs.json", "--output", "m.json",
         *_TINY_GP],
    ],
    "scores.csv": [
        ["split", "--scores", "scores.csv", "--specs", "specs.json",
         "--train-output", "tr.csv", "--test-output", "te.csv"],
        ["calibrate", "--scores", "scores.csv", "--specs", "specs.json", "--output", "m.json",
         *_TINY_GP],
        ["calibrate", "--scores", "scores.csv", "--specs", "specs.json", "--output", "m.json",
         *_TINY_GBT],
        ["score", "--model", "linear.json", "--scores", "scores.csv", "--output", "meta.csv"],
        ["evaluate", "--model", "gbt.json", "--scores", "scores.csv", "--output", "r.json"],
        ["evaluate", "--metric", "a", "--scores", "scores.csv", "--output", "r.json"],
    ],
    "pairs.jsonl": [
        ["split", "--format", "jsonl", "--scores", "pairs.jsonl", "--specs", "specs.json",
         "--train-output", "tr.jsonl", "--test-output", "te.jsonl"],
        ["calibrate", "--format", "jsonl", "--scores", "pairs.jsonl", "--specs", "specs.json",
         "--output", "m.json", *_TINY_GP],
        ["calibrate", "--format", "jsonl", "--scores", "pairs.jsonl", "--specs", "specs.json",
         "--output", "m.json", *_TINY_GBT],
        ["score", "--format", "jsonl", "--model", "gbt.json", "--scores", "pairs.jsonl",
         "--output", "meta.csv"],
        ["evaluate", "--format", "jsonl", "--model", "linear.json", "--scores", "pairs.jsonl",
         "--output", "r.json"],
    ],
    "linear.json": [
        ["score", "--model", "linear.json", "--scores", "scores.csv", "--output", "meta.csv"],
        ["evaluate", "--model", "linear.json", "--scores", "scores.csv", "--output", "r.json"],
        ["report", "--model", "linear.json", "--output", "w.json"],
    ],
    "gbt.json": [
        ["score", "--model", "gbt.json", "--scores", "scores.csv", "--output", "meta.csv"],
        ["evaluate", "--format", "jsonl", "--model", "gbt.json", "--scores", "pairs.jsonl",
         "--output", "r.json"],
        ["report", "--model", "gbt.json", "--output", "w.json"],
    ],
}

def _argv(base: Path, template: list[str]) -> list[str]:
    return [str(base / arg) if Path(arg).suffix else arg for arg in template]


_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_BAD_VALUES = (b"nan", b"NaN", b"inf", b"-Infinity", b"1e999", b"-1e308", b"abc", b"",
               b"true", b"null", b'"0.5"', b"[]", b"{}", b"2.5", b"-7", b"1" * 5000)
_STRING_VALUE = re.compile(rb'(?<=": )"[^"]*"')  # a JSON string after a key
_RETYPED = (b"7", b"-0.5", b"[1]", b'["g0"]', b"{}", b"null", b"true")


@st.composite
def _corrupted_file(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_FILES)))
    data = _FUZZ_FILES[name]
    n = len(data)
    ops = ["truncate", "flip", "repeat", "drop", "line", "value"]
    op = draw(st.sampled_from(ops + ["retype"] * (b'": "' in data)))
    if op == "truncate":
        return name, data[: draw(st.integers(0, n - 1))]
    if op == "flip":
        i = draw(st.integers(0, n - 1))
        return name, data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]
    if op == "value":
        start, end = draw(st.sampled_from([m.span() for m in _NUMBER.finditer(data)]))
        return name, data[:start] + draw(st.sampled_from(_BAD_VALUES)) + data[end:]
    if op == "retype":  # a string field, such as a JSONL group, of another JSON type
        start, end = draw(st.sampled_from([m.span() for m in _STRING_VALUE.finditer(data)]))
        return name, data[:start] + draw(st.sampled_from(_RETYPED)) + data[end:]
    if op == "line":
        lines = data.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        copies = draw(st.sampled_from([0, 2]))  # a missing or a repeated line
        return name, b"".join(lines[:i] + lines[i:i + 1] * copies + lines[i + 1:])
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(i, min(n, i + 40)))
    if op == "repeat":  # repeated fields, keys or records when the span aligns
        return name, data[:j] + data[i:j] + data[j:]
    return name, data[:i] + data[j:]  # missing fields


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(_corrupted_file())
@example(("specs.json", b"[{"))  # json.JSONDecodeError
@example(("pairs.jsonl", b'{"chosen": {"a": ' + b"1" * 5000 + b"}}"))  # int too long to convert
@example(("pairs.jsonl", _FUZZ_FILES["pairs.jsonl"].replace(b'"g0"', b"7", 1)))  # a number as group
@example(("scores.csv", _FUZZ_FILES["scores.csv"] + b'd,s,"' + b"x" * 140_000))  # csv field limit
@settings(max_examples=120, deadline=None)
def test_corrupted_inputs_exit_0_or_2_and_leave_no_temp_file(corrupted):
    name, data = corrupted
    with tempfile.TemporaryDirectory() as work:
        base = Path(work)
        for other, content in _FUZZ_FILES.items():
            (base / other).write_bytes(data if other == name else content)
        for template in _READERS[name]:
            assert main(_argv(base, template)) in (0, 2), (name, data, template)
            assert not list(base.glob("*.tmp")), (name, data, template)


class TestJsonFieldTypes:
    """A spec, model or JSONL score field of the wrong JSON type exits 2; it
    is never coerced to a boolean, a number, an integer or a string."""

    @pytest.fixture()
    def work(self, tmp_path):
        for name, content in _FUZZ_FILES.items():
            (tmp_path / name).write_bytes(content)
        return tmp_path

    @staticmethod
    def _edit(path: Path, edit) -> None:
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_higher_is_better_must_be_boolean(self, work, value):
        self._edit(work / "specs.json", lambda specs: specs[1].update(higher_is_better=value))
        self._edit(work / "linear.json",
                   lambda model: model["metrics"][1].update(higher_is_better=value))
        split, calibrate = _READERS["specs.json"]
        score = _READERS["linear.json"][0]
        for template in (split, calibrate, score):
            assert main(_argv(work, template)) == 2, template

    @pytest.mark.parametrize("field, value", [
        ("seed", 2.7), ("seed", True), ("version", True), ("version", 1.0),
        ("feature", 1.7), ("feature", True),
    ])
    def test_integer_fields_must_be_integers(self, work, field, value):
        self._edit(work / "gbt.json",
                   lambda model: (model["trees"][0] if field == "feature" else model).update(
                       {field: value}))
        assert main(_argv(work, _READERS["gbt.json"][0])) == 2

    @pytest.mark.parametrize("name, field, value", [
        ("specs.json", "min", "-1"), ("specs.json", "max", True),
        ("linear.json", "weights", [True, 0.25, 0.5]), ("linear.json", "weights", ["0.6", 0.25, 0.5]),
        ("linear.json", "objective_used", 7), ("linear.json", "weighting", None),
        ("gbt.json", "base_score", "0.5"), ("gbt.json", "base_score", 2**53 + 1),
        ("gbt.json", "learning_rate", False), ("gbt.json", "threshold", "0.5"),
        ("gbt.json", "gain", True), ("gbt.json", "value", [0.5]),
    ])
    def test_number_and_string_fields_need_their_json_type(self, work, name, field, value):
        holders = {
            "specs.json": lambda obj: obj[1],
            "linear.json": lambda obj: obj,
            "gbt.json": lambda obj: (obj["trees"][1] if field == "value"
                                     else obj["trees"][0] if field in ("threshold", "gain")
                                     else obj),
        }
        self._edit(work / name, lambda obj: holders[name](obj).update({field: value}))
        for template in _READERS[name]:
            assert main(_argv(work, template)) == 2, template


    @pytest.mark.parametrize("field, value", [
        ("group", 7), ("group", [1]), ("group", None), ("category", 3), ("category", True),
        ("chosen", "0.5"), ("chosen", True), ("rejected", None), ("rejected", [0.5]),
        ("rejected", 2**53 + 1), ("chosen", float("nan")), ("rejected", float("-inf")),
    ])
    def test_jsonl_fields_need_their_json_type(self, work, field, value):
        path = work / "pairs.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        if field in ("chosen", "rejected"):
            records[3][field]["a"] = value
        else:
            records[3][field] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        for template in _READERS["pairs.jsonl"]:
            assert main(_argv(work, template)) == 2, template


class TestNonFiniteSettings:
    """A NaN or infinite numeric setting exits 2 before any work and writes
    nothing."""

    @pytest.mark.parametrize("flags", [
        [*_TINY_GP, "--kappa", "nan"], [*_TINY_GP, "--kappa", "inf"],
        [*_TINY_GBT, "--reg-lambda", "nan"], [*_TINY_GBT, "--reg-lambda", "inf"],
        [*_TINY_GBT, "--gamma", "nan"], [*_TINY_GBT, "--gamma", "inf"],
    ])
    def test_calibrate(self, tmp_path, flags):
        for name in ("specs.json", "scores.csv"):
            (tmp_path / name).write_bytes(_FUZZ_FILES[name])
        argv = ["calibrate", "--scores", "scores.csv", "--specs", "specs.json",
                "--output", "m.json", *flags]
        assert main(_argv(tmp_path, argv)) == 2
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_report_epsilon(self, tmp_path, capsys, epsilon):
        (tmp_path / "linear.json").write_bytes(_FUZZ_FILES["linear.json"])
        argv = ["report", "--model", "linear.json", "--output", "w.json",
                f"--sparsity-epsilon={epsilon}"]
        assert main(_argv(tmp_path, argv)) == 2
        assert not (tmp_path / "w.json").exists()
        assert capsys.readouterr().out == ""
