import csv
import json
from pathlib import Path

import numpy as np
import pytest

from metacal.cli import main
from metacal.io import load_model, load_scores_csv, save_specs
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


def _tiny_gbt_flags():
    return [
        "--max-depth", "2", "--cv-folds", "3",
        "--n-estimators-low", "10", "--n-estimators-high", "20", "--n-estimators-step", "10",
    ]


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

    def test_prune_with_gp_is_validation_error(self, tmp_path, specs_path, scores_path):
        rc = main([
            "calibrate", "--scores", scores_path, "--specs", specs_path,
            "--method", "gp", "--prune-iterations", "2",
            "--output", str(tmp_path / "x.json"),
        ])
        assert rc == 2

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

    def test_model_and_metric_together_rejected(self, tmp_path, scores_path):
        rc = main(["evaluate", "--model", "x.json", "--metric", "chrf",
                   "--scores", scores_path, "--output", str(tmp_path / "r.json")])
        assert rc == 2

    def test_pairwise_jsonl(self, tmp_path, specs_path):
        rng = np.random.default_rng(0)
        jsonl = str(tmp_path / "pairs.jsonl")
        with open(jsonl, "w") as fh:
            for i in range(12):
                chosen = {m: float(v) for m, v in zip(METRICS, rng.uniform(0.5, 1, 5))}
                rejected = {m: float(v) for m, v in zip(METRICS, rng.uniform(0, 0.5, 5))}
                fh.write(json.dumps({
                    "group": f"g{i}", "category": "chat" if i % 2 else "safety",
                    "chosen": chosen, "rejected": rejected,
                }) + "\n")
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
