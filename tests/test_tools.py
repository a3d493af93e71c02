"""The scripts under tools/ run: each answers --help, the corpus generator
reproduces the bundled desk corpus byte for byte, the shared pairs driver
orders, summarizes and records its runs, the quick-start bench times the
quick start's commands plus one pruned GBT calibration, and the pairs and
quick-start benches refuse a compiled checkout."""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.mark.parametrize("script", sorted(p.name for p in TOOLS.glob("*.py")))
def test_help_exits_0(script):
    done = subprocess.run([sys.executable, str(TOOLS / script), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_generator_reproduces_the_bundled_corpus(tmp_path):
    module = _tool("gen_desk_corpus")
    out = tmp_path / "desk_corpus.csv"
    assert module.write_corpus(str(out)) == 200
    assert out.read_bytes() == Path(module.CORPUS).read_bytes()


def test_pairs_bench_refuses_a_checkout_holding_bytecode(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("raise SystemExit(1)\n")
    (tmp_path / "src" / "metacal" / "__pycache__").mkdir(parents=True)
    done = subprocess.run([sys.executable, str(TOOLS / "pairs_bench.py"), "--parent", str(tmp_path),
                           "--change", str(tmp_path), "--workload", "desk", "--label", "t"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "__pycache__" in done.stderr
    assert not (TOOLS.parent / "bench" / "PAIRS_t.json").exists()


def test_quickstart_bench_refuses_a_checkout_holding_bytecode(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("raise SystemExit(1)\n")
    (tmp_path / "src" / "metacal" / "__pycache__").mkdir(parents=True)
    done = subprocess.run([sys.executable, str(TOOLS / "quickstart_bench.py"), "--parent", str(tmp_path),
                           "--change", str(tmp_path), "--pairs", "1", "--label", "t"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert f"refused: {tmp_path / 'src' / 'metacal' / '__pycache__'} exists" in done.stderr
    assert not (TOOLS.parent / "bench" / "QUICKSTART_t.json").exists()


def test_quickstart_bench_times_the_quick_start_commands_plus_one_pruned_gbt():
    # In a child process: importing quickstart_bench turns off bytecode writing.
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import artifact_digests, quickstart_bench; "
            "print(json.dumps([artifact_digests.commands('w', '0'), quickstart_bench.stages('w')]))")
    done = subprocess.run([sys.executable, "-c", code, str(TOOLS)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    commands, stages = json.loads(done.stdout)
    assert len(stages) == 24
    assert stages[:-1] == commands
    name, argv = stages[-1]
    gbt = dict(commands)["calibrate_gbt"]
    out = gbt.index("--output") + 1
    assert name == "calibrate_gbt_prune3"
    assert argv == [*gbt[:out], "w/gbt_prune3.json", *gbt[out + 1:], "--prune-iterations", "3"]


def test_pairs_bench_spreads_the_control_pairs():
    schedule = _tool("pairs_bench").schedule
    assert schedule(3, 0) == [("change", 0), ("change", 1), ("change", 2)]
    order = schedule(10, 2)
    assert [i for i, step in enumerate(order) if step[0] == "control"] == [5, 11]
    assert [step for step in order if step[0] == "control"] == [("control", 0), ("control", 1)]
    assert schedule(1, 2) == [("change", 0), ("control", 0), ("control", 1)]


def test_pairs_bench_summary():
    summarize = _tool("pairs_bench").summarize
    parent = [{"failed": 0, "pipeline_s": v} for v in (1.0, 1.2, 1.1, 1.4)]
    change = [{"failed": 0, "pipeline_s": v} for v in (0.9, 1.3, 1.0, 1.0)]
    control = [(parent[0], {"failed": 0, "pipeline_s": 1.05}), (parent[1], {"failed": 0, "pipeline_s": 1.08})]
    summary = summarize(parent, change, control)
    assert list(summary) == ["pipeline_s"]
    assert summary["pipeline_s"] == {
        "parent_median": 1.15, "parent_iqr": 0.175, "change_median": 1.0, "change_iqr": 0.1,
        "change_lower_in_pairs": 3, "change_over_parent": 0.8696,
        "aa_parent2_over_parent": [1.05, 0.9], "aa_range": [0.9, 1.05],
    }
    assert "aa_range" not in summarize(parent, change, [])["pipeline_s"]


def test_run_pairs_alternates_the_sides_and_spreads_the_control_pairs(capsys):
    pairs_bench = _tool("pairs_bench")
    calls = []

    def measure(checkout):  # each run reads its place in the session
        calls.append(checkout)
        return {"failed": 0, "call": len(calls)}

    entry = pairs_bench.run_pairs(measure, "p", "c", "p2", 4, "t")
    # Pairs in schedule order: change 0, change 1, control 0, change 2, change 3, control 1;
    # the parent runs first in even pairs.
    assert calls == ["p", "c", "c", "p", "p", "p2", "p", "c", "c", "p", "p2", "p"]
    assert entry["parent"] == {"failed": [0] * 4, "call": [1, 4, 7, 10]}
    assert entry["change"] == {"failed": [0] * 4, "call": [2, 3, 8, 9]}
    assert entry["control"] == {"parent": {"failed": [0, 0], "call": [5, 12]},
                                "parent2": {"failed": [0, 0], "call": [6, 11]}}
    assert entry["summary"] == {"call": {
        "parent_median": 5.5, "parent_iqr": 4.5, "change_median": 5.5, "change_iqr": 5.5,
        "change_lower_in_pairs": 2, "change_over_parent": 1.0,
        "aa_parent2_over_parent": [1.2, 0.9167], "aa_range": [0.9167, 1.2],
    }}
    assert len(capsys.readouterr().err.splitlines()) == 12

    calls.clear()
    entry = pairs_bench.run_pairs(measure, "p", "c", None, 2, "t")
    assert calls == ["p", "c", "c", "p"]
    assert sorted(entry) == ["change", "parent", "summary"]


def test_record_pairs_keeps_the_shas_apart_from_the_columns(tmp_path, monkeypatch):
    pairs_bench = _tool("pairs_bench")
    monkeypatch.setattr(pairs_bench, "ROOT", str(tmp_path))
    (tmp_path / "bench").mkdir()
    args = argparse.Namespace(parent=str(tmp_path / "p"), change=str(tmp_path / "c"), control=None,
                              pairs=1, label="t")

    def failing(checkout):
        raise pairs_bench.RunFailed("no run")

    measures = {"first": lambda checkout: {"total_s": 1.0}, "second": failing}
    assert pairs_bench.record_pairs("QUICKSTART", args, "runs", measures, seed=3) == 1
    record = json.loads((tmp_path / "bench" / "QUICKSTART_t.json").read_text())
    assert sorted(record) == ["change", "parent", "what", "workloads"]
    assert record["parent"] == record["change"] == "unknown"  # absent checkouts have no sha
    assert record["what"].startswith("runs in alternating pairs")
    assert list(record["workloads"]) == ["first"]
    assert record["workloads"]["first"]["parent"] == {"total_s": [1.0]}
    assert record["workloads"]["first"]["change"] == {"total_s": [1.0]}
    assert record["workloads"]["first"]["seed"] == 3

    (tmp_path / "bench" / "QUICKSTART_t.json").write_text('{"parent": "abc1234", "change": "unknown"}')
    assert pairs_bench.record_pairs("QUICKSTART", args, "runs", {"first": measures["first"]}) == 2
