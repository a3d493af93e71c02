"""The scripts under tools/ run: each answers --help, the private names of
metacal that one binds still exist, the corpus generator reproduces the
bundled desk corpus byte for byte, the pairs bench orders and summarizes
its runs, and the pairs and quick-start benches refuse a compiled checkout."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from metacal import gbt

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.mark.parametrize("script", sorted(p.name for p in TOOLS.glob("*.py")))
def test_help_exits_0(script):
    done = subprocess.run([sys.executable, str(TOOLS / script), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_names_grow_bench_binds_exist():
    # grow_bench.py records and times the trainer through these names.
    names = set(re.findall(r"\bgbt\.(_\w+)", (TOOLS / "grow_bench.py").read_text()))
    assert names >= {"_grow", "_search", "_BLOCK_CELLS"}
    assert sorted(name for name in names if not hasattr(gbt, name)) == []


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
    done = subprocess.run([sys.executable, str(TOOLS / "quickstart_bench.py"), "--label", "t", "--runs", "2",
                           "--alternate", "u", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert f"refused: {tmp_path / 'src' / 'metacal' / '__pycache__'} exists" in done.stderr
    assert not (TOOLS.parent / "bench" / "QUICKSTART_t.json").exists()
    assert not (TOOLS.parent / "bench" / "QUICKSTART_u.json").exists()


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
