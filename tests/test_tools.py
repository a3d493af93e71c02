"""The scripts under tools/ run: each answers --help, the private names of
metacal that one binds still exist, and the corpus generator reproduces the
bundled desk corpus byte for byte."""

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


def test_corpus_generator_reproduces_the_bundled_corpus(tmp_path):
    spec = importlib.util.spec_from_file_location("gen_desk_corpus", TOOLS / "gen_desk_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "desk_corpus.csv"
    assert module.write_corpus(str(out)) == 200
    assert out.read_bytes() == Path(module.CORPUS).read_bytes()
