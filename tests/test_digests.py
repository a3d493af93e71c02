"""Byte identity of every artifact the two digest tools produce.

`tests/digests/` holds the output of `tools/artifact_digests.py --seed 0`
(37 quick-start artifacts) and of `tools/plan_digests.py --seed 1` and
`--seed 2` (92 benchmark-plan artifacts a seed).  Each test runs one tool
on this checkout, with no bytecode written, and compares its lines with
the manifest name by name.  The tools run with OpenBLAS on one thread,
and the quick start runs once more with the thread variables unset, so
at the default thread count.  The GBT trainer calls no BLAS routine, so
its artifacts do not depend on BLAS threading; the GP surrogate does
(matrix products, Cholesky, inverse), so its models are checked at both
thread counts.  A change that means to change an artifact regenerates
the manifest with the same command and says why in CHANGES.md.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFESTS = Path(__file__).resolve().parent / "digests"


def _digests(text: str) -> dict[str, str]:
    """{name: sha256} of `sha256  name` lines.  A `FAILED  reason` line of
    plan_digests.py lands under its reason, so it shows as a difference."""
    return {name: digest for digest, name in (line.split("  ", 1) for line in text.splitlines())}


@pytest.mark.parametrize("tool, seed, one_thread", [
    ("artifact_digests", 0, True), ("plan_digests", 1, True), ("plan_digests", 2, True),
    ("artifact_digests", 0, False)],
    ids=["artifact_digests-0", "plan_digests-1", "plan_digests-2", "artifact_digests-0-default_threads"])
def test_artifacts_match_the_manifest(tool, seed, one_thread):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if one_thread:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run([sys.executable, str(ROOT / "tools" / f"{tool}.py"), "--seed", str(seed)],
                          capture_output=True, text=True, env=env, timeout=600)
    got = _digests(done.stdout)
    expected = _digests((MANIFESTS / f"{tool}_seed{seed}.txt").read_text(encoding="utf-8"))
    differ = sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))
    assert differ == [], f"{len(differ)} of {len(expected)} artifacts differ: {differ}\n{done.stderr[-2000:]}"
    assert done.returncode == 0, done.stderr[-2000:]
