"""Byte identity of the desk score file and of GBT and GP model files.

Runs `basemetrics` on the bundled desk corpus and compares the sha256 of
its score CSV with the value pinned below, so a drift in a text metric
fails here even where the models downstream do not move.  Then runs
`split` at seed 0, then a short-grid pruned GBT calibration, a default
GP calibration (Kendall on the CSV path) and a default GP calibration over
the 3 metrics that align best on their own (`--top-k 3`) through
`metacal.cli.main`, on the CSV path and on a pairwise JSONL path, plus the short-grid pruned GBT under
the absolute-error and squared-log-error losses on the CSV path, and
compares the sha256 of each model file and of its `report` output with the
values pinned below.  The splits, the pairs and the GP runs are those of
`tools/artifact_digests.py --seed 0`, which has no `--top-k` run on the
pairs.  The GBT trainer calls no BLAS
routine, so its pins do not depend on BLAS threading.  The GP surrogate
does (matrix products, Cholesky, inverse); its pins held with OpenBLAS at 1
thread and at 2 threads.  A change that moves a pin changes what users get
from the same inputs; re-pin only with the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from metacal.cli import main
from metacal.io import save_specs
from metacal.textmetrics import BUILTIN_METRICS, builtin_specs

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "metacal" / "data" / "desk_corpus.csv"
SHORT_PRUNED_GBT = ["--method", "gbt", "--n-estimators-low", "10", "--n-estimators-high", "30",
                    "--n-estimators-step", "10", "--prune-iterations", "2"]

SCORES_PINNED = "aff3514672ec9010059af7b7db9ae4c2c20c21b1ad4f890372182edda2181763"
PINNED = {
    "csv": {
        "model": "2752bd5bb59f4f44c263372fbd5d6963e6ead16689dc03a9f392c1edf2990e3d",
        "report": "188e52adee9a7539b1b47b11400239a3ba6b733a16561dce78863f0cfdf24772",
    },
    "jsonl": {
        "model": "4decb2d422243c10b20f3df71692593137f7547c97d946ca51d3fe4fc7c7a999",
        "report": "b0eaa82db920fa0739eb7d790b92a09e0050cd0596c16e31d12c3ff2598bd922",
    },
}
LOSS_PINNED = {
    "absoluteerror": {
        "model": "193f87946dcd175878375d8fc9ed6be88fa2af1467a2be4afef4aae09e6c8f81",
        "report": "e3f69bf13afcc1d3ccd0134d2f26465fcceb390e162936abe08b0d60e6b60bd0",
    },
    "squaredlogerror": {
        "model": "0aa9318fccfa3bdea936b19314158b72300c2b3ea75d1969b9083f3a304d0d72",
        "report": "24b6b0ea73eca567346dab73a7b8c2b82c843c1d3fb88ffd019c5eb34766770d",
    },
}
GP_FLAGS = {"csv": ["--method", "gp", "--objective", "kendall"], "jsonl": ["--method", "gp"]}
GP_PINNED = {
    "csv": {
        "model": "69a786c3252aac87e08c082e49b74ad801c965be737116de32dffc1dce22a939",
        "report": "251a17f58ed3787088751e225be1f073c90f599f47beba188fac012a3ef29ddc",
    },
    "jsonl": {
        "model": "88263a631b99ed6eecbbb0c9ce30a40ae998f0d20d748a254c2caa9d20ce8b8d",
        "report": "c49300cccb1661d4db4eb361920c8fc4d520ea901041670705f8dc22707965ac",
    },
}
TOP3_PINNED = {
    "csv": {
        "model": "79dc1ed4cdc58de60daf93a8b6fe2f7dde0ee2f79cc64e92ca770906671a8979",
        "report": "bf1fa559d091766cba18651b598620305a8930d95ebe554a1a4c1cf142547e67",
    },
    "jsonl": {
        "model": "911807c561faedefc40514a4c528c67982ecf6ccfa402d935fb8ef54b2de6c08",
        "report": "08e82cdc3366b92c7cc4ed1d9c70457da9a2a1f1bf9a638b0fa3e120e7cf5b24",
    },
}


def _write_pairs(scores_csv: Path, path: Path) -> None:
    """The pairwise JSONL input of `tools/artifact_digests.py`."""
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", ROOT / "tools" / "artifact_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.write_pairs(str(scores_csv), str(path))


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("golden")
    assert main(["basemetrics", "--input", str(CORPUS), "--output", str(base / "scores.csv")]) == 0
    save_specs(builtin_specs(list(BUILTIN_METRICS)), str(base / "specs.json"))
    _write_pairs(base / "scores.csv", base / "scores.jsonl")
    specs = str(base / "specs.json")
    for fmt in ("csv", "jsonl"):
        scores, train, test = (str(base / f"{stem}.{fmt}") for stem in ("scores", "train", "test"))
        assert main(["split", "--scores", scores, "--specs", specs, "--format", fmt,
                     "--seed", "0", "--train-output", train, "--test-output", test]) == 0
    return base


def _calibrate_digests(work: Path, fmt: str, tag: str, flags: list[str]) -> dict[str, str]:
    """sha256 of the model that `calibrate` fits on the train split, and of
    its `report` output."""
    model, report = str(work / f"{tag}_{fmt}.json"), str(work / f"report_{tag}_{fmt}.json")
    assert main(["calibrate", "--scores", str(work / f"train.{fmt}"),
                 "--specs", str(work / "specs.json"), "--format", fmt,
                 "--seed", "0", "--output", model, *flags]) == 0
    assert main(["report", "--model", model, "--output", report]) == 0
    return {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for name, path in (("model", model), ("report", report))}


def test_desk_score_bytes_are_pinned(work):
    assert hashlib.sha256((work / "scores.csv").read_bytes()).hexdigest() == SCORES_PINNED


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_pruned_gbt_model_bytes_are_pinned(work, fmt):
    assert _calibrate_digests(work, fmt, "gbt", SHORT_PRUNED_GBT) == PINNED[fmt]


@pytest.mark.parametrize("loss", sorted(LOSS_PINNED))
def test_regression_loss_gbt_model_bytes_are_pinned(work, loss):
    digests = _calibrate_digests(work, "csv", loss, [*SHORT_PRUNED_GBT, "--loss", loss])
    assert digests == LOSS_PINNED[loss]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_gp_model_bytes_are_pinned(work, fmt):
    assert _calibrate_digests(work, fmt, "gp", GP_FLAGS[fmt]) == GP_PINNED[fmt]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_top_k_gp_model_bytes_are_pinned(work, fmt):
    digests = _calibrate_digests(work, fmt, "gp_top3", ["--method", "gp", "--top-k", "3"])
    assert digests == TOP3_PINNED[fmt]
