"""Generate the bundled synthetic desk corpus (src/metacal/data/desk_corpus.csv).

200 hypothesis/reference pairs over 8 systems x 25 segments.  Hypotheses are
corrupted references with two independent noise axes: word-level edits
(delete / substitute / swap, which hit token n-gram metrics hard) and
character-level typos (which chrF tolerates better than BLEU).  The human
score is a fixed mixture of the resulting BLEU and chrF scores plus noise,
so a calibrated combination beats either metric alone on held-out data.

Run from the repository root:  python tools/gen_desk_corpus.py
"""

from __future__ import annotations

import argparse
import csv
import os
import string
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from metacal.textmetrics import SegmentPair, bleu, chrf  # noqa: E402

CORPUS = os.path.join(ROOT, "src", "metacal", "data", "desk_corpus.csv")

VOCAB = [
    "river", "mountain", "orchard", "lantern", "harbor", "meadow", "signal",
    "timber", "granite", "willow", "falcon", "ember", "prairie", "anchor",
    "forge", "hollow", "crescent", "thicket", "beacon", "saddle", "quarry",
    "marsh", "summit", "grove", "cinder", "harvest", "ridge", "current",
    "basin", "spire", "fable", "ledger", "compass", "drift", "canyon",
    "moss", "talon", "bramble", "keel", "plume",
]

N_SYSTEMS = 8
N_SEGMENTS = 25
SEED = 20240817
WEIGHT_BLEU = 0.5
WEIGHT_CHRF = 0.5
NOISE_STD = 0.02


def corrupt_order(words: list[str], rate: float, rng: np.random.Generator) -> list[str]:
    """Scramble word order (plus a few replacements) at the given rate.

    Reordering wrecks word n-grams while leaving character n-grams almost
    intact, so this axis is visible to BLEU but nearly invisible to chrF.
    """
    out = list(words)
    n_moves = int(round(rate * len(out)))
    for _ in range(n_moves):
        i, j = rng.integers(len(out)), rng.integers(len(out))
        out[i], out[j] = out[j], out[i]
    for idx in range(len(out)):
        if rng.uniform() < rate * 0.25:
            out[idx] = VOCAB[rng.integers(len(VOCAB))]
    return out


def corrupt_chars(words: list[str], intensity: float, rng: np.random.Generator) -> list[str]:
    """Typo a fixed ~40% subset of words; `intensity` in [0, 1] controls how
    many characters break inside each affected word (always at least one).

    One typo already breaks the whole token for word n-gram metrics, so BLEU
    is flat along this axis while chrF degrades smoothly with intensity.
    """
    letters = string.ascii_lowercase
    out = []
    for idx, word in enumerate(words):
        if idx % 5 in (1, 3):
            chars = list(word)
            n_bad = max(1, int(round(intensity * 0.9 * len(chars))))
            positions = rng.choice(len(chars), size=min(n_bad, len(chars)), replace=False)
            for k in positions:
                chars[k] = letters[rng.integers(len(letters))]
            out.append("".join(chars))
        else:
            out.append(word)
    return out


def write_corpus(out_path: str) -> int:
    """Write the corpus to `out_path`; returns its row count."""
    rng = np.random.default_rng(SEED)
    sys_word_base = rng.uniform(0.05, 0.55, N_SYSTEMS)
    sys_typo_base = rng.uniform(0.05, 0.85, N_SYSTEMS)

    rows = []
    for seg in range(N_SEGMENTS):
        n_words = int(rng.integers(8, 15))
        reference = [VOCAB[rng.integers(len(VOCAB))] for _ in range(n_words)]
        for sys_idx in range(N_SYSTEMS):
            word_rate = float(np.clip(sys_word_base[sys_idx] + rng.uniform(-0.25, 0.25), 0.0, 0.8))
            typo_level = float(np.clip(sys_typo_base[sys_idx] + rng.uniform(-0.35, 0.35), 0.0, 1.0))
            hyp_words = corrupt_chars(corrupt_order(reference, word_rate, rng), typo_level, rng)
            pair = SegmentPair(" ".join(hyp_words), " ".join(reference))
            z = (
                WEIGHT_BLEU * bleu([pair])[0]
                + WEIGHT_CHRF * chrf([pair])[0]
                + rng.normal(0.0, NOISE_STD)
            )
            rows.append(
                (
                    "synthetic",
                    f"sys{sys_idx + 1:02d}",
                    f"seg{seg + 1:03d}",
                    pair.hypothesis,
                    pair.reference,
                    f"{z:.17g}",
                )
            )

    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dataset", "system", "segment", "hypothesis", "reference", "human"])
        writer.writerows(rows)
    return len(rows)


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    print(f"wrote {write_corpus(CORPUS)} rows -> {CORPUS}")


if __name__ == "__main__":
    main()
