"""Seeded workload generators, plus the pairwise files assembled inside a pass.

The workloads differ in which layers dominate (``plans`` runs them):

- ``desk``: the bundled 200-pair corpus.  Inputs are tiny, so the GP
  surrogate and the GBT trainer do almost all the work.
- ``scale``: a fresh 1,000-segment text corpus plus a 2 x 10^4 x 5 score
  table (4 datasets x 20 systems x 250 segments) with ties in the human
  scores and in one coarse metric.  Row count dominates: text metrics, CSV
  io, the rank objectives and the harness.
- ``prefs``: 600 prompt groups with 4 rated candidate texts each (one
  corpus file per category), and 4 judged pairs per group in 4 categories.  The layers run their pairwise
  paths: JSONL io, pairwise accuracy, the rank loss and group folds.

Texts are fresh, never replicas, so no cache can fake a gain on repeated
pairs.  Generators depend only on the seed (and, for desk, the bundled
corpus), so the same seed always yields byte-identical inputs.
"""

from __future__ import annotations

import csv
import json
import os
import random
import shutil
import string
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

BUILTIN = ("bleu", "chrf", "rouge1", "rouge2", "rougel")
CATEGORIES = ("chat", "code", "math", "safety")
_SYLLABLES = (
    "ka", "lo", "mi", "ner", "tu", "sa", "vel", "ri", "on", "pa", "dre", "gu",
    "lin", "so", "ma", "tor", "e", "qua", "bi", "ul", "fen", "do", "ze", "har",
    "wi", "ost", "ye", "cal", "mun", "ti",
)


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload.

    The benchmark runs ``FULL``; the tracer self-test runs ``TINY`` through
    the same code paths in seconds.
    """

    desk_splits: int
    desk_model_splits: int
    text_systems: int
    text_segments: int
    table_datasets: int
    table_systems: int
    table_segments: int
    scale_pair_stride: int
    pref_groups: int


FULL = Size(desk_splits=6, desk_model_splits=2, text_systems=5, text_segments=200,
            table_datasets=4, table_systems=20, table_segments=250, scale_pair_stride=10,
            pref_groups=600)
TINY = Size(desk_splits=2, desk_model_splits=1, text_systems=4, text_segments=10,
            table_datasets=2, table_systems=6, table_segments=40, scale_pair_stride=1,
            pref_groups=60)


@dataclass
class Inputs:
    """Files a workload hands to the program, plus what the checks need."""

    files: dict[str, str] = field(default_factory=dict)
    # prefs only: (group, category, chosen candidate, rejected candidate)
    plan: list[tuple[str, str, str, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Text generation: the desk corpus's corruption model on fresh references
# ---------------------------------------------------------------------------


def _vocabulary(rng: random.Random, size: int = 2500) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choices(_SYLLABLES, k=rng.randint(1, 3))))
    return sorted(words)


def _reference(rng: random.Random, vocab: list[str], mu: float, high: int) -> list[str]:
    # Log-normal lengths: mostly short segments with a long tail.
    length = min(max(round(rng.lognormvariate(mu, 0.6)), 2), high)
    return rng.choices(vocab, k=length)


def _corrupt(words: list[str], word_rate: float, typo_level: float,
             rng: random.Random, vocab: list[str]) -> list[str]:
    """Word-order swaps and replacements, then typos in ~40% of the words."""
    out = list(words)
    n = len(out)
    for _ in range(round(word_rate * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        out[i], out[j] = out[j], out[i]
    for k in range(n):
        if rng.random() < word_rate * 0.25:
            out[k] = rng.choice(vocab)
    for k in range(1, n, 5):
        for m in (k, k + 2):
            if m < n:
                chars = list(out[m])
                n_bad = min(max(1, round(typo_level * 0.9 * len(chars))), len(chars))
                for p in rng.sample(range(len(chars)), n_bad):
                    chars[p] = rng.choice(string.ascii_lowercase)
                out[m] = "".join(chars)
    return out


def _hidden_quality(word_rate: float, typo_level: float, rng: random.Random) -> float:
    return 1.0 - 0.6 * word_rate - 0.35 * typo_level + rng.gauss(0.0, 0.05)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_specs(path: str, specs: list[tuple[str, float, float, bool]]) -> None:
    obj = [{"name": n, "min": lo, "max": hi, "higher_is_better": hib} for n, lo, hi, hib in specs]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


BUILTIN_SPECS = [(name, 0.0, 1.0, True) for name in BUILTIN]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate_desk(root: str, seed: int, directory: str, size: Size) -> Inputs:
    """The bundled corpus, copied verbatim; the seed drives splits and models."""
    del seed, size
    inputs = Inputs()
    inputs.files["corpus"] = os.path.join(directory, "corpus.csv")
    shutil.copyfile(os.path.join(root, "src", "metacal", "data", "desk_corpus.csv"), inputs.files["corpus"])
    inputs.files["specs"] = os.path.join(directory, "specs.json")
    _write_specs(inputs.files["specs"], BUILTIN_SPECS)
    return inputs


# Score-table metrics: declared ranges differ, one is lower-is-better, one
# overshoots its range (exercising the clip), and "coarse" is a 1..5 integer
# rating, so it carries heavy ties.
TABLE_SPECS = [
    ("lexical", 0.0, 1.0, True),
    ("charf", 0.0, 100.0, True),
    ("embed", -1.0, 1.0, True),
    ("errors", 0.0, 2.0, False),
    ("coarse", 1.0, 5.0, True),
]


def generate_scale(root: str, seed: int, directory: str, size: Size) -> Inputs:
    """A fresh text corpus for basemetrics and a large tied score table."""
    del root
    rng = random.Random(f"scale-{seed}")
    inputs = Inputs()
    vocab = _vocabulary(rng)

    rows = []
    word_base = [rng.uniform(0.05, 0.55) for _ in range(size.text_systems)]
    typo_base = [rng.uniform(0.05, 0.85) for _ in range(size.text_systems)]
    for g in range(size.text_segments):
        ref = _reference(rng, vocab, 2.3, 60)
        for s in range(size.text_systems):
            wr = min(max(word_base[s] + rng.uniform(-0.25, 0.25), 0.0), 0.8)
            tl = min(max(typo_base[s] + rng.uniform(-0.35, 0.35), 0.0), 1.0)
            hyp = _corrupt(ref, wr, tl, rng, vocab)
            # Human judgments on a 0.05 grid: many exact ties.
            human = round(min(max(_hidden_quality(wr, tl, rng), 0.0), 1.0) * 20.0) / 20.0
            rows.append(("text", f"sys{s:02d}", f"seg{g:04d}", " ".join(hyp), " ".join(ref), repr(human)))
    inputs.files["corpus"] = os.path.join(directory, "corpus.csv")
    _write_csv(inputs.files["corpus"], ["dataset", "system", "segment", "hypothesis", "reference", "human"], rows)
    inputs.files["text_specs"] = os.path.join(directory, "text_specs.json")
    _write_specs(inputs.files["text_specs"], BUILTIN_SPECS)

    table_rng = np.random.default_rng([seed, 1])
    d, s, g = size.table_datasets, size.table_systems, size.table_segments
    system_effect = table_rng.normal(0.0, 0.5, size=(d, s, 1))
    segment_effect = table_rng.normal(0.0, 0.8, size=(d, 1, g))
    quality = (system_effect + segment_effect + table_rng.normal(0.0, 0.6, size=(d, s, g))).reshape(-1)
    n = quality.size

    def noisy(scale: float) -> np.ndarray:
        return quality + table_rng.normal(0.0, scale, n)

    squash = lambda v: 1.0 / (1.0 + np.exp(-v))  # noqa: E731
    lexical = squash(noisy(1.2))
    charf = 100.0 * squash(noisy(0.9))
    embed = np.tanh(0.6 * noisy(0.7)) * 1.08  # overshoots [-1, 1] at the ends
    errors = np.clip(1.0 - 0.4 * noisy(1.0), 0.0, None)
    coarse = np.clip(np.round(3.0 + noisy(0.8)), 1.0, 5.0)
    human = np.clip(np.round(2.0 * (3.0 + 0.9 * noisy(0.5))) / 2.0, 1.0, 5.0)
    columns = np.column_stack([lexical, charf, embed, errors, coarse, human])

    path = os.path.join(directory, "table.csv")
    names = [spec[0] for spec in TABLE_SPECS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["dataset", "system", "segment", *names, "human"]) + "\n")
        k = 0
        for di in range(d):
            for si in range(s):
                for gi in range(g):
                    values = ",".join(repr(float(v)) for v in columns[k])
                    fh.write(f"ds{di},sys{si:02d},seg{gi:04d},{values}\n")
                    k += 1
    inputs.files["table"] = path
    inputs.files["table_specs"] = os.path.join(directory, "table_specs.json")
    _write_specs(inputs.files["table_specs"], TABLE_SPECS)
    return inputs


def generate_prefs(root: str, seed: int, directory: str, size: Size) -> Inputs:
    """Rated candidate texts per prompt group, plus which pairs humans compared.

    Each group has a reference and one candidate from each of 4 systems of
    fixed, well-separated quality (so system-level statistics do not swing
    with the seed).  Every candidate carries a 1..10 rating (many ties);
    4 of the 6 candidate pairs are judged, the higher hidden quality winning
    except for 10% label noise.  The pairwise JSONL is assembled from the
    basemetrics output of these texts.
    """
    del root
    rng = random.Random(f"prefs-{seed}")
    inputs = Inputs()
    vocab = _vocabulary(rng)
    systems = [(0.1, 0.2), (0.25, 0.4), (0.4, 0.6), (0.55, 0.8)]
    all_pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    rows = []
    for g in range(size.pref_groups):
        group = f"g{g:05d}"
        category = CATEGORIES[g % len(CATEGORIES)]
        ref = _reference(rng, vocab, 1.7, 30)
        quality = []
        for c, (word_base, typo_base) in enumerate(systems):
            wr = min(max(word_base + rng.uniform(-0.25, 0.25), 0.0), 0.8)
            tl = min(max(typo_base + rng.uniform(-0.35, 0.35), 0.0), 1.0)
            quality.append(_hidden_quality(wr, tl, rng))
            rating = min(max(round(1.0 + 9.0 * quality[-1]), 1), 10)
            rows.append((category, f"sys{c}", group, " ".join(_corrupt(ref, wr, tl, rng, vocab)),
                         " ".join(ref), str(rating)))
        for a, b in sorted(rng.sample(all_pairs, 4)):
            if (quality[a] < quality[b]) != (rng.random() < 0.1):
                a, b = b, a
            inputs.plan.append((group, category, f"sys{a}", f"sys{b}"))
    # One corpus file per category: basemetrics runs once per category.
    for category in CATEGORIES:
        path = inputs.files[f"corpus_{category}"] = os.path.join(directory, f"corpus_{category}.csv")
        _write_csv(path, ["dataset", "system", "segment", "hypothesis", "reference", "human"],
                   [row for row in rows if row[0] == category])
    inputs.files["specs"] = os.path.join(directory, "specs.json")
    _write_specs(inputs.files["specs"], BUILTIN_SPECS)
    # Written only so the set-up probes' input digests cover the plan too.
    inputs.files["plan"] = os.path.join(directory, "plan.json")
    with open(inputs.files["plan"], "w", encoding="utf-8") as fh:
        json.dump(inputs.plan, fh)
    return inputs


# ---------------------------------------------------------------------------
# Pairwise files assembled inside a pass (benchmark glue, untimed)
# ---------------------------------------------------------------------------


def _read_scores(path: str) -> list[tuple[str, str, str, dict[str, float], float]]:
    """(dataset, system, segment, metric scores, human) per row of a score CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        human = header.index("human")
        return [(r[0], r[1], r[2], {m: float(v) for m, v in zip(header[3:], r[3:]) if m != "human"},
                 float(r[human])) for r in reader]


def _write_pair(fh, group: str, category: str, chosen: dict, rejected: dict) -> None:
    fh.write(json.dumps({"group": group, "category": category,
                         "chosen": chosen, "rejected": rejected}) + "\n")


def concat_csv(paths: list[str], path: str) -> None:
    """Concatenate CSV files that share a header."""
    with open(path, "w", encoding="utf-8", newline="") as out:
        for k, source in enumerate(paths):
            with open(source, encoding="utf-8", newline="") as fh:
                lines = fh.readlines()
            out.writelines(lines if k == 0 else lines[1:])


def write_prefs_jsonl(ratings_csv: str, plan: list[tuple[str, str, str, str]], path: str) -> None:
    """The judged candidate pairs, with each candidate's basemetrics scores."""
    rows = _read_scores(ratings_csv)
    scores = {(segment, system): values for _, system, segment, values, _ in rows}
    with open(path, "w", encoding="utf-8") as fh:
        for group, category, chosen, rejected in plan:
            _write_pair(fh, group, category, scores[(group, chosen)], scores[(group, rejected)])


def write_pairs_from_ratings(scores_csv: str, path: str, threshold: float, stride: int) -> None:
    """Relative-ranking pairs from pointwise ratings: within every
    ``stride``-th segment, each pair of systems whose human scores differ by
    at least ``threshold``, the better-rated one chosen."""
    rows = _read_scores(scores_csv)
    segments: dict[tuple[str, str], list] = {}
    for row in rows:
        segments.setdefault((row[0], row[2]), []).append(row)
    with open(path, "w", encoding="utf-8") as fh:
        for k, ((dataset, segment), members) in enumerate(segments.items()):
            if k % stride:
                continue
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if abs(a[4] - b[4]) >= threshold:
                        better, worse = (a, b) if a[4] > b[4] else (b, a)
                        _write_pair(fh, f"{dataset}:{segment}", dataset, better[3], worse[3])


GENERATORS: dict[str, Callable[[str, int, str, Size], Inputs]] = {
    "desk": generate_desk,
    "scale": generate_scale,
    "prefs": generate_prefs,
}


def generate(name: str, root: str, seed: int, directory: str, size: Size) -> Inputs:
    """Write workload ``name``'s inputs for ``seed`` into a new ``directory``."""
    os.makedirs(directory)
    return GENERATORS[name](root, seed, directory, size)
