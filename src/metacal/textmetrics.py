"""Self-contained n-gram base metrics: BLEU, chrF, ROUGE-1/2/L.

These exist so the pipeline runs end to end at desk scale without external
metric services.  Tokenization is a plain Unicode whitespace split with no
stemming or lowercasing, and chrF is case-sensitive; the exact behavior is
documented here because undocumented metric parameterization is precisely
the reproducibility problem this package is meant to avoid.  Every score
lands in [0, 1] with higher meaning better.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import ExampleId, MetacalError, MetricSpec, ScoreMatrix
from .objectives import EmptyInput


@dataclass(frozen=True)
class SegmentPair:
    """One hypothesis/reference pair (single reference)."""

    hypothesis: str
    reference: str


def _tokens(text: str) -> list[str]:
    return text.split()


def _ngram_overlap(hyp: Sequence[str], ref: Sequence[str], n: int) -> tuple[int, int, int]:
    """Clipped n-gram matches of `hyp` in `ref` (each n-gram counts at most
    as often as `ref` has it), and the n-gram totals of `hyp` and `ref`."""
    hyp_counts, ref_counts = (
        Counter(tuple(items[i : i + n]) for i in range(len(items) - n + 1)) for items in (hyp, ref)
    )
    matched = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    return matched, max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0)


def bleu(pair: SegmentPair, max_n: int = 4) -> float:
    """Sentence BLEU: geometric mean of clipped n-gram precisions times the
    brevity penalty, with add-one smoothing on orders above 1.

    An empty hypothesis scores 0.  Orders the hypothesis is too short to
    produce contribute a smoothed precision of 1.
    """
    hyp = _tokens(pair.hypothesis)
    ref = _tokens(pair.reference)
    if not hyp:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        matched, total, _ = _ngram_overlap(hyp, ref, n)
        if n == 1:
            if matched == 0:
                return 0.0
            precision = matched / total
        else:
            precision = (matched + 1.0) / (total + 1.0)
        log_sum += math.log(precision)
    if len(hyp) >= len(ref):
        brevity = 1.0
    else:
        brevity = math.exp(1.0 - len(ref) / len(hyp))
    return brevity * math.exp(log_sum / max_n)


def chrf(pair: SegmentPair, char_n: int = 6, beta: float = 2.0) -> float:
    """Character n-gram F-beta score, averaged over orders 1..char_n.

    Whitespace is removed before extracting character n-grams.  Orders where
    a side has no n-grams are skipped in that side's average.
    """
    hyp = "".join(pair.hypothesis.split())
    ref = "".join(pair.reference.split())
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    precisions = []
    recalls = []
    for n in range(1, char_n + 1):
        matched, hyp_total, ref_total = _ngram_overlap(hyp, ref, n)
        if hyp_total > 0:
            precisions.append(matched / hyp_total)
        if ref_total > 0:
            recalls.append(matched / ref_total)
    avg_p = sum(precisions) / len(precisions) if precisions else 0.0
    avg_r = sum(recalls) / len(recalls) if recalls else 0.0
    denom = beta * beta * avg_p + avg_r
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * avg_p * avg_r / denom


def _ngram_f1(hyp: Sequence[str], ref: Sequence[str], n: int) -> float:
    matched, hyp_total, ref_total = _ngram_overlap(hyp, ref, n)
    if hyp_total == 0 and ref_total == 0:
        return 1.0
    if hyp_total == 0 or ref_total == 0:
        return 0.0
    precision = matched / hyp_total
    recall = matched / ref_total
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_1(pair: SegmentPair) -> float:
    """Unigram-overlap F1."""
    return _ngram_f1(_tokens(pair.hypothesis), _tokens(pair.reference), 1)


def rouge_2(pair: SegmentPair) -> float:
    """Bigram-overlap F1."""
    return _ngram_f1(_tokens(pair.hypothesis), _tokens(pair.reference), 2)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for token in a:
        cur = [0] * (len(b) + 1)
        for j, other in enumerate(b, start=1):
            if token == other:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(pair: SegmentPair) -> float:
    """LCS-based F1: P = LCS/|hyp|, R = LCS/|ref|."""
    hyp = _tokens(pair.hypothesis)
    ref = _tokens(pair.reference)
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    lcs = _lcs_length(hyp, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(hyp)
    recall = lcs / len(ref)
    return 2.0 * precision * recall / (precision + recall)


BUILTIN_METRICS: dict[str, Callable[[SegmentPair], float]] = {
    "bleu": bleu,
    "chrf": chrf,
    "rouge1": rouge_1,
    "rouge2": rouge_2,
    "rougel": rouge_l,
}


def builtin_specs(names: Sequence[str]) -> tuple[MetricSpec, ...]:
    """Range specs for the built-in metrics (all live in [0, 1], higher better)."""
    for name in names:
        if name not in BUILTIN_METRICS:
            raise MetacalError(
                f"unknown built-in metric {name!r}; available: "
                + ", ".join(sorted(BUILTIN_METRICS))
            )
    return tuple(MetricSpec(name, 0.0, 1.0, True) for name in names)


def score_corpus(
    pairs: Sequence[SegmentPair],
    metric_names: Sequence[str],
    example_ids: Sequence[ExampleId] | None = None,
) -> ScoreMatrix:
    """Score every pair with every selected built-in metric.

    Ids default to ("-", "-", str(index)) when the corpus has no identity.
    """
    if not pairs:
        raise EmptyInput("empty corpus")
    builtin_specs(metric_names)
    if example_ids is None:
        example_ids = [ExampleId("-", "-", str(i)) for i in range(len(pairs))]
    rows = []
    for eid, pair in zip(example_ids, pairs):
        rows.append((eid, [BUILTIN_METRICS[name](pair) for name in metric_names]))
    return ScoreMatrix.from_rows(tuple(metric_names), rows)
