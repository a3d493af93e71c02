"""Self-contained n-gram base metrics: BLEU, chrF, ROUGE-1/2/L.

These exist so the pipeline runs end to end at desk scale without external
metric services.  Tokenization is a plain Unicode whitespace split
(`str.split()`) with no stemming or lowercasing; chrF removes all
whitespace and compares code points, case-sensitively.  The exact behavior
is documented here because undocumented metric parameterization is
precisely the reproducibility problem this package is meant to avoid.
Every score lands in [0, 1] with higher meaning better.

Each metric is a column function: it takes a sequence of `SegmentPair` and
returns one float64 per pair (`bleu([pair])[0]` scores a single pair).
Pairs are tokenized and their clipped n-gram matches counted a block of
consecutive pairs at a time: a block's texts hold fewer than
`_BLOCK_UNITS` characters plus its last pair, so memory stays bounded on
any corpus size.  The float formulas run per pair in a fixed operation
order, so a score does not depend on which other pairs share its corpus.
`score_corpus` counts token matches once for BLEU, ROUGE-1 and ROUGE-2: the
first k orders of a table equal an order-k table, integer for integer.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import ExampleId, MetacalError, MetricSpec, ScoreMatrix, unique_example_ids
from .objectives import EmptyInput

# Text characters per block of pairs (see `_blocks`).
_BLOCK_UNITS = 1 << 15


@dataclass(frozen=True)
class SegmentPair:
    """One hypothesis/reference pair (single reference)."""

    hypothesis: str
    reference: str


def _tokens(text: str) -> list[str]:
    return text.split()


def _no_space(text: str) -> str:
    return "".join(text.split())


def _code_points(hyps: Sequence[str], refs: Sequence[str]) -> np.ndarray:
    """Code points of hyps[0], refs[0], hyps[1], ... back to back; lone
    surrogates are code points too."""
    joined = "".join(side for pair in zip(hyps, refs) for side in pair)
    return np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)


def _token_ids(hyps: Sequence[list[str]], refs: Sequence[list[str]]) -> np.ndarray:
    """Dense token ids of hyps[0], refs[0], hyps[1], ... back to back."""
    vocab: dict[str, int] = {}
    return np.fromiter(
        (vocab.setdefault(t, len(vocab)) for pair in zip(hyps, refs) for side in pair for t in side),
        dtype=np.int64,
    )


def _blocks(size: np.ndarray) -> Iterator[slice]:
    """Consecutive pair ranges: pair i joins block before_i // _BLOCK_UNITS,
    where before_i sums `size` over the pairs ahead of it.  So a block holds
    less than _BLOCK_UNITS plus the size of its last pair."""
    before = np.cumsum(size) - size
    starts = np.flatnonzero(np.diff(before // _BLOCK_UNITS, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [size.size]):
        yield slice(lo, hi)


def _block_matches(units: np.ndarray, lengths: np.ndarray, max_n: int) -> np.ndarray:
    """Clipped order-1..max_n matches of each pair in one block.

    `units` holds the sequences hyp 0, ref 0, hyp 1, ... back to back (it
    is overwritten) and `lengths` their lengths.  At order n each start
    position gets the key (id of its (pair, order n-1 gram), next unit,
    side); order 0's gram id is the pair.  After one sort, a hyp run
    directly followed by the ref run of the same gram adds min(count) to its
    pair, and the runs of (pair, gram) number the grams that order n + 1
    extends.  Positions stay in sorted order, so each sort starts from runs
    already sorted by gram.
    """
    n_pairs = lengths.size // 2
    matched = np.zeros((n_pairs, max_n), dtype=np.int64)
    if units.size == 0:
        return matched
    ends = np.cumsum(lengths)
    pair_units = lengths[::2] + lengths[1::2]
    pair_start = ends[1::2] - pair_units
    # Gram ids stay below units.size and units below 0x110000 (code points)
    # or units.size (token ids), so keys fit in int64 for any block in memory.
    step = 2 * (int(units.max()) + 1)
    unit_side = units
    unit_side *= 2
    unit_side += np.repeat(np.arange(lengths.size) % 2 == 1, lengths)
    starts_gram = np.ones(units.size, dtype=bool)
    pos = np.arange(units.size)
    gram = np.repeat(np.arange(n_pairs), pair_units)
    for n in range(1, max_n + 1):
        if n > 1:
            # The last n - 1 positions of a sequence start no n-gram.
            starts_gram[(ends - (n - 1))[lengths >= n - 1]] = False
            keep = starts_gram[pos]
            pos, gram = pos[keep], gram[keep]
            if pos.size == 0:
                break
        key = gram * step
        key += unit_side[pos + (n - 1)]
        order = np.argsort(key, kind="stable")
        key, pos = key[order], pos[order]
        run_start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        count = np.diff(run_start, append=key.size)
        run_key = key[run_start]
        both = np.flatnonzero((run_key[1:] - run_key[:-1] == 1) & (run_key[:-1] % 2 == 0))
        owner = np.searchsorted(pair_start, pos[run_start[both]], side="right") - 1
        matched[:, n - 1] = np.bincount(
            owner, weights=np.minimum(count[both], count[both + 1]), minlength=n_pairs
        )
        if n < max_n:
            half = key >> 1
            gram = np.concatenate(([0], np.cumsum(half[1:] != half[:-1])))
    return matched


def _clipped_matches(
    pairs: Sequence[SegmentPair],
    max_n: int,
    prepare: Callable[[str], Sequence],
    encode: Callable[[list, list], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """matched[i, n - 1], the order-n grams of pair i's hypothesis found in
    its reference (each counting at most as often as the reference has it),
    and the lengths of the prepared hypotheses and references.

    `prepare` turns a text into its sequence of tokens or characters, and
    `encode` a block's prepared sides into integer units, back to back in
    hyp/ref order.  Blocks are cut on text length, which bounds the units.
    """
    lengths = np.zeros((len(pairs), 2), dtype=np.int64)
    matched = np.zeros((len(pairs), max_n), dtype=np.int64)
    text_len = np.array([len(p.hypothesis) + len(p.reference) for p in pairs], dtype=np.int64)
    for block in _blocks(text_len):
        hyps = [prepare(p.hypothesis) for p in pairs[block]]
        refs = [prepare(p.reference) for p in pairs[block]]
        lengths[block] = [(len(h), len(r)) for h, r in zip(hyps, refs)]
        matched[block] = _block_matches(encode(hyps, refs), lengths[block].ravel(), max_n)
    return matched, lengths[:, 0], lengths[:, 1]


def _totals(length: np.ndarray, max_n: int) -> np.ndarray:
    """Order-1..max_n gram totals, max(len - n + 1, 0)."""
    return np.maximum(length[:, None] - np.arange(max_n), 0)


def _map(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """`fn` on each value with Python's scalar math, not numpy's."""
    return np.array([fn(v) for v in values.ravel().tolist()], dtype=np.float64).reshape(values.shape)


def _check_order(value: int, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise MetacalError(f"{name} must be a positive integer, got {value!r}")


def bleu(pairs: Sequence[SegmentPair], max_n: int = 4) -> np.ndarray:
    """Sentence BLEU per pair: geometric mean of clipped n-gram precisions
    times the brevity penalty, with add-one smoothing on orders above 1.

    An empty hypothesis scores 0, and so does one with no unigram match.
    Orders the hypothesis is too short to produce contribute a smoothed
    precision of 1.  `max_n` must be a positive integer.
    """
    _check_order(max_n, "max_n")
    return _bleu(*_clipped_matches(pairs, max_n, _tokens, _token_ids), max_n)


def _bleu(matched: np.ndarray, hyp_len: np.ndarray, ref_len: np.ndarray, max_n: int) -> np.ndarray:
    """BLEU from a token match table of order max_n."""
    total = _totals(hyp_len, max_n)
    scored = matched[:, 0] > 0
    matched, total = matched[scored], total[scored]
    hyp_len, ref_len = hyp_len[scored], ref_len[scored]
    precision = (matched + 1.0) / (total + 1.0)
    precision[:, 0] = matched[:, 0] / total[:, 0]
    log_precision = _map(math.log, precision)
    log_sum = np.zeros(matched.shape[0])
    for n in range(max_n):
        log_sum += log_precision[:, n]
    brevity = np.ones_like(log_sum)
    short = hyp_len < ref_len
    brevity[short] = _map(math.exp, 1.0 - ref_len[short] / hyp_len[short])
    out = np.zeros(scored.size)
    out[scored] = brevity * _map(math.exp, log_sum / max_n)
    return out


def _average(ratios: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Mean of each row's present ratios, added left to right; 0 if none."""
    acc = np.zeros(ratios.shape[0])
    for n in range(ratios.shape[1]):
        acc += np.where(present[:, n], ratios[:, n], 0.0)
    count = present.sum(axis=1)
    return np.divide(acc, count, out=np.zeros_like(acc), where=count > 0)


def _ratio(matched: np.ndarray, total: np.ndarray) -> np.ndarray:
    return np.divide(matched, total, out=np.zeros(total.shape), where=total > 0)


def chrf(pairs: Sequence[SegmentPair], char_n: int = 6, beta: float = 2.0) -> np.ndarray:
    """Character n-gram F-beta score per pair, averaged over orders 1..char_n.

    Whitespace is removed before extracting character n-grams.  Orders where
    a side has no n-grams are skipped in that side's average.  Two empty
    sides score 1, one empty side 0.  `char_n` must be a positive integer
    and `beta` finite and positive.
    """
    _check_order(char_n, "char_n")
    if isinstance(beta, bool) or not isinstance(beta, numbers.Real) or not 0 < beta < math.inf:
        raise MetacalError(f"beta must be finite and positive, got {beta!r}")
    matched, hyp_len, ref_len = _clipped_matches(pairs, char_n, _no_space, _code_points)
    hyp_total, ref_total = _totals(hyp_len, char_n), _totals(ref_len, char_n)
    avg_p = _average(_ratio(matched, hyp_total), hyp_total > 0)
    avg_r = _average(_ratio(matched, ref_total), ref_total > 0)
    denom = beta * beta * avg_p + avg_r
    out = np.divide(
        (1.0 + beta * beta) * avg_p * avg_r, denom, out=np.zeros_like(denom), where=denom != 0.0
    )
    out[(hyp_len == 0) | (ref_len == 0)] = 0.0
    out[(hyp_len == 0) & (ref_len == 0)] = 1.0
    return out


def _f1(matched: np.ndarray, hyp_total: np.ndarray, ref_total: np.ndarray) -> np.ndarray:
    """F1 of matched/hyp_total and matched/ref_total per pair: 1 when both
    totals are 0, 0 when one is or nothing matches."""
    precision = _ratio(matched, hyp_total)
    recall = _ratio(matched, ref_total)
    both = precision + recall
    out = np.divide(2.0 * precision * recall, both, out=np.zeros_like(both), where=both != 0.0)
    out[(hyp_total == 0) & (ref_total == 0)] = 1.0
    return out


def _rouge_n(matched: np.ndarray, hyp_len: np.ndarray, ref_len: np.ndarray, n: int) -> np.ndarray:
    """ROUGE-n from a token match table of order n or more."""
    return _f1(matched[:, n - 1], np.maximum(hyp_len - n + 1, 0), np.maximum(ref_len - n + 1, 0))


def rouge_1(pairs: Sequence[SegmentPair]) -> np.ndarray:
    """Unigram-overlap F1 per pair."""
    return _rouge_n(*_clipped_matches(pairs, 1, _tokens, _token_ids), 1)


def rouge_2(pairs: Sequence[SegmentPair]) -> np.ndarray:
    """Bigram-overlap F1 per pair."""
    return _rouge_n(*_clipped_matches(pairs, 2, _tokens, _token_ids), 2)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length, bit-parallel over `b` (Allison &
    Dix 1986; Hyyro 2004): after each token of `a`, the zero bits of `v`
    count the LCS so far."""
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        u = v & masks.get(token, 0)
        if u:
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(pairs: Sequence[SegmentPair]) -> np.ndarray:
    """LCS-based F1 per pair: P = LCS/|hyp|, R = LCS/|ref|."""
    counts = np.zeros((len(pairs), 3), dtype=np.int64)
    for i, pair in enumerate(pairs):
        hyp, ref = _tokens(pair.hypothesis), _tokens(pair.reference)
        counts[i] = _lcs_length(hyp, ref), len(hyp), len(ref)
    return _f1(counts[:, 0], counts[:, 1], counts[:, 2])


BUILTIN_METRICS: dict[str, Callable[[Sequence[SegmentPair]], np.ndarray]] = {
    "bleu": bleu,
    "chrf": chrf,
    "rouge1": rouge_1,
    "rouge2": rouge_2,
    "rougel": rouge_l,
}

# The columns `score_corpus` reads off one token match table: the order each
# needs and its formula, called as formula(matched, hyp_len, ref_len, order).
_TOKEN_COLUMNS = {"bleu": (4, _bleu), "rouge1": (1, _rouge_n), "rouge2": (2, _rouge_n)}


def builtin_specs(names: Sequence[str]) -> tuple[MetricSpec, ...]:
    """Range specs for the built-in metrics (all live in [0, 1], higher better).

    The selection must name at least one metric and none twice.
    """
    if not names:
        raise MetacalError("no built-in metric selected")
    seen: set[str] = set()
    for name in names:
        if name not in BUILTIN_METRICS:
            raise MetacalError(
                f"unknown built-in metric {name!r}; available: "
                + ", ".join(sorted(BUILTIN_METRICS))
            )
        if name in seen:
            raise MetacalError(f"built-in metric {name!r} selected twice")
        seen.add(name)
    return tuple(MetricSpec(name, 0.0, 1.0, True) for name in names)


def score_corpus(
    pairs: Sequence[SegmentPair],
    metric_names: Sequence[str],
    example_ids: Sequence[ExampleId] | None = None,
) -> ScoreMatrix:
    """Score every pair with every selected built-in metric, one column each.

    Ids default to ("-", "-", str(index)) when the corpus has no identity.
    Given ids must be unique, one per pair; they are checked before any
    metric runs.
    """
    if not pairs:
        raise EmptyInput("empty corpus")
    builtin_specs(metric_names)
    if example_ids is None:
        example_ids = [ExampleId("-", "-", str(i)) for i in range(len(pairs))]
    example_ids = unique_example_ids(example_ids)
    if len(example_ids) != len(pairs):
        raise MetacalError(f"{len(example_ids)} example ids for {len(pairs)} pairs")
    orders = {name: _TOKEN_COLUMNS[name][0] for name in metric_names if name in _TOKEN_COLUMNS}
    if orders:
        table = _clipped_matches(pairs, max(orders.values()), _tokens, _token_ids)
    columns = [
        _TOKEN_COLUMNS[name][1](*table, orders[name]) if name in orders else BUILTIN_METRICS[name](pairs)
        for name in metric_names
    ]
    return ScoreMatrix(tuple(metric_names), example_ids, np.column_stack(columns))
