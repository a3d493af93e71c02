from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metacal import textmetrics
from metacal.core import ExampleId
from metacal.objectives import EmptyInput
from metacal.textmetrics import (
    BUILTIN_METRICS,
    SegmentPair,
    bleu,
    chrf,
    rouge_1,
    rouge_2,
    rouge_l,
    score_corpus,
)

from oracles import (
    bleu_pair,
    chrf_pair,
    lcs_recursive,
    lcs_table,
    naive_chrf,
    rouge_l_pair,
    rouge_n_pair,
)


def _pair(hyp, ref):
    return SegmentPair(hyp, ref)


def _one(fn, hyp, ref, **kwargs):
    """`fn` on a one-pair corpus."""
    return fn([_pair(hyp, ref)], **kwargs)[0]


class TestBleu:
    def test_identity_at_max_n_length(self):
        assert _one(bleu, "a b c d", "a b c d") == 1.0
        assert _one(bleu, "a b c d e f", "a b c d e f") == 1.0

    def test_clipped_unigram_counts(self):
        # clipped count 1 over 3; hypothesis longer than reference, no penalty
        assert _one(bleu, "the the the", "the cat", max_n=1) == pytest.approx(1 / 3)

    def test_empty_hypothesis(self):
        assert _one(bleu, "", "a b") == 0.0

    def test_no_unigram_overlap(self):
        assert _one(bleu, "x y z", "a b c") == 0.0

    def test_brevity_penalty_applies(self):
        long_ref = "a b c d e f g h"
        short_hyp = "a b c d"
        expected_bp = np.exp(1 - 8 / 4)
        full = _one(bleu, short_hyp, long_ref)
        no_penalty = _one(bleu, short_hyp, short_hyp)
        assert full == pytest.approx(expected_bp * no_penalty)


class TestChrf:
    def test_identical_strings(self):
        assert _one(chrf, "granite harbor", "granite harbor") == 1.0

    def test_disjoint_alphabets(self):
        assert _one(chrf, "aaaa", "zzzz") == 0.0

    def test_case_sensitive(self):
        assert _one(chrf, "Abcd", "abcd") < 1.0

    def test_matches_enumeration_oracle(self):
        cases = [
            ("abcd", "abce"),
            ("machine translation", "machine interpretation"),
            ("abc abc", "abc"),
            ("short", "a much longer reference string"),
        ]
        for hyp, ref in cases:
            assert _one(chrf, hyp, ref) == pytest.approx(naive_chrf(hyp, ref), abs=1e-12)

    def test_random_identity_scores_one(self):
        rng = np.random.default_rng(8)
        alphabet = list("abcdefgh ")
        for _ in range(25):
            s = "".join(rng.choice(alphabet, size=rng.integers(1, 30)))
            if not s.strip():
                continue
            assert _one(chrf, s, s) == 1.0

    def test_lone_surrogates_are_characters(self):
        # Each lone surrogate is one code point; a strict utf-32 encode raises.
        assert _one(chrf, "a\ud800b", "a\ud800c") == chrf_pair("a\ud800b", "a\ud800c")
        assert _one(chrf, "a\ud800b", "a\ud800c") == pytest.approx(0.3889, abs=1e-4)


class TestRouge:
    def test_identity(self):
        for fn in (rouge_1, rouge_2, rouge_l):
            assert _one(fn, "a b c d", "a b c d") == 1.0

    def test_disjoint(self):
        for fn in (rouge_1, rouge_2, rouge_l):
            assert _one(fn, "x y z w", "a b c d") == 0.0

    def test_rouge_l_lcs_f1(self):
        # LCS length 3, P = R = 3/4
        assert _one(rouge_l, "a b c d", "a c b d") == pytest.approx(0.75)

    def test_rouge_l_matches_independent_lcs(self):
        rng = np.random.default_rng(9)
        vocab = list("abcdef")
        for _ in range(40):
            hyp = tuple(rng.choice(vocab, size=rng.integers(1, 10)))
            ref = tuple(rng.choice(vocab, size=rng.integers(1, 10)))
            lcs = lcs_recursive(hyp, ref)
            got = _one(rouge_l, " ".join(hyp), " ".join(ref))
            if lcs == 0:
                assert got == 0.0
            else:
                p = lcs / len(hyp)
                r = lcs / len(ref)
                assert got == pytest.approx(2 * p * r / (p + r))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from("abcd"), max_size=80),
        st.lists(st.sampled_from("abcd"), max_size=80),
    )
    def test_bit_parallel_lcs_matches_table(self, a, b):
        assert textmetrics._lcs_length(a, b) == lcs_table(a, b)


class TestScoreCorpus:
    def test_shape(self):
        matrix = score_corpus([_pair("a b", "a b")], ["bleu", "chrf", "rougel"])
        assert matrix.values.shape == (1, 3)

    def test_identity_corpus_all_ones(self):
        pairs = [_pair("w x y z", "w x y z"), _pair("m n o p q", "m n o p q")]
        matrix = score_corpus(pairs, list(BUILTIN_METRICS))
        np.testing.assert_array_equal(matrix.values, 1.0)

    def test_matches_scalar_calls(self):
        pairs = [
            _pair("the quick brown fox", "the quick red fox"),
            _pair("jumps over", "jumps over the dog"),
        ]
        names = ["bleu", "chrf", "rouge1", "rouge2", "rougel"]
        matrix = score_corpus(pairs, names)
        for i, pair in enumerate(pairs):
            for j, name in enumerate(names):
                assert matrix.values[i, j] == BUILTIN_METRICS[name]([pair])[0]

    def test_deterministic_rescoring(self):
        pairs = [_pair("a b c", "a c")]
        a = score_corpus(pairs, ["bleu", "chrf"])
        b = score_corpus(pairs, ["bleu", "chrf"])
        np.testing.assert_array_equal(a.values, b.values)

    def test_empty_corpus(self):
        with pytest.raises(EmptyInput):
            score_corpus([], ["bleu"])

    def test_all_scores_in_unit_interval(self):
        rng = np.random.default_rng(10)
        vocab = ["ab", "cd", "ef", "gh", "xyz"]
        pairs = []
        for _ in range(30):
            hyp = " ".join(rng.choice(vocab, size=rng.integers(0, 8)))
            ref = " ".join(rng.choice(vocab, size=rng.integers(1, 8)))
            pairs.append(_pair(hyp, ref))
        matrix = score_corpus(pairs, list(BUILTIN_METRICS))
        assert np.all(matrix.values >= 0.0)
        assert np.all(matrix.values <= 1.0)

    def test_custom_ids_preserved(self):
        ids = [ExampleId("d", "s", "42")]
        matrix = score_corpus([_pair("a", "a")], ["bleu"], ids)
        assert matrix.example_ids == (ExampleId("d", "s", "42"),)


# The per-pair oracle of each column, by BUILTIN_METRICS name.
ORACLES = {
    "bleu": bleu_pair,
    "chrf": chrf_pair,
    "rouge1": lambda hyp, ref: rouge_n_pair(hyp, ref, 1),
    "rouge2": lambda hyp, ref: rouge_n_pair(hyp, ref, 2),
    "rougel": rouge_l_pair,
}

# Letters that repeat (so n-grams match), an accented letter, a combining
# mark, astral characters, lone surrogates, and whitespace that str.split
# breaks on: space, tab, newline, NBSP, the \x1c separator, ideographic space.
_CHARS = st.sampled_from(
    ["a", "b", "c", "a", "b", " ", " ", "\u00e9", "\u0301", "\U0001F600", "\U00010348",
     "\ud800", "\udfff", "\t", "\n", "\xa0", "\x1c", "\u3000"]
)
_SIDES = st.one_of(st.just(""), st.just(" \t\n\xa0"), st.text(_CHARS, max_size=40))


def _assert_columns_match_oracles(pairs):
    for name, fn in BUILTIN_METRICS.items():
        column = fn(pairs)
        assert column.dtype == np.float64 and column.shape == (len(pairs),)
        expected = [ORACLES[name](p.hypothesis, p.reference) for p in pairs]
        assert column.tolist() == expected, name


class TestOracleParity:
    """Every column equals the per-pair oracle exactly, however the corpus
    falls into blocks."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(_SIDES, _SIDES), min_size=1, max_size=25),
        st.sampled_from([1, 2, 7, 32, 1 << 15]),
    )
    def test_columns_equal_oracles(self, sides, block_units):
        pairs = [_pair(hyp, ref) for hyp, ref in sides]
        with mock.patch.object(textmetrics, "_BLOCK_UNITS", block_units):
            _assert_columns_match_oracles(pairs)

    def test_full_size_blocks_and_a_pair_longer_than_a_block(self):
        rng = np.random.default_rng(11)
        words = ["ab", "ba", "abc", "c", "\u00e9t\u00e9", "\U0001F600", "x\ud800"]

        def text(n):
            return " ".join(rng.choice(words, size=n))

        pairs = [_pair(text(rng.integers(0, 13)), text(rng.integers(0, 13))) for _ in range(3000)]
        long_side = text(1 << 15)
        pairs[1000:1000] = [_pair(long_side, text(6)), _pair(text(6), long_side)]
        assert len(long_side) > textmetrics._BLOCK_UNITS
        assert sum(len(p.hypothesis) + len(p.reference) for p in pairs) > 4 * textmetrics._BLOCK_UNITS
        _assert_columns_match_oracles(pairs)

    def test_blocks_are_consecutive_and_bounded(self):
        sizes = np.array([3, 0, 4, 40, 1, 1, 1, 0, 50, 2])
        with mock.patch.object(textmetrics, "_BLOCK_UNITS", 8):
            blocks = list(textmetrics._blocks(sizes))
        assert [(b.start, b.stop) for b in blocks] == [(0, 4), (4, 5), (5, 9), (9, 10)]

    def test_empty_corpus_gives_empty_columns(self):
        for fn in BUILTIN_METRICS.values():
            assert fn([]).shape == (0,)
