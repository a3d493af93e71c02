import numpy as np
import pytest

from metacal.core import ExampleId, MetacalError
from metacal.harness import (
    TIE_POLICIES,
    DatasetStats,
    GroupedScores,
    NoRankablePairs,
    acc_t,
    avg_corr,
    build_report,
    grouped_pairwise_accuracy,
    seg_pearson,
    sys_pearson,
)
from metacal.objectives import DegenerateInput, EmptyInput, LengthMismatch

from oracles import (
    dict_avg_corr,
    dict_grouping,
    dict_seg_pearson,
    dict_sys_pearson,
    loop_acc_t,
    naive_pairwise_accuracy,
    naive_pearson,
)


def _grouped(cells):
    return GroupedScores.from_examples(cells)


# 3 systems x 2 segments; system means: human [3, 2, 1], metric [0.5, 0.7, 0.1]
HAND_TABLE = [
    (ExampleId("wmt", "A", "1"), 0.4, 2.5),
    (ExampleId("wmt", "A", "2"), 0.6, 3.5),
    (ExampleId("wmt", "B", "1"), 0.6, 1.5),
    (ExampleId("wmt", "B", "2"), 0.8, 2.5),
    (ExampleId("wmt", "C", "1"), 0.05, 0.5),
    (ExampleId("wmt", "C", "2"), 0.15, 1.5),
]


class TestSysPearson:
    def test_metric_equals_human(self):
        cells = [
            (ExampleId("d", s, str(i)), float(v), float(v))
            for i, (s, v) in enumerate([("A", 1), ("A", 2), ("B", 5), ("B", 3), ("C", 0), ("C", 2)])
        ]
        assert sys_pearson(_grouped(cells), "d") == 1.0

    def test_metric_is_negated_human(self):
        cells = [
            (ExampleId("d", s, str(i)), -float(v), float(v))
            for i, (s, v) in enumerate([("A", 1), ("A", 2), ("B", 5), ("B", 3), ("C", 0), ("C", 2)])
        ]
        assert sys_pearson(_grouped(cells), "d") == -1.0

    def test_hand_table_matches_oracle(self):
        value = sys_pearson(_grouped(HAND_TABLE), "wmt")
        assert value == pytest.approx(naive_pearson([0.5, 0.7, 0.1], [3, 2, 1]), abs=1e-12)

    def test_single_system_degenerate(self):
        cells = [(ExampleId("d", "A", str(i)), float(i), float(i)) for i in range(3)]
        with pytest.raises(DegenerateInput):
            sys_pearson(_grouped(cells), "d")


class TestSegPearson:
    def test_identical_vectors(self):
        cells = [(ExampleId("d", "A", str(i)), float(i), float(i)) for i in range(4)]
        assert seg_pearson(_grouped(cells), "d") == 1.0

    def test_single_system_equals_plain_pearson(self):
        rng = np.random.default_rng(0)
        metric = rng.normal(size=6)
        human = rng.normal(size=6)
        cells = [
            (ExampleId("d", "only", str(i)), metric[i], human[i]) for i in range(6)
        ]
        assert seg_pearson(_grouped(cells), "d") == pytest.approx(
            naive_pearson(metric, human), abs=1e-12
        )

    def test_ragged_grid_uses_present_cells_only(self):
        # system B misses segment 2; enumerate the present cells directly
        cells = [
            (ExampleId("d", "A", "1"), 0.1, 1.0),
            (ExampleId("d", "A", "2"), 0.4, 2.0),
            (ExampleId("d", "B", "1"), 0.9, 3.0),
        ]
        assert seg_pearson(_grouped(cells), "d") == pytest.approx(
            naive_pearson([0.1, 0.4, 0.9], [1.0, 2.0, 3.0]), abs=1e-12
        )


class TestAccT:
    def test_two_systems_agreeing(self):
        cells = [
            (ExampleId("d", "A", "1"), 0.9, 5.0),
            (ExampleId("d", "B", "1"), 0.2, 1.0),
        ]
        assert acc_t(_grouped(cells), "d") == 1.0

    def test_fully_reversed(self):
        cells = [
            (ExampleId("d", "A", "1"), 0.1, 3.0),
            (ExampleId("d", "B", "1"), 0.5, 2.0),
            (ExampleId("d", "C", "1"), 0.9, 1.0),
        ]
        assert acc_t(_grouped(cells), "d") == 0.0

    def test_hand_table_two_thirds(self):
        assert acc_t(_grouped(HAND_TABLE), "wmt") == pytest.approx(2 / 3, abs=1e-15)

    def test_human_ties_excluded_from_denominator(self):
        cells = [
            (ExampleId("d", "A", "1"), 0.9, 2.0),
            (ExampleId("d", "B", "1"), 0.5, 2.0),  # tied with A on human
            (ExampleId("d", "C", "1"), 0.1, 1.0),
        ]
        # rankable pairs: (A,C) and (B,C), both concordant
        assert acc_t(_grouped(cells), "d") == 1.0

    def test_metric_tie_scores_zero_by_default_half_with_flag(self):
        cells = [
            (ExampleId("d", "A", "1"), 0.5, 2.0),
            (ExampleId("d", "B", "1"), 0.5, 1.0),
        ]
        assert acc_t(_grouped(cells), "d") == 0.0
        assert acc_t(_grouped(cells), "d", tie_policy="half") == 0.5

    def test_all_human_tied_raises(self):
        cells = [
            (ExampleId("d", "A", "1"), 0.9, 1.0),
            (ExampleId("d", "B", "1"), 0.5, 1.0),
        ]
        with pytest.raises(NoRankablePairs):
            acc_t(_grouped(cells), "d")

    def test_negation_symmetry_random_tables(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n_sys = int(rng.integers(2, 7))
            n_seg = int(rng.integers(1, 5))
            cells = []
            neg_cells = []
            for s in range(n_sys):
                for g in range(n_seg):
                    m = float(rng.normal())
                    h = float(rng.normal())
                    eid = ExampleId("d", f"s{s}", f"g{g}")
                    cells.append((eid, m, h))
                    neg_cells.append((eid, -m, h))
            a = acc_t(_grouped(cells), "d")
            b = acc_t(_grouped(neg_cells), "d")
            assert a + b == pytest.approx(1.0, abs=1e-12)


class TestAvgCorr:
    def test_perfect_dataset(self):
        assert avg_corr({"d": DatasetStats(1.0, 1.0, 1.0)}) == 1.0

    def test_two_datasets_all_half(self):
        stats = DatasetStats(0.5, 0.5, 0.5)
        assert avg_corr({"a": stats, "b": stats}) == 0.5

    def test_mixed_table_matches_hand_average(self):
        parts = {
            "a": DatasetStats(0.9, 0.3, 0.6),
            "b": DatasetStats(-0.2, 0.8, 0.5),
        }
        expected = (0.9 + 0.3 + 0.6 - 0.2 + 0.8 + 0.5) / 6
        assert avg_corr(parts) == pytest.approx(expected, abs=1e-15)

    def test_identical_triples_aggregate_to_triple_mean(self):
        stats = DatasetStats(0.2, 0.4, 0.9)
        assert avg_corr({"a": stats, "b": stats, "c": stats}) == pytest.approx(
            np.mean([0.2, 0.4, 0.9]), abs=1e-15
        )

    def test_empty(self):
        with pytest.raises(EmptyInput):
            avg_corr({})


class TestAffineAndPermutationInvariance:
    def _random_cells(self, rng):
        cells = []
        for s in range(4):
            for g in range(3):
                cells.append(
                    (ExampleId("d", f"s{s}", f"g{g}"), float(rng.normal()), float(rng.normal()))
                )
        return cells

    def test_positive_affine_transform_of_metric(self):
        rng = np.random.default_rng(2)
        cells = self._random_cells(rng)
        scaled = [(eid, 4.2 * m + 1.3, h) for eid, m, h in cells]
        for stat in (sys_pearson, seg_pearson):
            assert stat(_grouped(scaled), "d") == pytest.approx(
                stat(_grouped(cells), "d"), abs=1e-12
            )
        assert acc_t(_grouped(scaled), "d") == acc_t(_grouped(cells), "d")

    def test_row_order_permutation(self):
        rng = np.random.default_rng(3)
        cells = self._random_cells(rng)
        shuffled = list(cells)
        rng.shuffle(shuffled)
        for stat in (sys_pearson, seg_pearson, acc_t):
            assert stat(_grouped(shuffled), "d") == stat(_grouped(cells), "d")


class TestGroupedPairwiseAccuracy:
    def test_single_category_all_correct(self):
        report = grouped_pairwise_accuracy(["chat", "chat"], [0.9, 0.7], [0.1, 0.3])
        assert report.category_accuracy == {"chat": 1.0}
        assert report.overall_accuracy == 1.0

    def test_overall_is_unweighted_category_mean(self):
        report = grouped_pairwise_accuracy(
            ["a", "a", "a", "b"], [1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]
        )
        assert report.overall_accuracy == 0.5  # categories weigh equally

    def test_four_categories_match_oracle(self):
        rng = np.random.default_rng(4)
        pairs = []
        per_cat = {}
        for cat in ("chat", "chat_hard", "safety", "reasoning"):
            members = [(float(rng.normal()), float(rng.normal())) for _ in range(rng.integers(3, 10))]
            per_cat[cat] = naive_pairwise_accuracy(members)
            pairs.extend((cat, c, r) for c, r in members)
        report = grouped_pairwise_accuracy(*zip(*pairs))
        for cat, acc in per_cat.items():
            assert report.category_accuracy[cat] == acc
        assert report.overall_accuracy == pytest.approx(np.mean(list(per_cat.values())))

    def test_empty(self):
        with pytest.raises(EmptyInput):
            grouped_pairwise_accuracy([], [], [])

    @pytest.mark.parametrize("categories, chosen, rejected", [
        (["a"], [1.0, 2.0], [0.0, 0.0]),
        (["a", "b"], [1.0], [0.0]),
        (["a", "b"], [1.0, 2.0], [0.0]),
    ])
    def test_unaligned_arrays_rejected(self, categories, chosen, rejected):
        with pytest.raises(LengthMismatch):
            grouped_pairwise_accuracy(categories, chosen, rejected)


def test_build_report_aggregates_all_datasets():
    cells = list(HAND_TABLE) + [
        (ExampleId("other", "X", "1"), 0.1, 1.0),
        (ExampleId("other", "X", "2"), 0.3, 2.0),
        (ExampleId("other", "Y", "1"), 0.8, 3.0),
        (ExampleId("other", "Y", "2"), 0.9, 4.0),
    ]
    report = build_report(_grouped(cells))
    assert set(report.datasets) == {"wmt", "other"}
    triples = [v for s in report.datasets.values() for v in s.as_triple()]
    assert report.avg_corr == pytest.approx(np.mean(triples), abs=1e-15)


def test_duplicate_cell_rejected():
    eid = ExampleId("d", "A", "1")
    with pytest.raises(MetacalError, match="duplicate"):
        GroupedScores.from_examples([(eid, 0.1, 1.0), (eid, 0.2, 2.0)])


# Labels that sort differently as Python strings and as numpy '<U' arrays,
# which drop trailing NULs: "a" and "a\x00" are two systems here.
DATASETS = ("wmt", "wmt\x00", "ünï")
SYSTEMS = ("a", "a\x00", "b", "é", "Ω", "z\x00\x00", "系统")
SEGMENTS = ("1", "1\x00", "2", "ü", "10", "段", *(f"g{k}" for k in range(60)))


def _pick(rng, labels, low, high):
    return [labels[i] for i in rng.permutation(len(labels))[: rng.integers(low, high + 1)]]


def _scores(rng, n, tied):
    """`n` scores on a coarse grid (ties) or continuous."""
    return rng.integers(0, 4, n) * 0.25 if tied else rng.normal(size=n)


def _random_table(rng):
    """A ragged table in shuffled row order: one-cell systems, systems of up
    to 60 cells, score ties, non-ASCII and trailing-NUL labels."""
    rows = []
    for dataset in _pick(rng, DATASETS, 1, len(DATASETS)):
        tied_metric, tied_human = rng.random(2) < 0.3
        for system in _pick(rng, SYSTEMS, 2, len(SYSTEMS)):
            segments = _pick(rng, SEGMENTS, 1, 1 if rng.random() < 0.25 else 60)
            metric = _scores(rng, len(segments), tied_metric)
            human = _scores(rng, len(segments), tied_human)
            rows += [(ExampleId(dataset, system, g), m, h) for g, m, h in zip(segments, metric, human)]
    return [rows[i] for i in rng.permutation(len(rows))]


def _outcome(call):
    """The value's exact bits, or "refused".  Every statistic is a Python float."""
    try:
        value = call()
    except (MetacalError, ZeroDivisionError):
        return "refused"
    assert type(value) is float
    return value.hex()


@pytest.mark.parametrize("seed", range(4))
def test_statistics_match_the_dict_harness_bit_for_bit(seed):
    """Same bits as the dict-of-cells harness: each system mean adds its
    cells in row order with numpy's pairwise sum, and labels sort as
    Python strings."""
    rng = np.random.default_rng(seed)
    outcomes = []
    for _ in range(25):
        rows = _random_table(rng)
        grouped, groups = _grouped(rows), dict_grouping(rows)
        assert grouped.datasets() == tuple(groups)
        for dataset, cells in groups.items():
            pairs = [(lambda: sys_pearson(grouped, dataset), lambda: dict_sys_pearson(cells)),
                     (lambda: seg_pearson(grouped, dataset), lambda: dict_seg_pearson(cells))]
            pairs += [(lambda p=p: acc_t(grouped, dataset, p), lambda p=p: loop_acc_t(cells, p))
                      for p in TIE_POLICIES]
            for new, old in pairs:
                outcomes.append(_outcome(old))
                assert _outcome(new) == outcomes[-1], dataset
        for policy in TIE_POLICIES:
            outcomes.append(_outcome(lambda: dict_avg_corr(groups, policy)))
            assert _outcome(lambda: build_report(grouped, policy).avg_corr) == outcomes[-1]
    assert outcomes.count("refused") < len(outcomes) // 10
