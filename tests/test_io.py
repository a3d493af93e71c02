import csv
import io
import json
import math
import os
import re
import tempfile
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metacal.core import (
    CalibratedModel,
    ExampleId,
    MetacalError,
    MetricSpec,
    MissingTarget,
    ModelKind,
    PreferencePair,
    PreferenceTarget,
    ScoreMatrix,
    Weighting,
)
from metacal import io as metacal_io
from metacal.gbt import GbtConfig, gbt_train
from metacal.io import (
    ID_COLUMNS,
    ColumnMismatch,
    HeaderMismatch,
    MalformedModel,
    NonFiniteValue,
    ParseError,
    SchemaVersionUnsupported,
    dumps_canonical,
    format_float,
    load_corpus_csv,
    load_model,
    load_scores_csv,
    load_scores_jsonl,
    model_from_obj,
    model_to_obj,
    report_model,
    save_meta_scores,
    save_model,
    save_scores_csv,
    save_scores_jsonl,
    score_with_model,
    specs_from_obj,
    split_matrix,
    split_train_test,
)
from metacal.textmetrics import SegmentPair
from oracles import compact_json, row_load_scores_csv, row_load_scores_jsonl, row_read_table


def _random_matrix(rng, n=12, metrics=("alpha", "beta", "gamma")):
    values = rng.uniform(-5, 105, size=(n, len(metrics)))
    ids = tuple(ExampleId("d", f"s{i % 3}", f"seg{i}") for i in range(n))
    return ScoreMatrix(tuple(metrics), ids, values)


def _specs(names=("alpha", "beta", "gamma")):
    return tuple(MetricSpec(n, 0.0, 100.0, True) for n in names)


def _linear_model(weights=(0.25, 0.5, 0.75), weighting=Weighting.LINEAR):
    return CalibratedModel(
        kind=ModelKind.LINEAR,
        metric_specs=_specs(),
        objective_used="kendall",
        seed=3,
        weighting=weighting,
        weights=weights,
    )


def _gbt_model(rng):
    x = rng.uniform(0, 1, (40, 3))
    y = 2 * x[:, 0] + x[:, 1] + rng.normal(0, 0.1, 40)
    cfg = GbtConfig(
        n_estimators_low=5, n_estimators_high=5, n_estimators_step=1,
        max_depth=3, seed=0,
    )
    ensemble = gbt_train(x, y, cfg, 5)
    return CalibratedModel(
        kind=ModelKind.GBT,
        metric_specs=tuple(MetricSpec(n, 0.0, 1.0) for n in ("alpha", "beta", "gamma")),
        objective_used="kendall",
        seed=0,
        trees=ensemble,
    )


class TestCanonicalJson:
    def test_seventeen_significant_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert float(format_float(0.1)) == 0.1

    def test_round_trip_exactness(self):
        rng = np.random.default_rng(0)
        for v in rng.normal(0, 1e6, 200):
            assert float(format_float(float(v))) == float(v)

    def test_deterministic_output(self):
        obj = {"b": [1.5, 2], "a": {"x": 0.3333333333333333}}
        assert dumps_canonical(obj) == dumps_canonical(obj)


class TestScoresCsvRoundTrip:
    def test_matrix_and_target_survive(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = _random_matrix(rng)
        target = PreferenceTarget.from_pointwise(
            [float(rng.normal()) for _ in matrix.example_ids]
        )
        path = str(tmp_path / "scores.csv")
        save_scores_csv(matrix, path, target)
        back_m, back_t = load_scores_csv(path, _specs())
        assert back_m.metric_names == matrix.metric_names
        assert back_m.example_ids == matrix.example_ids
        np.testing.assert_array_equal(back_m.values, matrix.values)
        np.testing.assert_array_equal(back_t.z, target.z)

    def test_missing_metric_column(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("dataset,system,segment,alpha\n d,s,1,0.5\n")
        with pytest.raises(HeaderMismatch):
            load_scores_csv(path, _specs())

    def test_unparsable_value(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("dataset,system,segment,alpha,beta,gamma\n")
            fh.write("d,s,1,0.5,oops,0.1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_scores_csv(path, _specs())

    def test_non_finite_value(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("dataset,system,segment,alpha,beta,gamma\n")
            fh.write("d,s,1,0.5,inf,0.1\n")
        with pytest.raises(NonFiniteValue, match="line 2"):
            load_scores_csv(path, _specs())

    @pytest.mark.parametrize("text", ["1_0", "\u0661", "0.\u0665", "\u00a00.5", "\uff11"])
    def test_numbers_are_ascii_without_underscores(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text("dataset,system,segment,alpha,beta,gamma,human\n"
                        f"d,s,1,0.5,0.5,0.1,1\nd,s,2,0.5,0.5,0.1,{text}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"line 3: cannot parse {text!r} in column 'human'")):
            load_scores_csv(str(path), _specs())

    def test_ascii_padding_around_a_number_is_read(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text("dataset,system,segment,alpha,beta,gamma\nd,s,1, 0.5 ,\t1e-3,-2\n")
        matrix, _ = load_scores_csv(str(path), _specs())
        assert matrix.values.tolist() == [[0.5, 1e-3, -2.0]]

    def test_extra_columns_ignored(self, tmp_path):
        path = str(tmp_path / "wide.csv")
        with open(path, "w") as fh:
            fh.write("dataset,system,segment,zeta,alpha,beta,gamma\n")
            fh.write("d,s,1,9.0,0.5,0.6,0.7\n")
        matrix, target = load_scores_csv(path, _specs())
        np.testing.assert_array_equal(matrix.values, [[0.5, 0.6, 0.7]])
        assert target is None

    def test_a_metric_named_like_an_id_column_is_not_written(self, tmp_path):
        matrix = _random_matrix(np.random.default_rng(2), metrics=("alpha", "segment"))
        path = tmp_path / "scores.csv"
        with pytest.raises(HeaderMismatch, match="^a metric may not be named dataset, system, "
                                                 "segment or human: segment$"):
            save_scores_csv(matrix, str(path))
        assert list(tmp_path.iterdir()) == []


def test_staged_refuses_a_directory_before_the_first_move(tmp_path):
    existing, directory = tmp_path / "existing.txt", tmp_path / "a_directory"
    existing.write_text("before\n")
    directory.mkdir()
    with pytest.raises(IsADirectoryError, match=f"^{re.escape(str(directory))} is a directory$"):
        with metacal_io.staged([str(existing), str(directory)]) as tmps:
            for tmp in tmps:
                with open(tmp, "w") as fh:
                    fh.write("after\n")
    assert existing.read_text() == "before\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory", "existing.txt"]
    assert list(directory.iterdir()) == []


class TestTableReader:
    """Score CSV and corpus CSV share one reader; each test covers both."""

    SCORES = "dataset,system,segment,alpha,beta,gamma,human\nd,s,1,0.5,0.6,0.7,0.9\n"
    CORPUS = "dataset,system,segment,hypothesis,reference,human\nd,s,1,a cat,the cat,0.9\n"

    def _write(self, tmp_path, name, text, prefix=b""):
        path = tmp_path / name
        path.write_bytes(prefix + text.encode("utf-8"))
        return str(path)

    def test_utf8_byte_order_mark_is_dropped(self, tmp_path):
        bom = b"\xef\xbb\xbf"
        plain = load_scores_csv(self._write(tmp_path, "a.csv", self.SCORES), _specs())
        marked = load_scores_csv(self._write(tmp_path, "b.csv", self.SCORES, bom), _specs())
        assert marked[0].example_ids == plain[0].example_ids
        np.testing.assert_array_equal(marked[0].values, plain[0].values)
        assert marked[1] == plain[1]
        plain = load_corpus_csv(self._write(tmp_path, "c.csv", self.CORPUS))
        marked = load_corpus_csv(self._write(tmp_path, "d.csv", self.CORPUS, bom))
        assert marked == plain
        assert marked[0][0] == ExampleId("d", "s", "1")

    def test_repeated_used_column_rejected(self, tmp_path):
        for header, row, repeated in (
            ("alpha,beta,gamma,beta", "0.5,0.6,0.7,0.1", "beta"),
            ("alpha,beta,gamma,human,human", "0.5,0.6,0.7,0.1,0.2", "human"),
        ):
            text = f"dataset,system,segment,{header}\nd,s,1,{row}\n"
            with pytest.raises(HeaderMismatch, match=f"repeated columns: {repeated}"):
                load_scores_csv(self._write(tmp_path, "s.csv", text), _specs())
        text = self.CORPUS.replace("reference,human", "reference,reference").replace(
            "the cat,0.9", "the cat,a dog")
        with pytest.raises(HeaderMismatch, match="repeated columns: reference"):
            load_corpus_csv(self._write(tmp_path, "c.csv", text))

    def test_repeated_ignored_column_allowed(self, tmp_path):
        scores = self.SCORES.replace("segment,", "segment,note,note,").replace("d,s,1,", "d,s,1,x,y,")
        matrix, _ = load_scores_csv(self._write(tmp_path, "s.csv", scores), _specs())
        np.testing.assert_array_equal(matrix.values, [[0.5, 0.6, 0.7]])
        corpus = self.CORPUS.replace("segment,", "segment,note,note,").replace("d,s,1,", "d,s,1,x,y,")
        _, pairs, target = load_corpus_csv(self._write(tmp_path, "c.csv", corpus))
        assert (pairs[0].hypothesis, pairs[0].reference) == ("a cat", "the cat")
        assert target.z.tolist() == [0.9]


class TestScoresJsonlRoundTrip:
    def test_pairs_survive(self, tmp_path):
        rng = np.random.default_rng(2)
        chosen, rejected = rng.uniform(0, 100, (2, 6, 3))
        pairs = [
            PreferencePair(f"g{i}", category=("chat" if i % 2 else "safety"))
            for i in range(6)
        ]
        target = PreferenceTarget.from_pairs(pairs)
        stacked = _random_matrix(rng, n=12)
        stacked = ScoreMatrix(
            stacked.metric_names, stacked.example_ids,
            np.stack([chosen, rejected], axis=1).reshape(12, 3),
        )
        path = str(tmp_path / "pairs.jsonl")
        save_scores_jsonl(target, path, stacked)
        matrix, back = load_scores_jsonl(path, _specs())
        assert back.pairwise == target.pairwise
        assert matrix.n_examples == 12
        np.testing.assert_array_equal(matrix.values[0::2], chosen)
        np.testing.assert_array_equal(matrix.values[1::2], rejected)

    def test_missing_metric_in_record(self, tmp_path):
        path = str(tmp_path / "pairs.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"group": "g", "chosen": {"alpha": 1}, "rejected": {"alpha": 0}}) + "\n")
        with pytest.raises(HeaderMismatch):
            load_scores_jsonl(path, _specs())

    def test_invalid_json_line(self, tmp_path):
        path = str(tmp_path / "pairs.jsonl")
        with open(path, "w") as fh:
            fh.write("{not json\n")
        with pytest.raises(ParseError, match="line 1"):
            load_scores_jsonl(path, _specs())

    @pytest.mark.parametrize("edit", [
        {"group": 7}, {"group": [1]}, {"group": None}, {"category": 3},
        {"chosen": {"alpha": "0.5", "beta": 1, "gamma": 1}},
        {"rejected": {"alpha": True, "beta": 1, "gamma": 1}},
        {"rejected": {"alpha": 2**53 + 1, "beta": 1, "gamma": 1}},
    ])
    def test_fields_are_never_coerced(self, tmp_path, edit):
        record = {"group": "g", "category": "c", "chosen": {"alpha": 1, "beta": 1, "gamma": 1},
                  "rejected": {"alpha": 0, "beta": 0.5, "gamma": 0}}
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, **edit}) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            load_scores_jsonl(str(path), _specs())

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_value_rejected(self, tmp_path, literal):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"chosen": {"alpha": 1, "beta": 1, "gamma": 1}, '
                        f'"rejected": {{"alpha": 0, "beta": {literal}, "gamma": 0}}}}\n')
        with pytest.raises(NonFiniteValue, match="'beta'"):
            load_scores_jsonl(str(path), _specs())

    def test_absent_group_and_category_defaults(self, tmp_path):
        record = {"chosen": {"alpha": 1, "beta": 1, "gamma": 1},
                  "rejected": {"alpha": 0, "beta": 0, "gamma": 0}}
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n")
        _, target = load_scores_jsonl(str(path), _specs())
        assert [(p.group_id, p.category) for p in target.pairwise] == [("1", "-")]


def _outcome(load, *args):
    """A loader's result, or the type and message of the error it raises."""
    try:
        return load(*args)
    except MetacalError as exc:
        return type(exc), str(exc)


def _z(target):
    return None if target is None else target.z.tolist()


def _column_csv(path, names):
    matrix, target = load_scores_csv(path, _specs(names))
    return list(matrix.example_ids), matrix.values.tolist(), _z(target)


def _column_corpus(path):
    ids, pairs, target = load_corpus_csv(path)
    return ids, pairs, _z(target)


def _column_jsonl(path, names):
    matrix, target = load_scores_jsonl(path, _specs(names))
    pairs = [(p.group_id, p.category) for p in target.pairwise]
    return list(matrix.example_ids), matrix.values.tolist(), pairs


# Field texts that are not finite numbers, plus some that `float` reads.
_BAD_FIELDS = ("oops", "nan", "inf", "-Infinity", "true", '"0.5"', str(2**53 + 1), "", " 0.5 ", "1_0",
               "\u0661", "\u0660.\u0665", "\u00a00.5", "\uff11", "1e1_0")
_DROP = "<one field fewer>"


@st.composite
def _corrupted_table(draw):
    """CSV text of a score table (3 metrics, maybe human) with one or two
    fields replaced, maybe a row one field short, maybe blank rows."""
    n_rows = draw(st.integers(1, 9))
    width = 3 + draw(st.integers(0, 1))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = [["d", f"s{i % 3}", f"seg{i}", *(format_float(v) for v in draw(st.lists(finite, min_size=width, max_size=width)))]
            for i in range(n_rows)]
    for _ in range(draw(st.integers(1, 2))):
        row, column = draw(st.integers(0, n_rows - 1)), draw(st.integers(3, 2 + width))
        column = min(column, len(rows[row]) - 1)  # the row may be a field short already
        text = draw(st.sampled_from(_BAD_FIELDS + (_DROP,)))
        if text == _DROP:
            del rows[row][column]
        else:
            rows[row][column] = text
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [])
    header = ["dataset", "system", "segment", "alpha", "beta", "gamma", "human"][: 3 + width]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


@st.composite
def _corrupted_jsonl(draw):
    """JSONL text of pairwise records with one or two values or records
    replaced, maybe blank lines."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    n = draw(st.integers(1, 6))
    records = [
        {"group": f"g{i}", "category": "c",
         **{side: dict(zip(("alpha", "beta", "gamma"), draw(st.lists(finite, min_size=3, max_size=3))))
            for side in ("chosen", "rejected")}}
        for i in range(n)
    ]
    for _ in range(draw(st.integers(1, 2))):
        record = records[draw(st.integers(0, n - 1))]
        side = draw(st.sampled_from(("chosen", "rejected")))
        metric = draw(st.sampled_from(("alpha", "beta", "gamma")))
        edit = draw(st.sampled_from(("value", "value", "value", "missing", "group", "side")))
        if edit == "group":
            record["group"] = 7
        elif edit == "side":
            record[side] = [1]
        elif not isinstance(record[side], dict):
            continue
        elif edit == "missing":
            record[side].pop(metric, None)
        else:
            record[side][metric] = draw(st.sampled_from(
                (math.nan, math.inf, -math.inf, "<1e999>", True, "0.5", 2**53 + 1, 2**53 - 1, None, "oops")))
    lines = [json.dumps(r).replace('"<1e999>"', "1e999") for r in records]
    if draw(st.booleans()):
        lines[draw(st.integers(0, n - 1))] = "{not json"
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines) + "\n"


class TestColumnLoadersMatchRowLoaders:
    """The block-checked loaders raise the error of the row-by-row loaders
    in `tests/oracles.py`: same type, line, column and message, whichever
    block size splits the rows."""

    @staticmethod
    def _write(work, name, text):
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return path

    @settings(max_examples=300, deadline=None)
    @given(text=_corrupted_table(), block=st.sampled_from((1, 2, 3, 2048)))
    def test_score_table(self, text, block):
        names = ("alpha", "beta", "gamma")
        with tempfile.TemporaryDirectory() as work, mock.patch.object(metacal_io, "_BLOCK_ROWS", block):
            path = self._write(work, "t.csv", text)
            assert _outcome(_column_csv, path, names) == _outcome(row_load_scores_csv, path, names)

    @settings(max_examples=100, deadline=None)
    @given(text=_corrupted_table(), block=st.sampled_from((1, 2, 2048)))
    def test_corpus_table(self, text, block):
        text = text.replace("alpha,beta,gamma", "hypothesis,reference,note", 1)
        with tempfile.TemporaryDirectory() as work, mock.patch.object(metacal_io, "_BLOCK_ROWS", block):
            path = self._write(work, "c.csv", text)
            assert _outcome(_column_corpus, path) == _outcome(
                row_read_table, path, ("hypothesis", "reference"), lambda line, fields: SegmentPair(*fields))

    @settings(max_examples=300, deadline=None)
    @given(text=_corrupted_jsonl())
    def test_jsonl(self, text):
        names = ("alpha", "beta", "gamma")
        with tempfile.TemporaryDirectory() as work:
            path = self._write(work, "p.jsonl", text)
            assert _outcome(_column_jsonl, path, names) == _outcome(row_load_scores_jsonl, path, names)

    @pytest.mark.parametrize("late", ["field", "bytes"])
    def test_a_bad_row_comes_before_a_later_read_error(self, tmp_path, late):
        header = "dataset,system,segment,alpha,beta,gamma\n"
        late_row = ("d,s,3,0.5,0.5," + "9" * 200_000 + "\n").encode() if late == "field" else (
            b"d,s,3,0.5,0.5,0.5\n" * 3000 + b"d,s,x,\xff\n")
        path = tmp_path / "t.csv"
        path.write_bytes(header.encode() + b"d,s,2,0.5,oops,0.5\n" + late_row)
        with pytest.raises(ParseError, match="line 2: cannot parse 'oops' in column 'beta'"):
            load_scores_csv(str(path), _specs())
        path.write_bytes(header.encode() + b"d,s,2,0.5,0.5,0.5\n" + late_row)
        error = ParseError if late == "field" else UnicodeDecodeError
        with pytest.raises(error, match="line 3: field larger than field limit" if late == "field" else None):
            load_scores_csv(str(path), _specs())

    def test_error_in_a_late_block(self, tmp_path):
        rows = "".join(f"d,s,{i},0.5,0.5,0.5\n" for i in range(5000))
        path = tmp_path / "t.csv"
        path.write_text("dataset,system,segment,alpha,beta,gamma\n" + rows + "d,s,x,0.5,nan,0.5\n" + rows)
        with pytest.raises(NonFiniteValue, match="line 5002: non-finite value in column 'beta'"):
            load_scores_csv(str(path), _specs())


def _read_outcome(load, *args):
    """`_outcome`, with a `UnicodeDecodeError` as its type and reason."""
    try:
        return _outcome(load, *args)
    except UnicodeDecodeError as exc:
        return type(exc), exc.reason, exc.start


@contextmanager
def _fast_reads():
    """Record, per call of `_loadtxt_rows`, whether numpy's reader took the
    file (True) or left it to the block reader (False)."""
    taken, real = [], metacal_io._loadtxt_rows

    def spy(*args):
        rows = real(*args)
        taken.append(rows is not None)
        return rows

    with mock.patch.object(metacal_io, "_loadtxt_rows", spy):
        yield taken


def _scanned():
    return {c.decode() for c in metacal_io._STRIPPED_ASCII + metacal_io._STRIPPED_NON_ASCII}


@pytest.mark.filterwarnings("error")
class TestLoadtxtFallback:
    """Each way numpy's reader can decline a file ends in the block reader,
    which raises the error, line and column of the row-by-row loader, or
    returns its result."""

    NAMES = ("alpha", "beta", "gamma")
    HEADER = b"dataset,system,segment,alpha,beta,gamma,human\n"
    ROW = b"d,s,1,0.5,0.25,0.125,1.5\n"

    def _same(self, tmp_path, body, expected=None):
        """The column loader's outcome on a file of `body` after the header,
        checked equal to the row loader's (and to `expected`)."""
        path = tmp_path / "t.csv"
        path.write_bytes(self.HEADER + body)
        column = _read_outcome(_column_csv, str(path), self.NAMES)
        assert column == _read_outcome(row_load_scores_csv, str(path), self.NAMES)
        if expected is not None:
            assert column == expected
        return column

    def test_a_row_with_an_extra_field(self, tmp_path):
        with _fast_reads() as taken:
            self._same(tmp_path, self.ROW + b"d,s,2,0.5,0.25,0.125,1.5,extra\n",
                       (ParseError, "line 3: 8 fields, header has 7"))
        assert taken == [False]

    def test_an_undecodable_byte(self, tmp_path):
        # Past the text layer's first read, which the header read decodes.
        rows = "".join(f"d,s,{i},0.5,0.25,0.125,1.5\n" for i in range(2000)).encode()
        with _fast_reads() as taken:
            assert self._same(tmp_path, rows + b"d,s,\xff,0.5,0.25,0.125,1.5\n")[0] is UnicodeDecodeError
        assert taken == [False]

    @pytest.mark.parametrize("text", ["nan", "-inf", "1e999"])
    def test_a_non_finite_value(self, tmp_path, text):
        with _fast_reads() as taken:
            self._same(tmp_path, self.ROW + f"d,s,2,0.5,{text},0.125,1.5\n".encode(),
                       (NonFiniteValue, "line 3: non-finite value in column 'beta'"))
        assert taken == [False]

    def test_a_text_field_over_the_csv_size_limit(self, tmp_path):
        # Commas inside the quotes keep the scan from refusing the file, so
        # numpy reads it and the length check declines it.
        system = '"' + "x," * (csv.field_size_limit() // 2 + 1) + '"'
        with _fast_reads() as taken:
            self._same(tmp_path, self.ROW + f"d,{system},2,0.5,0.25,0.125,1.5\n".encode(),
                       (ParseError, f"line 3: field larger than field limit ({csv.field_size_limit()})"))
        assert taken == [False]

    def test_a_number_field_over_the_csv_size_limit(self, tmp_path):
        # numpy reads this as 0.0; the csv module refuses it, so the scan
        # refuses the file.
        number = "0." + "0" * 200_000 + "1"
        with _fast_reads() as taken:
            self._same(tmp_path, self.ROW + f"d,s,2,0.5,0.25,{number},1.5\n".encode(),
                       (ParseError, f"line 3: field larger than field limit ({csv.field_size_limit()})"))
        assert taken == []

    @pytest.mark.parametrize("text", ["\xa00.5", "0.5\u2009", "\u30000.5", "0.5\x85", "\x1c0.5", "0.5\x1f"])
    def test_a_character_numpy_strips_next_to_a_number(self, tmp_path, text):
        with _fast_reads() as taken:
            self._same(tmp_path, self.ROW + f"d,s,2,0.5,0.25,{text},1.5\n".encode(),
                       (ParseError, f"line 3: cannot parse {text!r} in column 'gamma'"))
        assert taken == []

    @pytest.mark.parametrize("text", ["١", "１", "1_0"])
    def test_a_number_numpy_refuses_itself(self, tmp_path, text):
        with _fast_reads() as taken:
            self._same(tmp_path, self.ROW + f"d,s,2,0.5,0.25,{text},1.5\n".encode(),
                       (ParseError, f"line 3: cannot parse {text!r} in column 'gamma'"))
        assert taken == [False]

    @pytest.mark.parametrize("body", [b"", b"\n", b"\r\n\n\r"])
    def test_a_header_only_file(self, tmp_path, body):
        assert self._same(tmp_path, body) == ([], [], [])

    def test_non_ascii_ids_and_texts_keep_numpy_s_reader(self, tmp_path):
        texts = ["é", "中文", "a—b", "’s", "\U0001f600", "\u200b"]  # none a space
        body = "".join(f"{t},s,{i},0.5,0.25,0.125,1.5\n" for i, t in enumerate(texts))
        with _fast_reads() as taken:
            self._same(tmp_path, body.encode())
        corpus = tmp_path / "c.csv"
        corpus.write_text("dataset,system,segment,hypothesis,reference\n"
                          + "".join(f"d,s,{i},{t} cat,the {t}\n" for i, t in enumerate(texts)), encoding="utf-8")
        with _fast_reads() as corpus_taken:
            assert load_corpus_csv(str(corpus))[1][2] == SegmentPair("a—b cat", "the a—b")
        assert taken == corpus_taken == [True]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("last, error", [
        (b"d,s,last,0.5,0.25,0.125,1.5\n", None),
        (b"d,s,last,0.5,0.25,0.125,oops\n", (ParseError, "line 602: cannot parse 'oops' in column 'human'")),
    ])
    def test_a_pipe_is_read_once_by_the_block_reader(self, tmp_path, last, error):
        """A named pipe, written in pieces that end inside a row and number,
        reads as the same table or error as a regular file of its bytes:
        nothing is read twice or lost to a second open."""
        rng = np.random.default_rng(5)
        body = "".join(f"d,s,{i},%.17g,%.17g,%.17g,%.17g\n" % tuple(rng.uniform(-1, 1, 4))
                       for i in range(600)).encode() + last
        data = self.HEADER + body
        assert len(data) > 4 * 8192
        copy = tmp_path / "t.csv"
        copy.write_bytes(data)
        fifo = str(tmp_path / "p.csv")
        os.mkfifo(fifo)

        def write():
            try:
                with open(fifo, "wb") as fh:
                    for start in range(0, len(data), 3001):
                        fh.write(data[start:start + 3001])
                        fh.flush()
            except BrokenPipeError:  # the reader stopped at an error
                pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        with _fast_reads() as taken:
            outcome = _read_outcome(_column_csv, fifo, self.NAMES)
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert taken == []
        assert outcome == _read_outcome(row_load_scores_csv, str(copy), self.NAMES)
        assert outcome == error if error else len(outcome[0]) == 601

    def test_the_scan_looks_for_what_numpy_strips_and_the_rules_refuse(self):
        spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
        dtype = np.dtype([("x", np.float64)])
        for c in spaces:
            assert np.loadtxt([f'"{c}1{c}"'], dtype=dtype, delimiter=",", quotechar='"', ndmin=1)["x"] == 1.0

        def refused(text):
            try:
                metacal_io._parse_value(text, 1, "x")
            except ParseError:
                return True
            return False

        assert _scanned() == {c for c in spaces if refused(c + "1") and refused("1" + c)}

    @settings(max_examples=300, deadline=None)
    @given(data=st.lists(st.sampled_from([b"a", b",", "\u3001".encode()]), max_size=40).map(b"".join),
           insert=st.sampled_from(["", "\u3000", "\xa0", "\x1d"]), at=st.integers(0, 60),
           chunk=st.integers(1, 9), limit=st.integers(0, 20))
    def test_the_scan_in_chunks(self, data, insert, at, chunk, limit):
        """Whatever the chunk size, the scan refuses a file holding a
        scanned character or a comma-free run longer than the field size
        limit, and takes every other file."""
        data = data[:at] + insert.encode() + data[at:]
        with tempfile.TemporaryDirectory() as work, mock.patch.object(metacal_io, "_SCAN_BYTES", chunk):
            path = os.path.join(work, "t.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            old = csv.field_size_limit(limit)
            try:
                safe = metacal_io._loadtxt_safe(path)
            finally:
                csv.field_size_limit(old)
        longest = max(map(len, data.split(b",")))
        if longest > limit or any(c.encode() in data for c in _scanned()):
            assert not safe
        else:
            assert safe


def _csv_field(text, quote):
    """`text` as a CSV field, in quotes where it needs them or `quote`."""
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


_FIELD_TEXT = st.text(alphabet=st.sampled_from(list(',"\r\n\x00# xé中')), max_size=5)
_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda v: st.sampled_from(["%.17g" % v, repr(v)])),
    st.sampled_from(["+.5", " 1e3 ", "1.", "-0", "\t7\t", "1E-3"]))


@st.composite
def _valid_table(draw, text_columns):
    """Bytes of a valid CSV table: unique ids, `text_columns`, the metrics
    alpha and beta, maybe a human column and repeated ignored columns, in
    a drawn column order; fields quoted at random, CRLF or LF line ends,
    blank rows, maybe a byte-order mark."""
    numbers = ["alpha", "beta"] if not text_columns else []
    header = [*ID_COLUMNS, *text_columns, *numbers, *(["human"] if draw(st.booleans()) else []),
              *["note"] * draw(st.integers(0, 2))]
    header = draw(st.permutations(header))
    ids = draw(st.lists(st.tuples(_FIELD_TEXT, _FIELD_TEXT, _FIELD_TEXT), min_size=1, max_size=8, unique=True))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for row_id in ids:
        values = dict(zip(ID_COLUMNS, row_id))
        fields = [values[c] if c in values else draw(_NUMBER_TEXT if c in (*numbers, "human") else _FIELD_TEXT)
                  for c in header]
        lines.append(",".join(_csv_field(f, draw(st.booleans())) for f in fields))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + end.join(lines) + end).encode("utf-8")


class TestLoadtxtMatchesRowLoaders:
    """On valid tables numpy's reader takes the file, and the loaders return
    what the row-by-row loaders of `tests/oracles.py` return: the same ids,
    texts and bits of every value."""

    @settings(max_examples=200, deadline=None)
    @given(data=_valid_table(()))
    def test_score_table(self, data):
        names = ("alpha", "beta")
        with tempfile.TemporaryDirectory() as work, _fast_reads() as taken:
            path = os.path.join(work, "t.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            matrix, target = load_scores_csv(path, _specs(names))
            ids, rows, z = row_load_scores_csv(path, names)
        assert taken == [True]
        assert list(matrix.example_ids) == ids
        assert matrix.values.tobytes() == np.array(rows, dtype=np.float64).tobytes()
        assert (None if target is None else target.z.tobytes()) == (
            None if z is None else np.array(z, dtype=np.float64).tobytes())

    @settings(max_examples=100, deadline=None)
    @given(data=_valid_table(("hypothesis", "reference")))
    def test_corpus_table(self, data):
        with tempfile.TemporaryDirectory() as work, _fast_reads() as taken:
            path = os.path.join(work, "c.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            ids, pairs, target = load_corpus_csv(path)
            row_ids, row_pairs, z = row_read_table(path, ("hypothesis", "reference"),
                                                   lambda line, fields: SegmentPair(*fields))
        assert taken == [True]
        assert (ids, pairs) == (row_ids, row_pairs)
        assert (None if target is None else target.z.tobytes()) == (
            None if z is None else np.array(z, dtype=np.float64).tobytes())


# Id texts the csv module must quote, and non-ASCII ones.  A bare carriage
# return is left out: written unquoted under a "\n" line end, it reads back
# as a line break.
_ID_TEXT = st.text(alphabet=st.sampled_from(list(',"\n aé中\U0001f600 -')), max_size=6)


class TestScoreFileBytes:
    """The column writers write what the csv module writes row by row with
    `format_float` values, and loading a written file and saving it again
    gives the same bytes."""

    @staticmethod
    def _row_text(rows):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.tuples(_ID_TEXT, _ID_TEXT, _ID_TEXT), min_size=1, max_size=8, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_quoted_ids_round_trip(self, ids, seed):
        rng = np.random.default_rng(seed)
        eids = tuple(ExampleId(*e) for e in ids)
        matrix = ScoreMatrix(("alpha", "beta", "gamma"), eids, rng.normal(0, 1e3, (len(ids), 3)))
        target = PreferenceTarget.from_pointwise(rng.normal(size=len(ids)))
        with tempfile.TemporaryDirectory() as work:
            scores, meta = os.path.join(work, "s.csv"), os.path.join(work, "m.csv")
            save_scores_csv(matrix, scores, target)
            with open(scores, encoding="utf-8", newline="") as fh:
                first = fh.read()
            z = target.z.tolist()
            assert first == self._row_text(
                [["dataset", "system", "segment", "alpha", "beta", "gamma", "human"]]
                + [[*e, *map(format_float, row), format_float(z[i])]
                   for i, (e, row) in enumerate(zip(eids, matrix.values.tolist()))])
            back, back_target = load_scores_csv(scores, _specs())
            assert back.example_ids == eids
            save_scores_csv(back, scores, back_target)
            with open(scores, encoding="utf-8", newline="") as fh:
                assert fh.read() == first

            save_meta_scores(back.example_ids, back.values[:, 1], meta)
            with open(meta, encoding="utf-8", newline="") as fh:
                assert fh.read() == self._row_text(
                    [["dataset", "system", "segment", "meta_score"]]
                    + [[*e, format_float(v)] for e, v in zip(eids, matrix.values[:, 1].tolist())])

    @settings(max_examples=100, deadline=None)
    @given(groups=st.lists(st.tuples(_ID_TEXT, _ID_TEXT), min_size=1, max_size=5),
           names=st.lists(st.text(alphabet=st.sampled_from(list('%s"\\ aé\U0001f600')), min_size=1,
                                  max_size=4), min_size=1, max_size=3, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_jsonl_records(self, groups, names, seed):
        rng = np.random.default_rng(seed)
        n = len(groups)
        target = PreferenceTarget.from_pairs(PreferencePair(g, c) for g, c in groups)
        values = rng.normal(0, 1e3, (2 * n, len(names)))
        matrix = ScoreMatrix(tuple(names), tuple(ExampleId("-", "g", str(i)) for i in range(2 * n)), values)
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "p.jsonl")
            save_scores_jsonl(target, path, matrix)
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            rows = values.tolist()
            assert text == "".join(
                compact_json({"group": g, "category": c, "chosen": dict(zip(names, rows[2 * i])),
                              "rejected": dict(zip(names, rows[2 * i + 1]))}) + "\n"
                for i, (g, c) in enumerate(groups))
            back, back_target = load_scores_jsonl(path, _specs(names))
            assert back_target == target
            np.testing.assert_array_equal(back.values, values)

    def test_carriage_returns_are_quoted_and_read_back(self, tmp_path):
        eids = (ExampleId("d", "r\rs", "1"), ExampleId("d\r", "s", "2\r\n3"), ExampleId("d", "s", "\r"))
        matrix = ScoreMatrix(("a\rb", "beta"), eids, np.array([[0.25, 1.0], [0.5, 2.0], [0.75, 3.0]]))
        target = PreferenceTarget.from_pointwise([1.0, 2.0, 3.0])
        scores, meta = tmp_path / "s.csv", tmp_path / "m.csv"
        save_scores_csv(matrix, str(scores), target)
        specs = (MetricSpec("a\rb", 0.0, 1.0), MetricSpec("beta", 0.0, 5.0))
        back, back_target = load_scores_csv(str(scores), specs)
        assert back.example_ids == eids and back_target == target
        np.testing.assert_array_equal(back.values, matrix.values)
        assert scores.read_bytes().startswith(b'dataset,system,segment,"a\rb",beta,human\nd,"r\rs",1,')

        save_meta_scores(eids, np.array([0.1, 0.2, 0.3]), str(meta))
        with open(meta, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["dataset", "system", "segment", "meta_score"],
                        *([*e, format_float(v)] for e, v in zip(eids, (0.1, 0.2, 0.3)))]
        assert meta.read_bytes().count(b"\n") == 5  # four line ends, one "\n" inside a quoted id

    def test_hundred_thousand_rows_load_and_save_to_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 100_000
        values = np.column_stack([rng.normal(0, 10, (n, 3)), np.round(rng.uniform(1, 5, n), 1)])
        lines = ["dataset,system,segment,alpha,beta,gamma,human\n"]
        lines += [f"ds{i % 4},sys{i % 20},seg{i}," + ",".join(map(format_float, row)) + "\n"
                  for i, row in enumerate(values.tolist())]
        text = "".join(lines)
        path = tmp_path / "big.csv"
        path.write_text(text)
        matrix, target = load_scores_csv(str(path), _specs())
        assert matrix.n_examples == n
        np.testing.assert_array_equal(matrix.values, values[:, :3])
        np.testing.assert_array_equal(target.z, values[:, 3])
        save_scores_csv(matrix, str(path), target)
        assert path.read_text() == text

    def test_non_finite_meta_score_raises_the_formatter_error(self, tmp_path):
        eids = (ExampleId("d", "s", "1"), ExampleId("d", "s", "2"))
        path = tmp_path / "m.csv"
        with pytest.raises(MetacalError, match="cannot serialize non-finite value"):
            save_meta_scores(eids, np.array([0.5, np.inf]), str(path))
        assert not path.exists() and not os.listdir(tmp_path)
        with pytest.raises(MetacalError, match=r"meta-scores of shape \(1,\) for 2 examples"):
            save_meta_scores(eids, np.array([0.5]), str(path))


@pytest.mark.parametrize("field, value", [
    ("name", 7), ("min", "-1"), ("min", False), ("max", True), ("max", 2**53 + 1),
])
def test_spec_fields_need_their_json_type(field, value):
    entry = {"name": "7", "min": -1, "max": 1.5, "higher_is_better": True}
    assert specs_from_obj([entry]) == (MetricSpec("7", -1.0, 1.5),)
    entry[field] = value
    with pytest.raises(MetacalError, match=field):
        specs_from_obj([entry])


class TestModelPersistence:
    def test_linear_round_trip_field_equality(self, tmp_path):
        model = _linear_model()
        path = str(tmp_path / "m.json")
        save_model(model, path)
        assert load_model(path) == model

    def test_multiplicative_round_trip(self, tmp_path):
        model = _linear_model(weights=(0.1, 0.2, 0.3), weighting=Weighting.MULTIPLICATIVE)
        path = str(tmp_path / "m.json")
        save_model(model, path)
        assert load_model(path) == model

    def test_gbt_round_trip_identical_predictions(self, tmp_path):
        rng = np.random.default_rng(3)
        model = _gbt_model(rng)
        path = str(tmp_path / "m.json")
        save_model(model, path)
        back = load_model(path)
        assert back == model
        probes = rng.uniform(0, 1, (100, 3))
        np.testing.assert_array_equal(
            back.trees.predict(probes), model.trees.predict(probes)
        )

    def test_unsupported_version(self, tmp_path):
        obj = model_to_obj(_linear_model())
        obj["version"] = 99
        path = str(tmp_path / "m.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(SchemaVersionUnsupported):
            load_model(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        obj = model_to_obj(_linear_model())
        obj["surprise"] = 1
        path = str(tmp_path / "m.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(MalformedModel, match="unknown"):
            load_model(path)

    def test_missing_key_rejected(self):
        obj = model_to_obj(_linear_model())
        del obj["weights"]
        with pytest.raises(MalformedModel, match="missing"):
            model_from_obj(obj)

    def test_malformed_tree_node(self):
        rng = np.random.default_rng(4)
        obj = model_to_obj(_gbt_model(rng))
        obj["trees"][0] = {"value": 0.1, "bogus": 2}
        with pytest.raises(MalformedModel):
            model_from_obj(obj)

    @staticmethod
    def _first_split(obj):
        node = obj["trees"][0]
        assert "feature" in node
        return node

    def _load_edited(self, tmp_path, edit):
        obj = model_to_obj(_gbt_model(np.random.default_rng(4)))
        edit(obj)
        path = str(tmp_path / "m.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)  # writes NaN as a bare token, which json.load accepts
        return load_model(path)

    def test_negative_feature_index_rejected(self, tmp_path):
        with pytest.raises(MetacalError, match="feature index -1"):
            self._load_edited(tmp_path, lambda obj: self._first_split(obj).update(feature=-1))

    def test_infinite_base_score_rejected(self, tmp_path):
        with pytest.raises(MetacalError, match="base_score"):
            self._load_edited(tmp_path, lambda obj: obj.update(base_score=float("inf")))

    def test_nan_learning_rate_rejected(self, tmp_path):
        with pytest.raises(MetacalError, match="learning_rate"):
            self._load_edited(tmp_path, lambda obj: obj.update(learning_rate=float("nan")))

    def test_nan_threshold_rejected(self, tmp_path):
        with pytest.raises(MetacalError, match="threshold"):
            self._load_edited(
                tmp_path, lambda obj: self._first_split(obj).update(threshold=float("nan"))
            )

    def test_infinite_leaf_value_rejected(self, tmp_path):
        def edit(obj):
            node = obj["trees"][0]
            while "feature" in node:
                node = node["left"]
            node["value"] = float("inf")

        with pytest.raises(MetacalError, match="leaf value"):
            self._load_edited(tmp_path, edit)

    @pytest.mark.parametrize("field", ["seed", "feature"])
    def test_infinite_integer_field_rejected(self, tmp_path, field):
        def edit(obj):
            (obj if field == "seed" else self._first_split(obj))[field] = float("inf")

        with pytest.raises(MalformedModel):
            self._load_edited(tmp_path, edit)

    def test_deeply_nested_tree_file_rejected(self, tmp_path):
        depth = 3000
        split = '{"feature": 0, "threshold": 0.5, "gain": 1.0, "left": '
        deep = split * depth + '{"value": 0.0}' + ', "right": {"value": 0.0}}' * depth
        obj = model_to_obj(_gbt_model(np.random.default_rng(4)))
        obj["trees"] = ["DEEP"]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(obj).replace('"DEEP"', deep))
        with pytest.raises(MalformedModel):
            load_model(str(path))

    def test_deeply_nested_tree_object_rejected(self):
        node = {"value": 0.0}
        for _ in range(5000):
            node = {"feature": 0, "threshold": 0.5, "gain": 1.0, "left": node,
                    "right": {"value": 0.0}}
        obj = model_to_obj(_gbt_model(np.random.default_rng(4)))
        obj["trees"] = [node]
        with pytest.raises(MalformedModel):
            model_from_obj(obj)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


def _accepts_or_metacal_error(obj):
    try:
        model_from_obj(obj)
    except MetacalError:
        pass


class TestModelFromObjFuzz:
    """No JSON value, NaN and the infinities included, makes the loader
    raise anything but MetacalError."""

    @settings(max_examples=150, deadline=None)
    @given(_JSON)
    def test_arbitrary_value(self, value):
        _accepts_or_metacal_error(value)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["linear", "gbt"]), data=st.data())
    def test_one_field_replaced(self, kind, data):
        model = _linear_model() if kind == "linear" else _gbt_model(np.random.default_rng(4))
        obj = model_to_obj(model)
        holders = [obj, obj["metrics"][0]]
        if kind == "gbt":
            node = obj["trees"][0]
            holders.append(node)
            while "feature" in node:
                node = node["left"]
            holders.append(node)
        holder = data.draw(st.sampled_from(holders))
        holder[data.draw(st.sampled_from(sorted(holder)))] = data.draw(_JSON)
        _accepts_or_metacal_error(obj)


# -0.0 is left out: the canonical writer spells it -0, a JSON integer that
# loads as 0, so that file could not come back byte for byte.
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: repr(v) != "-0.0")
)


class TestModelFileRoundTrip:
    """A model file that loads is written back byte for byte, so no field is
    silently coerced (2.7 or true read as an integer, "false" as true)."""

    @staticmethod
    def _round_trip(text: str) -> str | None:
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "m.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                model = load_model(path)
            except MetacalError:
                return None
            save_model(model, path)
            with open(path, encoding="utf-8") as fh:
                return fh.read()

    @pytest.mark.parametrize("kind", ["linear", "gbt"])
    def test_saved_model(self, kind):
        model = _linear_model() if kind == "linear" else _gbt_model(np.random.default_rng(4))
        text = dumps_canonical(model_to_obj(model))
        assert self._round_trip(text) == text

    @settings(max_examples=600, deadline=None)
    @given(field=st.sampled_from([
        "seed", "version", "objective_used", "base_score", "learning_rate",
        "weighting", "weights", "name", "min", "max", "higher_is_better",
        "feature", "threshold", "gain", "value",
    ]), value=_SCALARS)
    def test_typed_field_replaced(self, field, value):
        linear = field in ("weighting", "weights")
        obj = model_to_obj(_linear_model() if linear else _gbt_model(np.random.default_rng(4)))
        holder, key = obj, field
        if field in ("name", "min", "max", "higher_is_better"):
            holder = obj["metrics"][0]
        elif field == "weights":
            holder, key = obj["weights"], 1
        elif field in ("feature", "threshold", "gain", "value"):
            holder = obj["trees"][0]
            while key not in holder:
                holder = holder["left"]
        holder[key] = value
        text = dumps_canonical(obj)
        assert self._round_trip(text) in (None, text)


# Probe rows with repeated values; split thresholds are drawn from them, so
# rows land exactly on x == threshold and must route right.
_PROBES = np.round(np.random.default_rng(9).uniform(0.0, 1.0, (40, 3)), 1)
_NESTED_TREES = st.recursive(
    st.builds(lambda v: {"value": v}, st.floats(-4, 4) | st.just(-0.0)),
    lambda child: st.builds(
        lambda f, row, gain, left, right: {"feature": f, "threshold": float(_PROBES[row, f]),
                                           "gain": gain, "left": left, "right": right},
        st.integers(0, 2), st.integers(0, len(_PROBES) - 1), st.floats(0, 10), child, child),
    max_leaves=24,
)


class TestFlatTreeLayout:
    """Nested model-file trees and the flat pre-order `Tree` arrays agree."""

    @staticmethod
    def _walk(node, row):
        while "feature" in node:
            node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
        return node["value"]

    @staticmethod
    def _add_gains(node, totals):
        if "feature" in node:
            totals[node["feature"]] += node["gain"]
            TestFlatTreeLayout._add_gains(node["left"], totals)
            TestFlatTreeLayout._add_gains(node["right"], totals)

    @settings(max_examples=200, deadline=None)
    @given(trees=st.lists(_NESTED_TREES, min_size=1, max_size=4))
    def test_loaded_tree_predicts_saves_and_sums_like_the_nested_tree(self, trees):
        from metacal.gbt import feature_importance

        obj = model_to_obj(_gbt_model(np.random.default_rng(4)))
        obj["trees"] = trees
        ensemble = model_from_obj(obj).trees
        preds = ensemble.predict(_PROBES)
        for i, row in enumerate(_PROBES):
            expected = ensemble.base_score
            for tree in trees:
                expected += ensemble.learning_rate * self._walk(tree, row)
            assert preds[i] == expected
        assert dumps_canonical(model_to_obj(model_from_obj(obj))) == dumps_canonical(obj)
        totals = [0.0] * 3
        for tree in trees:
            self._add_gains(tree, totals)
        assert feature_importance(ensemble, 3).tolist() == totals


class TestScoreWithModel:
    def test_one_hot_weight_selects_column(self):
        specs = (MetricSpec("a", 0, 1), MetricSpec("b", 0, 1))
        model = CalibratedModel(
            kind=ModelKind.LINEAR, metric_specs=specs, objective_used="kendall",
            seed=0, weighting=Weighting.LINEAR, weights=(1.0, 0.0),
        )
        ids = (ExampleId("d", "s", "1"),)
        matrix = ScoreMatrix(("a", "b"), ids, np.array([[0.3, 0.9]]))
        np.testing.assert_array_equal(score_with_model(model, matrix), [0.3])

    def test_uniform_weights_on_identical_columns(self):
        specs = (MetricSpec("a", 0, 1), MetricSpec("b", 0, 1))
        model = CalibratedModel(
            kind=ModelKind.LINEAR, metric_specs=specs, objective_used="kendall",
            seed=0, weighting=Weighting.LINEAR, weights=(0.5, 0.5),
        )
        ids = tuple(ExampleId("d", "s", str(i)) for i in range(3))
        col = np.array([0.2, 0.5, 0.8])
        matrix = ScoreMatrix(("a", "b"), ids, np.column_stack([col, col]))
        np.testing.assert_allclose(score_with_model(model, matrix), col)

    def test_linear_equals_dot_product(self):
        rng = np.random.default_rng(5)
        model = _linear_model()
        matrix = _random_matrix(rng)
        got = score_with_model(model, matrix)
        normalized = np.clip(matrix.values, 0.0, 100.0) / 100.0
        expected = normalized @ np.asarray(model.weights)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_gbt_matches_independent_tree_walk(self):
        rng = np.random.default_rng(6)
        model = _gbt_model(rng)
        ids = tuple(ExampleId("d", "s", str(i)) for i in range(30))
        values = rng.uniform(0, 1, (30, 3))
        matrix = ScoreMatrix(("alpha", "beta", "gamma"), ids, values)
        got = score_with_model(model, matrix)

        def walk(tree, row):
            node = 0
            while tree.right[node] != 0:
                node = node + 1 if row[tree.feature[node]] < tree.threshold[node] else tree.right[node]
            return tree.value[node]

        for i in range(30):
            expected = model.trees.base_score + model.trees.learning_rate * sum(
                walk(t, values[i]) for t in model.trees.trees
            )
            assert got[i] == pytest.approx(expected, abs=1e-12)

    def test_column_reordering_by_name(self):
        model = _linear_model()
        rng = np.random.default_rng(7)
        matrix = _random_matrix(rng, metrics=("gamma", "alpha", "beta"))
        reordered = matrix.take_columns([1, 2, 0])  # alpha, beta, gamma
        np.testing.assert_array_equal(
            score_with_model(model, matrix), score_with_model(model, reordered)
        )

    def test_missing_column(self):
        model = _linear_model()
        rng = np.random.default_rng(8)
        matrix = _random_matrix(rng, metrics=("alpha", "beta"))
        with pytest.raises(ColumnMismatch):
            score_with_model(model, matrix)


class TestSplit:
    def test_ten_rows_thirty_percent(self):
        train, test = split_train_test(list(range(10)), 0.30, seed=0)
        assert len(train) == 3 and len(test) == 7

    def test_floor_rule_single_row(self):
        train, test = split_train_test([42], 0.30, seed=0)
        assert train == [] and test == [42]

    def test_deterministic_disjoint_exhaustive(self):
        rows = list(range(37))
        a = split_train_test(rows, 0.30, seed=9)
        b = split_train_test(rows, 0.30, seed=9)
        assert a == b
        train, test = a
        assert sorted(train + test) == rows
        assert not set(train) & set(test)

    def test_split_matrix_pairwise_keeps_members_together(self):
        rng = np.random.default_rng(10)
        chosen, rejected = rng.uniform(0, 1, (2, 10, 2))
        target = PreferenceTarget.from_pairs(PreferencePair(f"g{i}") for i in range(10))
        rows = np.empty((20, 2))
        rows[0::2] = chosen
        rows[1::2] = rejected
        ids = tuple(
            ExampleId("-", f"g{i}", f"{i}:{side}")
            for i in range(10)
            for side in ("chosen", "rejected")
        )
        matrix = ScoreMatrix(("a", "b"), ids, rows)
        (train_m, train_t), (test_m, test_t) = split_matrix(matrix, target, 0.30, seed=0)
        assert len(train_t.pairwise) == 3 and len(test_t.pairwise) == 7
        assert train_m.n_examples == 6 and test_m.n_examples == 14
        np.testing.assert_array_equal(
            train_m.values[0::2], [chosen[int(p.group_id[1:])] for p in train_t.pairwise]
        )


    def test_split_matrix_pointwise_keeps_z_with_its_row(self):
        rng = np.random.default_rng(11)
        matrix = _random_matrix(rng, n=17)
        z = rng.normal(size=17)
        target = PreferenceTarget.from_pointwise(z)
        z_of = dict(zip(matrix.example_ids, z.tolist()))
        halves = split_matrix(matrix, target, 0.30, seed=3)
        for sub_m, sub_t in halves:
            assert sub_t.z.tolist() == [z_of[eid] for eid in sub_m.example_ids]
        train_ids, test_ids = (set(m.example_ids) for m, _ in halves)
        assert len(train_ids) == 5 and not train_ids & test_ids
        assert train_ids | test_ids == set(matrix.example_ids)
        for (sub_m, _), (plain_m, plain_t) in zip(halves, split_matrix(matrix, None, 0.30, 3)):
            assert plain_t is None and plain_m.example_ids == sub_m.example_ids
            np.testing.assert_array_equal(plain_m.values, sub_m.values)

    def test_split_matrix_rejects_unaligned_target(self):
        matrix = _random_matrix(np.random.default_rng(12), n=6)
        for target in (
            PreferenceTarget.from_pointwise([0.0] * 5),
            PreferenceTarget.from_pairs(PreferencePair(f"g{i}") for i in range(2)),
        ):
            with pytest.raises(MissingTarget):
                split_matrix(matrix, target)


class TestReportModel:
    def test_dropped_below_epsilon(self):
        model = CalibratedModel(
            kind=ModelKind.LINEAR,
            metric_specs=(MetricSpec("big", 0, 1), MetricSpec("tiny", 0, 1)),
            objective_used="kendall", seed=0,
            weighting=Weighting.LINEAR, weights=(0.7, 0.005),
        )
        text, obj = report_model(model, epsilon=0.01)
        assert obj["dropped"] == ["tiny"]
        assert "tiny" in text and "[dropped]" in text

    def test_gbt_single_used_feature(self):
        x = np.column_stack([np.linspace(0, 1, 30), np.zeros(30)])
        y = x[:, 0]
        cfg = GbtConfig(n_estimators_low=3, n_estimators_high=3, n_estimators_step=1, max_depth=2)
        ensemble = gbt_train(x, y, cfg, 3)
        model = CalibratedModel(
            kind=ModelKind.GBT,
            metric_specs=(MetricSpec("live", 0, 1), MetricSpec("dead", 0, 1)),
            objective_used="kendall", seed=0, trees=ensemble,
        )
        _, obj = report_model(model)
        assert obj["importances"]["dead"] == 0.0
        assert obj["importances"]["live"] > 0.0

    def test_report_json_round_trips(self, tmp_path):
        from metacal.io import write_json

        model = _linear_model()
        _, obj = report_model(model)
        path = str(tmp_path / "report.json")
        write_json(obj, path)
        with open(path) as fh:
            back = json.load(fh)
        assert back["weights"] == {k: v for k, v in obj["weights"].items()}
        assert back["dropped"] == obj["dropped"]
