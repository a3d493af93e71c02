import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metacal.core import (
    CalibratedModel,
    ExampleId,
    MetacalError,
    MetricSpec,
    ModelKind,
    PreferencePair,
    PreferenceTarget,
    ScoreMatrix,
    Weighting,
)
from metacal.gbt import GbtConfig, Leaf, Split, gbt_train
from metacal.io import (
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
    save_model,
    save_scores_csv,
    save_scores_jsonl,
    score_with_model,
    split_matrix,
    split_train_test,
)


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
            {eid: float(rng.normal()) for eid in matrix.example_ids}
        )
        path = str(tmp_path / "scores.csv")
        save_scores_csv(matrix, path, target)
        back_m, back_t = load_scores_csv(path, _specs())
        assert back_m.metric_names == matrix.metric_names
        assert back_m.example_ids == matrix.example_ids
        np.testing.assert_array_equal(back_m.values, matrix.values)
        assert back_t.pointwise == target.pointwise

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

    def test_extra_columns_ignored(self, tmp_path):
        path = str(tmp_path / "wide.csv")
        with open(path, "w") as fh:
            fh.write("dataset,system,segment,zeta,alpha,beta,gamma\n")
            fh.write("d,s,1,9.0,0.5,0.6,0.7\n")
        matrix, target = load_scores_csv(path, _specs())
        np.testing.assert_array_equal(matrix.values, [[0.5, 0.6, 0.7]])
        assert target is None


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
        assert target.pointwise == {ExampleId("d", "s", "1"): 0.9}


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

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(["seed", "version", "feature", "higher_is_better"]),
           value=_SCALARS)
    def test_typed_field_replaced(self, field, value):
        obj = model_to_obj(_gbt_model(np.random.default_rng(4)))
        holder = {"feature": obj["trees"][0], "higher_is_better": obj["metrics"][0]}.get(field, obj)
        holder[field] = value
        text = dumps_canonical(obj)
        assert self._round_trip(text) in (None, text)


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

        def walk(node, row):
            while isinstance(node, Split):
                node = node.left if row[node.feature] < node.threshold else node.right
            return node.value

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
