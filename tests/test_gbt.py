import itertools

import numpy as np
import pytest

import metacal.gbt as gbt_mod
from metacal.core import (
    MetacalError,
    MetricSpec,
    ModelKind,
    PreferencePair,
    PreferenceTarget,
    unstack_pairs,
)
from metacal.gbt import (
    GbtConfig,
    GbtLoss,
    InvalidTarget,
    TooFewExamples,
    Tree,
    TreeEnsemble,
    calibrate_gbt,
    cross_validate,
    feature_importance,
    gbt_train,
    search_n_estimators,
)
from metacal.io import dumps_canonical, model_to_obj
from metacal.objectives import EmptyInput, NonFiniteInput, ObjectiveKind, pairwise_accuracy
from oracles import per_node_train, per_node_tree, retrain_cv_curve


def _pairs(groups):
    """A pairwise target, one pair per group id, over stacked member rows."""
    return PreferenceTarget.from_pairs(PreferencePair(g) for g in groups)


def _single_round(**overrides):
    base = dict(
        n_estimators_low=1, n_estimators_high=1, n_estimators_step=1,
        max_depth=3, learning_rate=0.1, reg_lambda=1.0, gamma=0.0,
    )
    base.update(overrides)
    return GbtConfig(**base)


class TestGbtTrain:
    def test_analytic_depth_one_split(self):
        cfg = _single_round(max_depth=1, learning_rate=1.0, reg_lambda=0.0)
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = gbt_train(x, y, cfg, 1)
        tree = model.trees[0]
        assert tree.right[0] != 0  # the root is a split
        assert tree.value[1] == -0.5
        assert tree.value[tree.right[0]] == 0.5
        np.testing.assert_array_equal(model.predict(x), y)

    def test_constant_targets(self):
        cfg = _single_round(max_depth=2, learning_rate=1.0, reg_lambda=0.0)
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.full(4, 0.3)
        model = gbt_train(x, y, cfg, 3)
        np.testing.assert_array_equal(model.predict(x), y)
        for tree in model.trees:
            assert tree.right.tolist() == [0]  # a single leaf
        assert model.trees[1].value[0] == 0.0
        assert model.trees[2].value[0] == 0.0

    def test_squared_loss_non_increasing(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (50, 3))
        y = rng.normal(0, 1, 50)
        cfg = _single_round(learning_rate=0.3, reg_lambda=0.0)
        model = gbt_train(x, y, cfg, 60)
        preds = np.full(50, model.base_score)
        previous = np.mean((preds - y) ** 2)
        for tree in model.trees:
            preds = preds + model.learning_rate * gbt_mod._predict_tree(tree, x)
            current = np.mean((preds - y) ** 2)
            assert current <= previous
            previous = current

    def test_pairwise_rank_separable_pairs(self):
        rng = np.random.default_rng(1)
        n_pairs = 30
        chosen = rng.uniform(0.5, 1.0, (n_pairs, 2))
        rejected = rng.uniform(0.0, 0.45, (n_pairs, 2))
        features = np.vstack([np.ravel(np.column_stack([chosen[:, j], rejected[:, j]])) for j in range(2)]).T
        pairs = _pairs(f"g{i}" for i in range(n_pairs))
        cfg = _single_round(loss=GbtLoss.PAIRWISE_RANK, max_depth=2, learning_rate=0.3)
        model = gbt_train(features, pairs, cfg, 50)
        acc = pairwise_accuracy(*unstack_pairs(model.predict(features)))
        assert acc == 1.0

    def test_squared_log_error_domain(self):
        cfg = _single_round(loss=GbtLoss.SQUARED_LOG_ERROR)
        x = np.array([[0.0], [1.0]])
        with pytest.raises(InvalidTarget):
            gbt_train(x, np.array([-1.5, 0.5]), cfg, 1)
        gbt_train(x, np.array([-0.5, 0.5]), cfg, 3)  # valid domain trains fine

    def test_pairwise_loss_requires_pairs(self):
        cfg = _single_round(loss=GbtLoss.PAIRWISE_RANK)
        with pytest.raises(InvalidTarget):
            gbt_train(np.zeros((4, 1)), np.zeros(4), cfg, 1)
        cfg2 = _single_round()
        with pytest.raises(InvalidTarget):
            gbt_train(np.zeros((4, 1)), _pairs(["a", "b"]), cfg2, 1)

    def test_target_rows_must_match_feature_rows(self):
        with pytest.raises(InvalidTarget):
            gbt_train(np.zeros((4, 1)), np.zeros(3), _single_round(), 1)
        with pytest.raises(InvalidTarget):
            gbt_train(np.zeros((5, 1)), _pairs(["a", "b"]),
                      _single_round(loss=GbtLoss.PAIRWISE_RANK), 1)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            gbt_train(np.zeros((0, 2)), np.zeros(0), _single_round(), 1)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (40, 3))
        x[:, 1] = np.round(x[:, 1], 1)  # ties inside feature values
        y = x[:, 0] + rng.normal(0, 0.1, 40)
        cfg = _single_round(max_depth=3)
        model_a = gbt_train(x, y, cfg, 10)
        perm = rng.permutation(40)
        model_b = gbt_train(x[perm], y[perm], cfg, 10)
        probe = rng.uniform(0, 1, (25, 3))
        np.testing.assert_array_equal(model_a.predict(probe), model_b.predict(probe))

    def test_gain_matches_independent_checker(self):
        # Re-derive every recorded split gain from raw gradient/hessian sums.
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (60, 3))
        y = rng.normal(0, 1, 60)
        lam, gamma = 1.0, 0.0
        cfg = _single_round(max_depth=3, learning_rate=0.2, reg_lambda=lam, gamma=gamma)
        model = gbt_train(x, y, cfg, 8)
        preds = np.full(60, model.base_score)
        for tree in model.trees:
            grad = preds - y  # squared error
            hess = np.ones_like(grad)

            def check(node, idx):
                if tree.right[node] == 0:
                    return
                left = idx[x[idx, tree.feature[node]] < tree.threshold[node]]
                right = idx[x[idx, tree.feature[node]] >= tree.threshold[node]]
                gl, hl = grad[left].sum(), hess[left].sum()
                gr, hr = grad[right].sum(), hess[right].sum()
                expected = 0.5 * (
                    gl * gl / (hl + lam)
                    + gr * gr / (hr + lam)
                    - (gl + gr) ** 2 / (hl + hr + lam)
                ) - gamma
                assert tree.gain[node] == pytest.approx(expected, abs=1e-9)
                check(node + 1, left)
                check(tree.right[node], right)

            check(0, np.arange(60))
            preds = preds + model.learning_rate * gbt_mod._predict_tree(tree, x)


class TestTreeLayout:
    # split(x0 < 0.5) -> [split(x0 < 0.25) -> leaf 1 | leaf 2] | leaf 3, in pre-order
    ARRAYS = dict(feature=[0, 0, 0, 0, 0], threshold=[0.5, 0.25, 0, 0, 0],
                  gain=[2.0, 1.0, 0, 0, 0], value=[0, 0, 1.0, 2.0, 3.0], right=[4, 3, 0, 0, 0])

    def _ensemble(self, **changes):
        return TreeEnsemble((Tree(**{**self.ARRAYS, **changes}),), base_score=0.0, learning_rate=1.0)

    def test_routes_by_preorder_arrays(self):
        x = np.array([[0.1], [0.25], [0.4], [0.5], [0.9]])
        np.testing.assert_array_equal(self._ensemble().predict(x), [1.0, 2.0, 2.0, 3.0, 3.0])

    @pytest.mark.parametrize("right", [
        [1, 3, 0, 0, 0],  # the root's right child is its left child
        [-1, 3, 0, 0, 0],
        [5, 3, 0, 0, 0],  # one past the end
        [4, 1, 0, 0, 0],  # node 1 points back at itself
        [4, 2, 0, 0, 0],
        [4, 9, 0, 0, 0],
    ])
    def test_validate_rejects_right_child_backwards_or_past_the_end(self, right):
        self._ensemble().validate(1)
        with pytest.raises(MetacalError, match="right child"):
            self._ensemble(right=right).validate(1)

    @pytest.mark.parametrize("feature", [-1, 1])
    def test_validate_rejects_split_feature_outside_the_columns(self, feature):
        with pytest.raises(MetacalError, match=f"feature index {feature} "):
            self._ensemble(feature=[0, feature, 0, 0, 0]).validate(1)
        self._ensemble(feature=[0, 0, feature, 0, 0]).validate(1)  # a leaf's feature is unused

    def test_arrays_are_read_only_copies(self):
        value = np.array(self.ARRAYS["value"])
        tree = Tree(**{**self.ARRAYS, "value": value})
        value[2] = 9.0
        assert tree.value[2] == 1.0
        with pytest.raises(ValueError):
            tree.value[2] = 9.0

    @pytest.mark.parametrize("changes", [
        {"gain": [2.0, 1.0, 0, 0]},
        {"right": [[4, 3, 0, 0, 0]]},
        {name: [] for name in ARRAYS},
    ])
    def test_arrays_must_be_flat_non_empty_and_aligned(self, changes):
        with pytest.raises(MetacalError, match="tree node arrays"):
            Tree(**{**self.ARRAYS, **changes})

    def test_equality_is_by_value(self):
        assert self._ensemble() == self._ensemble()
        assert self._ensemble() != self._ensemble(value=[0, 0, 1.0, 2.0, 3.5])


class TestFeatureImportance:
    def test_single_feature_takes_all(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (30, 1))
        y = x[:, 0]
        model = gbt_train(x, y, _single_round(), 5)
        imp = feature_importance(model, 1)
        assert imp.shape == (1,)
        assert imp[0] > 0

    def test_unused_feature_scores_zero(self):
        x = np.column_stack([np.linspace(0, 1, 30), np.zeros(30)])
        y = x[:, 0]
        model = gbt_train(x, y, _single_round(), 5)
        live, dead = feature_importance(model, 2)
        assert dead == 0.0
        assert live > 0.0

    def test_informative_feature_dominates(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, (120, 2))
        y = 2.0 * x[:, 0] + rng.normal(0, 0.05, 120)
        model = gbt_train(x, y, _single_round(max_depth=3), 20)
        a, b = feature_importance(model, 2)
        assert a > b

    def test_importances_non_negative_and_not_all_zero(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, (50, 3))
        y = x.sum(axis=1)
        model = gbt_train(x, y, _single_round(), 5)
        imp = feature_importance(model, 3)
        assert all(v >= 0 for v in imp)
        assert any(v > 0 for v in imp)

    def test_sums_gains_in_recursive_preorder(self):
        # The summation order fixes the last bits, which report artifacts
        # record: node, then its left subtree, then its right subtree.
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, (200, 3))
        y = np.sin(6 * x[:, 0]) + x[:, 1] * x[:, 2] + rng.normal(0, 0.1, 200)
        model = gbt_train(x, y, _single_round(max_depth=5), 60)
        totals = [0.0] * 3

        def walk(tree, node):
            if tree.right[node] != 0:
                totals[tree.feature[node]] += tree.gain[node]
                walk(tree, node + 1)
                walk(tree, tree.right[node])

        for tree in model.trees:
            walk(tree, 0)
        assert feature_importance(model, 3).tolist() == totals


class TestCrossValidate:
    def test_learnable_target_scores_high(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (150, 2))
        y = x[:, 0] + 0.5 * x[:, 1] + rng.normal(0, 0.02, 150)
        cfg = _single_round(max_depth=3, seed=0)
        value = cross_validate(x, y, ObjectiveKind.KENDALL, cfg, 40)
        assert value >= 0.9

    def test_independent_target_scores_near_zero(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, (500, 2))
        y = rng.normal(0, 1, 500)
        cfg = _single_round(max_depth=2, seed=0)
        value = cross_validate(x, y, ObjectiveKind.KENDALL, cfg, 10)
        assert abs(value) <= 0.2

    def test_two_folds_grow_in_one_lockstep_run(self, monkeypatch):
        # One tree-building call per boosting round grows both folds' trees,
        # and CV trains no separate model per fold.
        grown, trained = [], []
        monkeypatch.setattr(gbt_mod, "gbt_train", lambda *a: trained.append(a))
        original = gbt_mod._grow

        def counting(x, ranks, grad, hess, sizes, *args):
            grown.append(list(sizes))
            return original(x, ranks, grad, hess, sizes, *args)

        monkeypatch.setattr(gbt_mod, "_grow", counting)
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 2.0, 3.0])
        cross_validate(x, y, ObjectiveKind.PEARSON, _single_round(cv_folds=2, seed=1), 2)
        assert grown == [[2, 2], [2, 2]] and trained == []

    def test_too_few_examples(self):
        x = np.zeros((3, 1))
        with pytest.raises(TooFewExamples):
            cross_validate(x, np.zeros(3), ObjectiveKind.KENDALL, _single_round(cv_folds=5), 1)

    def test_a_pointwise_fold_must_hold_out_two_judgments(self, monkeypatch):
        # 6 judgments in 4 folds hold out 2, 2, 1 and 1: refused before any
        # tree grows.  A fold of one pair is a pairwise fold's smallest.
        with monkeypatch.context() as patch:
            patch.setattr(gbt_mod, "_grow", lambda *args: pytest.fail("a tree was grown"))
            with pytest.raises(TooFewExamples, match=r"^4 folds over 6 pointwise judgments hold out "
                                                     r"only 1 in a fold; a held-out correlation needs 2$"):
                cross_validate(np.arange(6.0)[:, None], np.arange(6.0), ObjectiveKind.KENDALL,
                               _single_round(cv_folds=4), 1)
        x = np.arange(8.0)[:, None]
        cfg = _single_round(cv_folds=4, loss=GbtLoss.PAIRWISE_RANK)
        assert 0.0 <= cross_validate(x, _pairs("abcd"), ObjectiveKind.KENDALL, cfg, 1) <= 1.0

    def test_pairwise_folds_respect_groups(self):
        # two pairs per group; folds must never split a group
        rng = np.random.default_rng(9)
        groups = [f"g{i // 2}" for i in range(12)]
        folds = gbt_mod._group_folds(groups, 3, rng)
        for fold in folds:
            fold_groups = {groups[i] for i in fold}
            for i, g in enumerate(groups):
                if g in fold_groups:
                    assert i in fold

    def test_pairwise_too_few_groups(self):
        with pytest.raises(TooFewExamples):
            gbt_mod._group_folds(["a", "a", "b"], 3, np.random.default_rng(0))

    def test_distinct_groups_fold_like_a_shuffle_of_the_units(self):
        # A pointwise unit is its own group: each fold is the sorted chunk of
        # one permutation of the units.
        for seed in range(3):
            for n in range(2, 60):
                for k in range(2, min(n, 7) + 1):
                    got = gbt_mod._group_folds(range(n), k, np.random.default_rng(seed))
                    want = np.array_split(np.random.default_rng(seed).permutation(n), k)
                    assert len(got) == k
                    for fold, chunk in zip(got, want):
                        np.testing.assert_array_equal(fold, np.sort(chunk))


class TestSearchNEstimators:
    def test_one_lockstep_run_searches_each_level_once(self, monkeypatch):
        # The whole size grid is read off one n_estimators_high-round run of
        # all folds, and each round searches at most max_depth levels, each
        # level of every fold in one call.
        grown, searched = [], []
        original_grow, original_search = gbt_mod._grow, gbt_mod._search

        def grow(x, ranks, grad, hess, sizes, *args):
            grown.append(len(sizes))
            return original_grow(x, ranks, grad, hess, sizes, *args)

        def search(*args):
            searched.append(len(grown))
            return original_search(*args)

        monkeypatch.setattr(gbt_mod, "_grow", grow)
        monkeypatch.setattr(gbt_mod, "_search", search)
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, (30, 2))
        y = x[:, 0]
        cfg = GbtConfig(
            n_estimators_low=1, n_estimators_high=10, n_estimators_step=1,
            max_depth=2, cv_folds=3, seed=0,
        )
        search_n_estimators(x, y, ObjectiveKind.PEARSON, cfg)
        assert grown == [3] * 10
        assert all(1 <= searched.count(r) <= cfg.max_depth for r in range(1, 11))

    def test_default_grid_size(self):
        assert len(GbtConfig().n_estimators_grid()) == 10

    def test_tie_returns_smallest(self):
        # constant target: every fold degenerates to -1, so all grid values tie
        x = np.linspace(0, 1, 20).reshape(-1, 1)
        y = np.full(20, 2.0)
        cfg = GbtConfig(
            n_estimators_low=2, n_estimators_high=6, n_estimators_step=2,
            max_depth=2, cv_folds=2, seed=0,
        )
        assert search_n_estimators(x, y, ObjectiveKind.KENDALL, cfg) == (2, -1.0)


class TestIterativePrune:
    def _specs(self, names):
        return tuple(MetricSpec(n, 0, 1) for n in names)

    def test_single_iteration_keeps_full_set(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, (60, 3))
        y = x[:, 0] + rng.normal(0, 0.1, 60)
        cfg = _single_round(n_estimators_low=10, n_estimators_high=10, max_depth=2, cv_folds=3, seed=0)
        model, trace = calibrate_gbt(
            x, y, ObjectiveKind.KENDALL, cfg, self._specs(("a", "b", "c")), prune_iterations=1
        )
        assert len(trace.performances) == 1
        assert model.metric_names == ("a", "b", "c")

    def test_trace_lengths_consistent(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, (60, 3))
        y = x[:, 1] + rng.normal(0, 0.1, 60)
        cfg = _single_round(n_estimators_low=10, n_estimators_high=10, max_depth=2, cv_folds=3, seed=0)
        _, trace = calibrate_gbt(
            x, y, ObjectiveKind.KENDALL, cfg, self._specs(("a", "b", "c")), prune_iterations=3
        )
        assert len(trace.performances) == len(trace.pruned_features) == 3

    def test_best_iteration_is_argmax(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, (80, 4))
        y = x[:, 0] + 0.7 * x[:, 1] + rng.normal(0, 0.1, 80)
        cfg = _single_round(n_estimators_low=15, n_estimators_high=15, max_depth=2, cv_folds=3, seed=0)
        model, trace = calibrate_gbt(
            x, y, ObjectiveKind.KENDALL, cfg, self._specs(("a", "b", "c", "d")), prune_iterations=4
        )
        best = trace.performances[trace.best_iteration]
        assert best == max(trace.performances)
        assert best >= trace.performances[0]
        dropped = trace.pruned_features[:trace.best_iteration]
        assert model.metric_names == tuple(n for n in ("a", "b", "c", "d") if n not in dropped)

    def test_final_model_cv_equals_trace_max_exactly(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(0, 1, (90, 3))
        y = 1.2 * x[:, 0] + 0.6 * x[:, 1] + rng.normal(0, 0.1, 90)
        cfg = _single_round(n_estimators_low=10, n_estimators_high=20, n_estimators_step=10,
                            max_depth=2, cv_folds=3, seed=7)
        model, trace = calibrate_gbt(
            x, y, ObjectiveKind.KENDALL, cfg, self._specs(("a", "b", "c")), prune_iterations=3
        )
        retained = [i for i, n in enumerate(("a", "b", "c")) if n in model.metric_names]
        _, best_cv = search_n_estimators(x[:, retained], y, ObjectiveKind.KENDALL, cfg)
        assert best_cv == max(trace.performances)

    def test_noise_feature_pruned_first_mostly(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 1, (150, 3))
            y = 1.5 * x[:, 0] + 0.8 * x[:, 1] + rng.normal(0, 0.1, 150)
            cfg = _single_round(n_estimators_low=20, n_estimators_high=20,
                                max_depth=3, cv_folds=3, seed=seed)
            _, trace = calibrate_gbt(
                x, y, ObjectiveKind.KENDALL, cfg, self._specs(("a", "b", "noise")), prune_iterations=3
            )
            hits += trace.pruned_features[0] == "noise"
        assert hits >= 9

    def test_tied_rounds_keep_the_earliest(self):
        # constant target: every round's CV is -1, so round 0 (all features) wins
        rng = np.random.default_rng(16)
        x = rng.uniform(0, 1, (30, 3))
        cfg = _single_round(n_estimators_low=2, n_estimators_high=2, max_depth=2, cv_folds=3)
        model, trace = calibrate_gbt(x, np.full(30, 0.5), ObjectiveKind.KENDALL, cfg,
                                     self._specs(("a", "b", "c")), prune_iterations=3)
        assert trace.performances == (-1.0, -1.0, -1.0)
        assert trace.best_iteration == 0
        assert model.metric_names == ("a", "b", "c")

    def test_final_retrain_excludes_early_pruned_features(self):
        # tree never references indices outside the retained set
        rng = np.random.default_rng(15)
        x = rng.uniform(0, 1, (70, 3))
        y = x[:, 2] + rng.normal(0, 0.05, 70)
        cfg = _single_round(n_estimators_low=10, n_estimators_high=10, max_depth=2, cv_folds=3, seed=3)
        model, _ = calibrate_gbt(
            x, y, ObjectiveKind.KENDALL, cfg, self._specs(("a", "b", "c")), prune_iterations=3
        )
        model.trees.validate(len(model.metric_specs))  # raises on an index out of range


class TestCalibrateGbt:
    def test_returns_gbt_model(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(0, 1, (50, 2))
        y = x[:, 0]
        cfg = _single_round(n_estimators_low=5, n_estimators_high=10, n_estimators_step=5,
                            max_depth=2, cv_folds=2, seed=0)
        model, trace = calibrate_gbt(
            x, y, ObjectiveKind.PEARSON, cfg,
            (MetricSpec("a", 0, 1), MetricSpec("b", 0, 1)),
        )
        assert model.kind is ModelKind.GBT
        assert trace is None
        assert model.trees is not None

    @pytest.mark.parametrize("rounds", [0, 3])
    def test_out_of_range_prune_iterations_is_refused_by_name(self, rounds):
        specs = (MetricSpec("a", 0, 1), MetricSpec("b", 0, 1))
        with pytest.raises(MetacalError, match=rf"^prune_iterations must be in \[1, 2\], got {rounds}$"):
            calibrate_gbt(np.eye(4)[:, :2], np.arange(4.0), ObjectiveKind.KENDALL, _single_round(cv_folds=2),
                          specs, prune_iterations=rounds)


def _tied_problem(loss, seed, n=36):
    """Integer-valued features (many ties) and a target for the given loss:
    pairs two to a group for the pairwise loss, tied z values otherwise."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, (n, 3)).astype(float)
    if loss is GbtLoss.PAIRWISE_RANK:
        return x, _pairs(f"g{i // 2}" for i in range(n // 2))
    if loss is GbtLoss.SQUARED_LOG_ERROR:
        return x, PreferenceTarget.from_pointwise(rng.integers(0, 6, n) / 2.0)
    return x, PreferenceTarget.from_pointwise(x[:, 0] + rng.integers(0, 3, n))


def _same_tree(got, want):
    return all(getattr(got, f).tobytes() == getattr(want, f).tobytes()
               for f in ("feature", "threshold", "gain", "value", "right"))


def _assert_members_match_oracle(x, grad, hess, sizes, reg_lambda, gamma, max_depth):
    """One `_grow` over consecutive members gives each member the tree and
    leaf outputs that `per_node_tree` grows on the member's rows alone."""
    levels, out = gbt_mod._grow(x, gbt_mod._dense_ranks(x), grad, hess, sizes, reg_lambda, gamma, max_depth)
    trees = [gbt_mod._tree(levels, m) for m in range(levels[0].split.size)]
    assert len(trees) == len(sizes)
    end = 0
    for tree, n in zip(trees, sizes):
        rows = slice(end, end + n)
        end += n
        want_tree, want_out = per_node_tree(x[rows], grad[rows], hess[rows], reg_lambda, gamma, max_depth)
        assert _same_tree(tree, want_tree)
        assert out[rows].tobytes() == want_out.tobytes()


def _key_stress_features(rng, n):
    """Columns that stress the rank keys: coarse-grid ties, a constant,
    signed zeros beside their subnormal neighbours, and continuous values."""
    return np.column_stack([
        rng.integers(0, 3, n) / 2.0,
        np.full(n, 0.25),
        rng.choice(np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0]), n),
        rng.normal(size=n),
    ])


class TestOracleParity:
    """The level-wise builder, its lockstep members and the staged CV curve
    give exactly the bits of the node-by-node, per-feature, retrain-per-size
    references."""

    @pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
    def test_root_split_matches_per_feature_scan(self, reg_lambda):
        # Each member's root holds a random subset of the rows in a random
        # order; zero hessians mask boundaries at lambda 0.
        rng = np.random.default_rng(20)
        for trial in range(100):
            f = int(rng.integers(1, 5))
            parts = []
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(2, 30))
                x = (_key_stress_features(rng, n)[:, rng.permutation(4)[:f]] if trial % 2
                     else rng.integers(0, 3, (n, f)).astype(float))
                idx = rng.permutation(n)[: int(rng.integers(2, n + 1))]
                parts.append((x[idx], rng.integers(-3, 4, n)[idx] / 2.0, rng.integers(0, 4, n)[idx] / 2.0))
            x, grad, hess = (np.concatenate(p) for p in zip(*parts))
            sizes = [len(p[0]) for p in parts]
            _assert_members_match_oracle(x, grad, hess, sizes, reg_lambda, 0.0, 1)

    def test_dense_ranks(self):
        x = np.column_stack([[0.0, -0.0, 1.0, -0.0, 0.0] * 60, np.arange(300.0)])
        ranks = gbt_mod._dense_ranks(x)
        assert ranks.dtype == np.uint16 and ranks.flags.c_contiguous
        assert ranks[0, :5].tolist() == [0, 0, 1, 0, 0]  # signed zeros share a key
        assert gbt_mod._dense_ranks(x[:256]).dtype == np.uint8
        assert gbt_mod._dense_ranks(np.zeros((0, 2))).shape == (2, 0)

    def test_node_totals_are_numpy_sums(self):
        # Every length from 1 to 300 (numpy's pairwise sum changes its order
        # at 8 and 128), rows in a shuffled layout, signed zeros and values
        # of mixed magnitude that make the order visible in the last bits.
        rng = np.random.default_rng(25)
        sizes = rng.permutation(np.repeat(np.arange(1, 301), 3))
        n = int(sizes.sum())
        gh = rng.normal(size=(2, n + 1)) * 10.0 ** rng.integers(-6, 7, (2, n + 1))
        gh[rng.random(gh.shape) < 0.2] = -0.0
        gh[:, -1] = 0.0
        rows = rng.permutation(n)
        starts = np.cumsum(sizes) - sizes
        for trial in range(2):
            if trial:
                gh[:, rows[: n // 3]] = -0.0  # nodes of negative zeros only, and partly
            # `_search` takes the totals of the nodes it searches, padded in blocks.
            ranks = np.zeros((1, n + 1), dtype=np.uint8)
            searched = np.zeros((2, sizes.size))
            for block in np.array_split(np.arange(sizes.size), 9):
                padded = gbt_mod._padded(np.append(rows, n), starts[block], sizes[block])
                searched[:, block] = gbt_mod._search(
                    np.zeros((n + 1, 1)), ranks, gh, padded, sizes[block], 1.0, 0.0, False)[0]
            for totals in (gbt_mod._node_totals(np.take(gh, rows, axis=1), starts, sizes), searched):
                for j, (start, size) in enumerate(zip(starts, sizes)):
                    for k in range(2):
                        want = gh[k, rows[start:start + size]].sum()
                        assert totals[k, j].hex() == want.hex(), (k, size)

    def test_blocks_take_every_node_once_longest_first(self):
        rng = np.random.default_rng(29)
        for per_batch in (1, 7, 1000):
            sizes = np.concatenate([rng.integers(2, 40, 300), rng.integers(2, 5000, 30)])
            nodes = rng.permutation(sizes.size)[:200]
            blocks = gbt_mod._blocks(nodes, sizes[nodes], 5, per_batch)
            assert sorted(np.concatenate(blocks).tolist()) == sorted(nodes.tolist())
            lengths = sizes[np.concatenate(blocks)]
            assert (np.diff(lengths) <= 0).all()
            for block in blocks:
                assert 1 <= block.size <= per_batch
                assert block.size == 1 or block.size * 5 * sizes[block].max() <= gbt_mod._BLOCK_CELLS

    def test_padded_running_sums_keep_their_bits(self):
        # The builder lays nodes into rows padded at the end and takes running
        # sums along them: each node's sums are those of the node alone.
        rng = np.random.default_rng(26)
        sizes = rng.integers(1, 70, 40)
        width = int(sizes.max())
        values = rng.normal(size=(40, width)) * 10.0 ** rng.integers(-6, 7, (40, width))
        values[rng.random(values.shape) < 0.2] = -0.0
        padded = np.cumsum(values, axis=-1)
        for row, n, sums in zip(values, sizes, padded):
            assert [v.hex() for v in sums[:n]] == [v.hex() for v in np.cumsum(row[:n].copy())]

    def test_builder_matches_oracle_on_key_stress_columns(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            sizes = rng.integers(1, 80, int(rng.integers(1, 5))).tolist()
            n = sum(sizes)
            x = _key_stress_features(rng, n)
            grad = rng.normal(size=n)
            hess = rng.integers(0, 3, n) / 2.0
            _assert_members_match_oracle(x, grad, hess, sizes, 0.5, 0.0, int(rng.integers(1, 5)))

    def test_zero_hessians_and_all_minus_inf_gains(self):
        # At lambda 0 a side without hessian is no split, so every gain is
        # -inf; a node without hessian is a 0.0 leaf.
        rng = np.random.default_rng(27)
        x = rng.integers(0, 4, (40, 3)).astype(float)
        grad = rng.normal(size=40)
        hess = np.zeros(40)
        _assert_members_match_oracle(x, grad, hess, [12, 28], 0.0, 0.0, 3)
        levels, out = gbt_mod._grow(x, gbt_mod._dense_ranks(x), grad, hess, [12, 28], 0.0, 0.0, 3)
        assert len(levels) == 1 and not levels[0].split.any()
        assert out.tobytes() == np.zeros(40).tobytes()
        hess[::2] = 1.0  # half the boundaries stay open
        _assert_members_match_oracle(x, grad, hess, [12, 28], 0.0, 0.0, 3)

    @pytest.mark.parametrize("members", [25, 26])
    def test_levels_either_side_of_the_16_bit_key_limit(self, members):
        # Distinct values give as many ranks as rows: 25 roots of 100 rows
        # share one argsort of keys below 2**16, 26 roots need two.
        rng = np.random.default_rng(members)
        n = 100 * members
        x = rng.permutation(n).reshape(-1, 1) / 7.0
        x = np.column_stack([x, rng.integers(0, 3, n)])
        assert (members * n <= 1 << 16) == (members == 25)
        grad = rng.normal(size=n)
        _assert_members_match_oracle(x, grad, np.ones(n), [100] * members, 1.0, 0.0, 2)

    def test_wide_keys_match_oracle(self):
        # More than 65,535 distinct values need uint32 keys, which numpy
        # sorts by timsort instead of radix sort.
        rng = np.random.default_rng(24)
        n = 70_000
        x = np.column_stack([rng.normal(size=n), _key_stress_features(rng, n)[:, :3]])
        ranks = gbt_mod._dense_ranks(x)
        assert ranks.dtype == np.uint32 and ranks.flags.c_contiguous and ranks.shape == (4, n)
        grad = rng.integers(-3, 4, n) / 2.0
        hess = rng.integers(1, 4, n) / 2.0
        idx = rng.permutation(n)[: n - 7]
        _assert_members_match_oracle(x[idx], grad[idx], hess[idx], [n - 7], 1.0, 0.0, 2)

    def test_builder_outputs_match_a_walk_of_the_tree(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            x = rng.integers(0, 4, (n, int(rng.integers(1, 4)))) / 3.0
            grad = rng.normal(size=n)
            hess = rng.integers(0, 3, n) / 2.0
            levels, out = gbt_mod._grow(
                x, gbt_mod._dense_ranks(x), grad, hess, [n], 1.0, 0.0, int(rng.integers(1, 5)))
            assert out.tobytes() == gbt_mod._predict_tree(gbt_mod._tree(levels, 0), x).tobytes()

    @pytest.mark.parametrize("loss", list(GbtLoss))
    def test_lockstep_members_match_separate_runs(self, loss):
        # Members of unequal size boosted in lockstep: each member's trees are
        # those of a run on its rows alone.
        rng = np.random.default_rng(28)
        sizes = [12, 30, 18, 6]
        x, target = _tied_problem(loss, 4, n=sum(sizes))
        cfg = GbtConfig(loss=loss, max_depth=3, learning_rate=0.3, reg_lambda=float(rng.integers(0, 2)))
        rounds = gbt_mod._rounds(x, gbt_mod._dense_ranks(x), target.z, cfg, sizes)
        got = [[gbt_mod._tree(levels, m) for m in range(len(sizes))]
               for levels in itertools.islice(rounds, 6)]
        end = 0
        for m, n in enumerate(sizes):
            rows = slice(end, end + n)
            end += n
            units = np.arange(rows.start // target.rows_per_unit, rows.stop // target.rows_per_unit)
            want = per_node_train(x[rows], target.take_units(units), cfg, 6)
            assert all(_same_tree(trees[m], tree) for trees, tree in zip(got, want.trees))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
    @pytest.mark.parametrize("loss", list(GbtLoss))
    def test_curve_and_model_match_references(self, monkeypatch, loss, reg_lambda, seed):
        x, target = _tied_problem(loss, seed)
        cfg = GbtConfig(
            n_estimators_low=2, n_estimators_high=12, n_estimators_step=2, loss=loss,
            max_depth=3, learning_rate=0.3, reg_lambda=reg_lambda, cv_folds=3, seed=seed,
        )
        specs = tuple(MetricSpec(name, 0, 3) for name in ("a", "b", "c"))
        grid = cfg.n_estimators_grid()

        def run():
            model, _ = calibrate_gbt(x, target, ObjectiveKind.KENDALL, cfg, specs)
            return dumps_canonical(model_to_obj(model))

        want_curve = retrain_cv_curve(x, target, ObjectiveKind.KENDALL, cfg, grid)
        with monkeypatch.context() as patch:
            patch.setattr(gbt_mod, "gbt_train", per_node_train)
            patch.setattr(gbt_mod, "_cv_curve",
                          lambda *args: retrain_cv_curve(*args, args[-1].n_estimators_grid()))
            want_model = run()
        assert gbt_mod._cv_curve(x, target, ObjectiveKind.KENDALL, cfg) == want_curve
        assert run() == want_model
        # The public entry points read the same curve: one size at a time,
        # and its first maximum.
        assert [cross_validate(x, target, ObjectiveKind.KENDALL, cfg, n) for n in grid] == want_curve
        best = int(np.argmax(want_curve))
        assert search_n_estimators(x, target, ObjectiveKind.KENDALL, cfg) == (grid[best], want_curve[best])

    @pytest.mark.parametrize("loss", [GbtLoss.SQUARED_ERROR, GbtLoss.PAIRWISE_RANK])
    def test_prune_returns_full_data_model_of_best_round(self, loss):
        x, target = _tied_problem(loss, 3, n=48)
        cfg = GbtConfig(
            n_estimators_low=2, n_estimators_high=8, n_estimators_step=3, loss=loss,
            max_depth=2, cv_folds=3, seed=5,
        )
        specs = tuple(MetricSpec(name, 0, 3) for name in ("a", "b", "c"))
        model, _ = calibrate_gbt(x, target, ObjectiveKind.KENDALL, cfg, specs, prune_iterations=3)
        retained = [i for i, s in enumerate(specs) if s.name in model.metric_names]
        best_n, _ = search_n_estimators(x[:, retained], target, ObjectiveKind.KENDALL, cfg)
        expected = gbt_train(x[:, retained], target, cfg, best_n)
        assert model.trees == expected


_ENTRY_POINTS = {
    "gbt_train": lambda x, y, cfg: gbt_train(x, y, cfg, 1),
    "cross_validate": lambda x, y, cfg: cross_validate(x, y, ObjectiveKind.KENDALL, cfg, 1),
    "search_n_estimators": lambda x, y, cfg: search_n_estimators(x, y, ObjectiveKind.KENDALL, cfg),
    "calibrate_gbt": lambda x, y, cfg: calibrate_gbt(
        x, y, ObjectiveKind.KENDALL, cfg, (MetricSpec("a", 0, 1), MetricSpec("b", 0, 1))),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_feature_is_refused(entry, bad):
    x = np.arange(20.0).reshape(10, 2)
    x[4, 1] = bad
    with pytest.raises(NonFiniteInput):
        _ENTRY_POINTS[entry](x, np.arange(10.0), _single_round(cv_folds=2))


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_target_is_refused(entry, bad):
    y = np.arange(10.0)
    y[7] = bad
    with pytest.raises(NonFiniteInput):
        _ENTRY_POINTS[entry](np.arange(20.0).reshape(10, 2), y, _single_round(cv_folds=2))
