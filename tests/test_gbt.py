import numpy as np
import pytest

import metacal.gbt as gbt_mod
from metacal.core import MetricSpec, ModelKind
from metacal.gbt import (
    GbtConfig,
    GbtLoss,
    InvalidTarget,
    Leaf,
    RankingPairs,
    Split,
    TooFewExamples,
    TreeEnsemble,
    calibrate_gbt,
    cross_validate,
    feature_importance,
    gbt_train,
    iterative_prune,
    search_n_estimators,
)
from metacal.io import dumps_canonical, model_to_obj
from metacal.objectives import EmptyInput, ObjectiveKind, pairwise_accuracy
from oracles import per_feature_best_split, retrain_cv_curve


def _single_round(**overrides):
    base = dict(
        n_estimators_low=1, n_estimators_high=1, n_estimators_step=1,
        max_depth=3, learning_rate=0.1, reg_lambda=1.0, gamma=0.0,
    )
    base.update(overrides)
    return GbtConfig(**base)


def _walk(node, path=()):
    yield node, path
    if isinstance(node, Split):
        yield from _walk(node.left, path + ("L",))
        yield from _walk(node.right, path + ("R",))


class TestGbtTrain:
    def test_analytic_depth_one_split(self):
        cfg = _single_round(max_depth=1, learning_rate=1.0, reg_lambda=0.0)
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = gbt_train(x, y, cfg, 1)
        tree = model.trees[0]
        assert isinstance(tree, Split)
        assert tree.left.value == -0.5
        assert tree.right.value == 0.5
        np.testing.assert_array_equal(model.predict(x), y)

    def test_constant_targets(self):
        cfg = _single_round(max_depth=2, learning_rate=1.0, reg_lambda=0.0)
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.full(4, 0.3)
        model = gbt_train(x, y, cfg, 3)
        np.testing.assert_array_equal(model.predict(x), y)
        for tree in model.trees:
            assert isinstance(tree, Leaf)
        assert model.trees[1].value == 0.0
        assert model.trees[2].value == 0.0

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
        pairs = RankingPairs.stacked(n_pairs, [f"g{i}" for i in range(n_pairs)])
        cfg = _single_round(loss=GbtLoss.PAIRWISE_RANK, max_depth=2, learning_rate=0.3)
        model = gbt_train(features, pairs, cfg, 50)
        preds = model.predict(features)
        acc = pairwise_accuracy(preds[pairs.chosen], preds[pairs.rejected])
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
            gbt_train(np.zeros((4, 1)), RankingPairs.stacked(2, ["a", "b"]), cfg2, 1)

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
                if isinstance(node, Leaf):
                    return
                left = idx[x[idx, node.feature] < node.threshold]
                right = idx[x[idx, node.feature] >= node.threshold]
                gl, hl = grad[left].sum(), hess[left].sum()
                gr, hr = grad[right].sum(), hess[right].sum()
                expected = 0.5 * (
                    gl * gl / (hl + lam)
                    + gr * gr / (hr + lam)
                    - (gl + gr) ** 2 / (hl + hr + lam)
                ) - gamma
                assert node.gain == pytest.approx(expected, abs=1e-9)
                check(node.left, left)
                check(node.right, right)

            check(tree, np.arange(60))
            preds = preds + model.learning_rate * gbt_mod._predict_tree(tree, x)


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

        def walk(node):
            if isinstance(node, Split):
                totals[node.feature] += node.gain
                walk(node.left)
                walk(node.right)

        for tree in model.trees:
            walk(tree)
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

    def test_two_folds_means_two_trainings(self, monkeypatch):
        calls = {"n": 0}
        original = gbt_mod.gbt_train

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(gbt_mod, "gbt_train", counting)
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 2.0, 3.0])
        cross_validate(x, y, ObjectiveKind.PEARSON, _single_round(cv_folds=2, seed=1), 2)
        assert calls["n"] == 2

    def test_too_few_examples(self):
        x = np.zeros((3, 1))
        with pytest.raises(TooFewExamples):
            cross_validate(x, np.zeros(3), ObjectiveKind.KENDALL, _single_round(cv_folds=5), 1)

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

    def test_pair_subset_keeps_member_rows(self):
        # Members shared between pairs and rows of no kept pair, in any order.
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 2))
        pairs = RankingPairs(rng.integers(0, 30, 25), rng.integers(0, 30, 25),
                             tuple(f"g{i}" for i in range(25)))
        keep = np.sort(rng.permutation(25)[:12])
        sub_x, sub = gbt_mod._subset_pairs(x, pairs, keep)
        members = np.unique(np.concatenate([pairs.chosen[keep], pairs.rejected[keep]]))
        np.testing.assert_array_equal(sub_x, x[members])
        np.testing.assert_array_equal(sub_x[sub.chosen], x[pairs.chosen[keep]])
        np.testing.assert_array_equal(sub_x[sub.rejected], x[pairs.rejected[keep]])
        assert sub.groups == tuple(pairs.groups[i] for i in keep)


class TestSearchNEstimators:
    def test_one_boosting_run_per_fold(self, monkeypatch):
        # The whole size grid is read off one n_estimators_high-tree run per fold.
        sizes = []
        original = gbt_mod.gbt_train

        def counting(features, target, config, n_estimators, *args, **kwargs):
            sizes.append(n_estimators)
            return original(features, target, config, n_estimators, *args, **kwargs)

        monkeypatch.setattr(gbt_mod, "gbt_train", counting)
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, (30, 2))
        y = x[:, 0]
        cfg = GbtConfig(
            n_estimators_low=1, n_estimators_high=10, n_estimators_step=1,
            max_depth=2, cv_folds=2, seed=0,
        )
        search_n_estimators(x, y, ObjectiveKind.PEARSON, cfg)
        assert sizes == [10, 10]

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
        assert search_n_estimators(x, y, ObjectiveKind.KENDALL, cfg) == 2


class TestIterativePrune:
    def _specs(self, names):
        return tuple(MetricSpec(n, 0, 1) for n in names)

    def test_single_iteration_keeps_full_set(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, (60, 3))
        y = x[:, 0] + rng.normal(0, 0.1, 60)
        cfg = _single_round(n_estimators_low=10, n_estimators_high=10, max_depth=2, cv_folds=3, seed=0)
        model, trace = iterative_prune(
            x, y, ObjectiveKind.KENDALL, cfg, 1, self._specs(("a", "b", "c"))
        )
        assert trace.best_features == ("a", "b", "c")
        assert len(trace.performances) == 1
        assert model.metric_names == ("a", "b", "c")

    def test_trace_lengths_consistent(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, (60, 3))
        y = x[:, 1] + rng.normal(0, 0.1, 60)
        cfg = _single_round(n_estimators_low=10, n_estimators_high=10, max_depth=2, cv_folds=3, seed=0)
        _, trace = iterative_prune(
            x, y, ObjectiveKind.KENDALL, cfg, 3, self._specs(("a", "b", "c"))
        )
        assert len(trace.performances) == len(trace.pruned_features) == 3

    def test_best_iteration_is_argmax(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, (80, 4))
        y = x[:, 0] + 0.7 * x[:, 1] + rng.normal(0, 0.1, 80)
        cfg = _single_round(n_estimators_low=15, n_estimators_high=15, max_depth=2, cv_folds=3, seed=0)
        _, trace = iterative_prune(
            x, y, ObjectiveKind.KENDALL, cfg, 4, self._specs(("a", "b", "c", "d"))
        )
        best = trace.performances[trace.best_iteration]
        assert best == max(trace.performances)
        assert best >= trace.performances[0]

    def test_final_model_cv_equals_trace_max_exactly(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(0, 1, (90, 3))
        y = 1.2 * x[:, 0] + 0.6 * x[:, 1] + rng.normal(0, 0.1, 90)
        cfg = _single_round(n_estimators_low=10, n_estimators_high=20, n_estimators_step=10,
                            max_depth=2, cv_folds=3, seed=7)
        model, trace = iterative_prune(
            x, y, ObjectiveKind.KENDALL, cfg, 3, self._specs(("a", "b", "c"))
        )
        retained = [i for i, n in enumerate(("a", "b", "c")) if n in model.metric_names]
        best_n = gbt_mod._search_n_estimators_scored(
            x[:, retained], y, ObjectiveKind.KENDALL, cfg
        )
        assert best_n[1] == max(trace.performances)

    def test_noise_feature_pruned_first_mostly(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 1, (150, 3))
            y = 1.5 * x[:, 0] + 0.8 * x[:, 1] + rng.normal(0, 0.1, 150)
            cfg = _single_round(n_estimators_low=20, n_estimators_high=20,
                                max_depth=3, cv_folds=3, seed=seed)
            _, trace = iterative_prune(
                x, y, ObjectiveKind.KENDALL, cfg, 3, self._specs(("a", "b", "noise"))
            )
            hits += trace.pruned_features[0] == "noise"
        assert hits >= 9

    def test_tied_rounds_keep_the_earliest(self):
        # constant target: every round's CV is -1, so round 0 (all features) wins
        rng = np.random.default_rng(16)
        x = rng.uniform(0, 1, (30, 3))
        cfg = _single_round(n_estimators_low=2, n_estimators_high=2, max_depth=2, cv_folds=3)
        model, trace = iterative_prune(
            x, np.full(30, 0.5), ObjectiveKind.KENDALL, cfg, 3, self._specs(("a", "b", "c"))
        )
        assert trace.performances == (-1.0, -1.0, -1.0)
        assert trace.best_iteration == 0
        assert model.metric_names == ("a", "b", "c")

    def test_final_retrain_excludes_early_pruned_features(self):
        # tree never references indices outside the retained set
        rng = np.random.default_rng(15)
        x = rng.uniform(0, 1, (70, 3))
        y = x[:, 2] + rng.normal(0, 0.05, 70)
        cfg = _single_round(n_estimators_low=10, n_estimators_high=10, max_depth=2, cv_folds=3, seed=3)
        model, _ = iterative_prune(
            x, y, ObjectiveKind.KENDALL, cfg, 3, self._specs(("a", "b", "c"))
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


def _tied_problem(loss, seed, n=36):
    """Integer-valued features (many ties) and a target for the given loss:
    group-folded ranking pairs for the pairwise loss, tied values otherwise."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, (n, 3)).astype(float)
    if loss is GbtLoss.PAIRWISE_RANK:
        n_pairs = n // 2
        return x, RankingPairs.stacked(n_pairs, [f"g{i // 2}" for i in range(n_pairs)])
    if loss is GbtLoss.SQUARED_LOG_ERROR:
        return x, rng.integers(0, 6, n) / 2.0
    return x, x[:, 0] + rng.integers(0, 3, n)


class TestOracleParity:
    """The staged CV curve and the all-features split search give exactly
    the bits of the retrain-per-size and per-feature references."""

    @pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
    def test_split_search_matches_per_feature_scan(self, reg_lambda):
        rng = np.random.default_rng(20)
        for _ in range(150):
            n = int(rng.integers(2, 30))
            x = rng.integers(0, 3, (n, int(rng.integers(1, 5)))).astype(float)
            grad = rng.integers(-3, 4, n) / 2.0
            hess = rng.integers(0, 4, n) / 2.0  # zero hessians mask boundaries at lambda 0
            idx = rng.permutation(n)[: int(rng.integers(2, n + 1))]
            got = gbt_mod._best_split(x, grad, hess, idx, reg_lambda, 0.0)
            want = per_feature_best_split(x, grad, hess, idx, reg_lambda, 0.0)
            if want is None:
                assert got is None
                continue
            assert got[:3] == want[:3]
            np.testing.assert_array_equal(got[3], want[3])
            np.testing.assert_array_equal(got[4], want[4])

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

        with monkeypatch.context() as patch:
            patch.setattr(gbt_mod, "_best_split", per_feature_best_split)
            want_curve = retrain_cv_curve(x, target, ObjectiveKind.KENDALL, cfg, grid)
            want_model = run()
        assert gbt_mod._cv_curve(x, target, ObjectiveKind.KENDALL, cfg, grid) == want_curve
        assert run() == want_model

    @pytest.mark.parametrize("loss", [GbtLoss.SQUARED_ERROR, GbtLoss.PAIRWISE_RANK])
    def test_prune_returns_full_data_model_of_best_round(self, loss):
        x, target = _tied_problem(loss, 3, n=48)
        cfg = GbtConfig(
            n_estimators_low=2, n_estimators_high=8, n_estimators_step=3, loss=loss,
            max_depth=2, cv_folds=3, seed=5,
        )
        specs = tuple(MetricSpec(name, 0, 3) for name in ("a", "b", "c"))
        model, trace = iterative_prune(x, target, ObjectiveKind.KENDALL, cfg, 3, specs)
        retained = [i for i, s in enumerate(specs) if s.name in trace.best_features]
        best_n = search_n_estimators(x[:, retained], target, ObjectiveKind.KENDALL, cfg)
        expected = gbt_train(x[:, retained], target, cfg, best_n)
        assert model.trees == expected
