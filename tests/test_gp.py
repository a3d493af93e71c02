import math

import numpy as np
import pytest

import metacal.gp as gp_mod
from metacal.core import (
    ExampleId,
    MetacalError,
    PreferencePair,
    PreferenceTarget,
    ScoreMatrix,
    Weighting,
)
from metacal.gp import (
    DimensionMismatch,
    FactorizationFailure,
    GpConfig,
    LengthscalePolicy,
    TooFewMetrics,
    _factorize,
    calibrate_gp,
    expand_features,
    expand_matrix,
    expanded_feature_names,
    gp_fit,
    gp_predict,
    matern52,
    select_top_k,
    suggest_next,
)
from metacal.objectives import ObjectiveKind, kendall_tau

from oracles import gp_dense_oracle, naive_kendall_tau


def _pointwise_data(values, z):
    values = np.asarray(values, dtype=float)
    ids = tuple(ExampleId("d", "s", str(i)) for i in range(values.shape[0]))
    matrix = ScoreMatrix(
        tuple(f"m{j}" for j in range(values.shape[1])), ids, values
    )
    target = PreferenceTarget.from_pointwise(dict(zip(ids, map(float, z))))
    return matrix, target


class TestMatern52:
    def test_identical_points(self):
        assert matern52([0.2, 0.4], [0.2, 0.4], 1.0) == 1.0

    def test_unit_distance_closed_form(self):
        expected = (1 + math.sqrt(5) + 5 / 3) * math.exp(-math.sqrt(5))
        assert matern52([0.0], [1.0], 1.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.52399, abs=5e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(0, 1, 3)
            b = rng.uniform(0, 1, 3)
            l = rng.uniform(0.1, 3.0)
            assert matern52(a, b, l) == matern52(b, a, l)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matern52([0.1], [0.1, 0.2], 1.0)


class TestGpFitPredict:
    def test_single_observation_interpolates(self):
        model = gp_fit([[0.3, 0.7]], [0.42], GpConfig())
        mean, std = gp_predict(model, [0.3, 0.7])
        assert mean == pytest.approx(0.42, abs=1e-12)
        assert std <= math.sqrt(10 * GpConfig().noise_jitter)

    def test_far_point_reverts_to_prior(self):
        model = gp_fit([[0.1], [0.9]], [0.2, 0.6], GpConfig())
        mean, std = gp_predict(model, [500.0])
        assert mean == pytest.approx(0.4, abs=1e-9)  # sample mean of targets
        prior_std = float(np.std([0.2, 0.6]))
        assert std == pytest.approx(prior_std, abs=1e-9)

    def test_mean_near_training_targets(self):
        rng = np.random.default_rng(2)
        W = rng.uniform(0, 1, (5, 2))
        rho = rng.normal(0, 1, 5)
        model = gp_fit(W, rho, GpConfig())
        for i in range(5):
            mean, std = gp_predict(model, W[i])
            assert mean == pytest.approx(rho[i], abs=5e-3)
            assert std >= 0.0

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(3)
        cfg = GpConfig()
        for _ in range(40):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            W = rng.uniform(0, 1, (n, d))
            rho = rng.normal(0, 1, n)
            model = gp_fit(W, rho, cfg)
            for _ in range(4):
                query = rng.uniform(0, 1, d)
                got = gp_predict(model, query)
                want = gp_dense_oracle(W, rho, model.lengthscale, model.jitter, query)
                assert got[0] == pytest.approx(want[0], abs=1e-8)
                assert got[1] == pytest.approx(want[1], abs=1e-8)

    def test_posterior_variance_bounded_by_prior(self):
        rng = np.random.default_rng(4)
        W = rng.uniform(0, 1, (6, 3))
        rho = rng.normal(0, 1, 6)
        model = gp_fit(W, rho, GpConfig())
        prior_std = model.target_scale
        for _ in range(50):
            _, std = gp_predict(model, rng.uniform(-2, 3, 3))
            assert std <= prior_std + 1e-9

    def test_kernel_matrix_symmetric_and_factorizable(self):
        rng = np.random.default_rng(5)
        W = rng.uniform(0, 1, (12, 2))
        K = gp_mod._kernel_matrix(W, W, 1.0)
        np.testing.assert_allclose(K, K.T, atol=1e-15)
        _factorize(K, 1e-6)  # must not raise

    def test_factorization_failure_on_indefinite_matrix(self):
        not_psd = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(FactorizationFailure):
            _factorize(not_psd, 1e-6)

    def test_jitter_escalates_when_needed(self):
        # mildly indefinite: needs more than the starting 1e-6
        nearly = np.array([[1.0, 1.0 + 1e-4], [1.0 + 1e-4, 1.0]])
        _, jitter = _factorize(nearly, 1e-6)
        assert jitter > 1e-6

    def test_dimension_mismatch_on_predict(self):
        model = gp_fit([[0.1, 0.2]], [0.5], GpConfig())
        with pytest.raises(DimensionMismatch):
            gp_predict(model, [0.1])

    def test_mml_policy_picks_reasonable_lengthscale(self):
        rng = np.random.default_rng(6)
        W = rng.uniform(0, 1, (12, 1))
        rho = np.sin(3 * W[:, 0])
        cfg = GpConfig(lengthscale_policy=LengthscalePolicy.MAXIMIZE_MARGINAL_LIKELIHOOD)
        model = gp_fit(W, rho, cfg)
        assert 1e-2 <= model.lengthscale <= 1e2
        # the fitted lengthscale should beat a wildly wrong one on LML
        std = (rho - rho.mean()) / rho.std()
        fitted = gp_mod._log_marginal_likelihood(W, std, model.lengthscale, cfg.noise_jitter)
        wrong = gp_mod._log_marginal_likelihood(W, std, 100.0, cfg.noise_jitter)
        assert fitted >= wrong


class TestSuggestNext:
    def _model(self, seed=0, n=4, d=2):
        rng = np.random.default_rng(seed)
        return gp_fit(rng.uniform(0, 1, (n, d)), rng.normal(0, 1, n), GpConfig())

    def test_within_bounds(self):
        cfg = GpConfig()
        model = self._model()
        for seed in range(5):
            w = suggest_next(model, cfg, np.random.default_rng(seed))
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_deterministic_given_seed(self):
        cfg = GpConfig()
        model = self._model()
        a = suggest_next(model, cfg, np.random.default_rng(7))
        b = suggest_next(model, cfg, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_kappa_zero_is_pure_exploitation(self):
        cfg = GpConfig(kappa=0.0)
        model = gp_fit([[0.5, 0.5]], [2.0], cfg)
        rng = np.random.default_rng(8)
        w = suggest_next(model, cfg, rng)
        mean_at_w, _ = gp_predict(model, w)
        probe_rng = np.random.default_rng(9)
        for _ in range(200):
            mean, _ = gp_predict(model, probe_rng.uniform(0, 1, 2))
            assert mean_at_w >= mean - 1e-12


class TestExpandFeatures:
    def test_two_metrics_multiplicative(self):
        np.testing.assert_allclose(
            expand_features([0.5, 0.4], Weighting.MULTIPLICATIVE), [0.2]
        )

    def test_combinatorial_count(self):
        assert expand_features([1, 2, 3], Weighting.MULTIPLICATIVE).size == 3
        assert expand_features([1, 2, 3, 4], Weighting.COMBINED).size == 10

    def test_values_match_bruteforce_products(self):
        rng = np.random.default_rng(10)
        for n in range(2, 9):
            y = rng.uniform(0, 1, n)
            expected = [y[i] * y[j] for i in range(n) for j in range(i + 1, n)]
            np.testing.assert_array_equal(
                expand_features(y, Weighting.MULTIPLICATIVE), expected
            )
            np.testing.assert_array_equal(
                expand_features(y, Weighting.COMBINED), np.concatenate([y, expected])
            )

    def test_too_few_metrics(self):
        with pytest.raises(TooFewMetrics):
            expand_features([0.5], Weighting.MULTIPLICATIVE)

    def test_feature_names_align(self):
        names = expanded_feature_names(("a", "b", "c"), Weighting.COMBINED)
        assert names == ("a", "b", "c", "a*b", "a*c", "b*c")


class TestCalibrateGp:
    def test_single_metric_keeps_its_kendall(self):
        rng = np.random.default_rng(20)
        y = rng.uniform(0, 1, (50, 1))
        z = y[:, 0] + rng.normal(0, 0.2, 50)
        matrix, target = _pointwise_data(y, z)
        cfg = GpConfig(init_points=2, n_iter=5, seed=0)
        model = calibrate_gp(matrix, target, ObjectiveKind.KENDALL, cfg)
        meta = y @ np.asarray(model.weights)
        assert kendall_tau(meta, z) == pytest.approx(kendall_tau(y[:, 0], z), abs=1e-12)

    def test_objective_evaluation_budget(self, monkeypatch):
        calls = {"n": 0}
        original = gp_mod.score_or_worst

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(gp_mod, "score_or_worst", counting)
        rng = np.random.default_rng(21)
        y = rng.uniform(0, 1, (40, 2))
        z = 0.6 * y[:, 0] + 0.4 * y[:, 1]
        matrix, target = _pointwise_data(y, z)
        calibrate_gp(matrix, target, ObjectiveKind.KENDALL, GpConfig(seed=1))
        # injected starts (3 here) fit inside init_points=5, so the default
        # budget is exactly 5 + 100
        assert calls["n"] == 105

    def test_injected_baselines_never_beat_result(self):
        rng = np.random.default_rng(22)
        y = rng.uniform(0, 1, (60, 3))
        z = 0.2 * y[:, 0] + 0.8 * y[:, 2] + rng.normal(0, 0.05, 60)
        matrix, target = _pointwise_data(y, z)
        cfg = GpConfig(init_points=5, n_iter=10, seed=3)
        model = calibrate_gp(matrix, target, ObjectiveKind.KENDALL, cfg)
        w = np.asarray(model.weights)
        best = kendall_tau(y @ w, z)
        for baseline in [np.ones(3), *np.eye(3)]:
            assert best >= kendall_tau(y @ baseline, z) - 1e-12

    def test_scale_invariance_of_rank_objective(self):
        rng = np.random.default_rng(23)
        y = rng.uniform(0, 1, (40, 2))
        z = y.sum(axis=1)
        w = rng.uniform(0.1, 1, 2)
        assert kendall_tau(y @ w, z) == kendall_tau(y @ (3.7 * w), z)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(24)
        y = rng.uniform(0, 1, (30, 2))
        z = y[:, 0] + rng.normal(0, 0.1, 30)
        matrix, target = _pointwise_data(y, z)
        cfg = GpConfig(init_points=3, n_iter=8, seed=11)
        a = calibrate_gp(matrix, target, ObjectiveKind.KENDALL, cfg)
        b = calibrate_gp(matrix, target, ObjectiveKind.KENDALL, cfg)
        assert a == b

    def test_pairwise_target_uses_accuracy(self):
        rng = np.random.default_rng(25)
        n_pairs = 40
        chosen = rng.uniform(0.4, 1.0, (n_pairs, 2))
        rejected = chosen - rng.uniform(0.05, 0.3, (n_pairs, 2))
        rows = np.empty((2 * n_pairs, 2))
        rows[0::2] = chosen
        rows[1::2] = rejected
        ids = tuple(
            ExampleId("-", f"g{i}", f"{i}:{side}")
            for i in range(n_pairs)
            for side in ("chosen", "rejected")
        )
        matrix = ScoreMatrix(("m0", "m1"), ids, np.clip(rows, 0, 1))
        pairs = [
            PreferencePair(f"g{i}")
            for i in range(n_pairs)
        ]
        target = PreferenceTarget.from_pairs(pairs)
        cfg = GpConfig(init_points=3, n_iter=5, seed=4)
        model = calibrate_gp(matrix, target, ObjectiveKind.KENDALL, cfg)
        assert model.objective_used == "pairwise"
        w = np.asarray(model.weights)
        acc = np.mean(matrix.values[0::2] @ w > matrix.values[1::2] @ w)
        assert acc == 1.0  # separable by construction

    def test_multiplicative_weight_length(self):
        rng = np.random.default_rng(26)
        y = rng.uniform(0, 1, (30, 4))
        z = y[:, 0] * y[:, 1] + rng.normal(0, 0.05, 30)
        matrix, target = _pointwise_data(y, z)
        cfg = GpConfig(init_points=2, n_iter=3, seed=5, weighting=Weighting.MULTIPLICATIVE)
        model = calibrate_gp(matrix, target, ObjectiveKind.KENDALL, cfg)
        assert len(model.weights) == 6


class TestSelectTopK:
    def _dataset(self):
        rng = np.random.default_rng(30)
        n = 120
        z = rng.normal(0, 1, n)
        cols = [
            z + rng.normal(0, 2.0, n),   # weak
            z + rng.normal(0, 0.15, n),  # strong
            z + rng.normal(0, 0.8, n),   # middling
        ]
        y = np.column_stack(cols)
        return _pointwise_data(y, z)

    def test_k_equals_n_returns_all(self):
        matrix, target = self._dataset()
        assert select_top_k(matrix, target, ObjectiveKind.KENDALL, 3) == (0, 1, 2)

    def test_k_one_returns_best(self):
        matrix, target = self._dataset()
        z = [target.pointwise[eid] for eid in matrix.example_ids]
        taus = [naive_kendall_tau(matrix.values[:, j], z) for j in range(3)]
        assert select_top_k(matrix, target, ObjectiveKind.KENDALL, 1) == (int(np.argmax(taus)),)

    def test_top_two_match_oracle_ranking(self):
        matrix, target = self._dataset()
        z = [target.pointwise[eid] for eid in matrix.example_ids]
        taus = [naive_kendall_tau(matrix.values[:, j], z) for j in range(3)]
        expected = tuple(sorted(np.argsort(taus)[::-1][:2].tolist()))
        assert select_top_k(matrix, target, ObjectiveKind.KENDALL, 2) == expected

    def test_k_out_of_range(self):
        matrix, target = self._dataset()
        with pytest.raises(MetacalError):
            select_top_k(matrix, target, ObjectiveKind.KENDALL, 0)
