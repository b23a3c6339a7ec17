"""Unit tests for forest, GBM, and linear regressors."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import LinearRegression
from repro.ml.metrics import r2_score


def nonlinear_data(rng, n=250):
    X = rng.uniform(-2, 2, size=(n, 3))
    Y = np.stack(
        [np.sin(X[:, 0]) * X[:, 1], np.abs(X[:, 2])],
        axis=1,
    ) + 0.01 * rng.standard_normal((n, 2))
    return X, Y


class TestLinearRegression:
    def test_recovers_exact_linear_map(self, rng):
        X = rng.standard_normal((100, 3))
        W = np.array([[1.0, -2.0], [0.5, 0.0], [3.0, 1.0]])
        b = np.array([0.3, -0.7])
        Y = X @ W + b
        m = LinearRegression().fit(X, Y)
        np.testing.assert_allclose(m.coef_, W, atol=1e-8)
        np.testing.assert_allclose(m.intercept_, b, atol=1e-8)
        np.testing.assert_allclose(m.predict(X), Y, atol=1e-8)

    def test_constant_feature_handled(self, rng):
        X = np.hstack([rng.standard_normal((50, 1)), np.ones((50, 1))])
        y = 2 * X[:, 0] + 1
        m = LinearRegression().fit(X, y)
        assert r2_score(y, m.predict(X)[:, 0]) > 0.999

    def test_single_output_1d_target(self, rng):
        X = rng.standard_normal((30, 2))
        m = LinearRegression().fit(X, X[:, 0])
        assert m.predict(X).shape == (30, 1)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ModelError):
            LinearRegression().fit(np.zeros((1, 2)), np.zeros(1))

    def test_predict_before_fit(self):
        with pytest.raises(ModelError):
            LinearRegression().predict(np.zeros((1, 2)))


def reference_linear_fit(X, Y):
    """``LinearRegression.fit`` as ``X.mean``/``X.std``/``hstack``."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    A = np.hstack([(X - mu) / sd, np.ones((X.shape[0], 1))])
    W, *_ = np.linalg.lstsq(A, Y, rcond=None)
    return (W[:-1].T / sd).T, W[-1] - (mu / sd) @ W[:-1]


class TestLinearFitBitIdentity:
    """The fused fit is the textbook formulation to the last bit."""

    @pytest.mark.parametrize("trial", range(40))
    def test_matches_reference_formulation(self, trial):
        rng = np.random.default_rng(trial)
        n, d = int(rng.integers(2, 521)), 14
        X = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, size=d)
        X[:, rng.integers(d)] = rng.standard_normal()  # zero variance
        X[:, rng.integers(d)] = rng.integers(0, 5, size=n)  # integer-valued
        Y = rng.standard_normal((n, 1 + trial % 2)).squeeze()
        coef, intercept = reference_linear_fit(X, Y)
        m = LinearRegression().fit(X, Y)
        assert np.array_equal(m.coef_, coef)
        assert np.array_equal(m.intercept_, intercept)

    def test_all_columns_constant(self):
        X = np.full((6, 3), 2.5)
        y = np.arange(6.0)
        coef, intercept = reference_linear_fit(X, y)
        m = LinearRegression().fit(X, y)
        assert np.array_equal(m.coef_, coef)
        assert np.array_equal(m.intercept_, intercept)

    def test_fit_leaves_inputs_untouched(self, rng):
        X = rng.standard_normal((20, 3))
        X.flags.writeable = False
        y = rng.standard_normal(20)
        LinearRegression().fit(X, y)


class TestRandomForest:
    def test_beats_linear_on_nonlinear_target(self, rng):
        X, Y = nonlinear_data(rng)
        Xtr, Ytr, Xte, Yte = X[:200], Y[:200], X[200:], Y[200:]
        rf = RandomForestRegressor(n_estimators=30, seed=0).fit(Xtr, Ytr)
        lr = LinearRegression().fit(Xtr, Ytr)
        assert r2_score(Yte, rf.predict(Xte)) > r2_score(Yte, lr.predict(Xte))

    def test_deterministic_given_seed(self, rng):
        X, Y = nonlinear_data(rng, n=80)
        a = RandomForestRegressor(n_estimators=5, seed=3).fit(X, Y).predict(X)
        b = RandomForestRegressor(n_estimators=5, seed=3).fit(X, Y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_model(self, rng):
        X, Y = nonlinear_data(rng, n=80)
        a = RandomForestRegressor(n_estimators=5, seed=1).fit(X, Y).predict(X)
        b = RandomForestRegressor(n_estimators=5, seed=2).fit(X, Y).predict(X)
        assert not np.array_equal(a, b)

    def test_n_estimators_validated(self):
        with pytest.raises(ModelError):
            RandomForestRegressor(n_estimators=0)

    def test_predict_before_fit(self):
        with pytest.raises(ModelError):
            RandomForestRegressor().predict(np.zeros((1, 2)))

    def test_multi_output_shape(self, rng):
        X, Y = nonlinear_data(rng, n=60)
        rf = RandomForestRegressor(n_estimators=4, seed=0).fit(X, Y)
        assert rf.predict(X).shape == Y.shape


class TestGradientBoosting:
    def test_improves_with_stages(self, rng):
        X, Y = nonlinear_data(rng)
        few = GradientBoostingRegressor(n_estimators=2, seed=0).fit(X, Y)
        many = GradientBoostingRegressor(n_estimators=80, seed=0).fit(X, Y)
        assert r2_score(Y, many.predict(X)) > r2_score(Y, few.predict(X))

    def test_beats_linear_on_nonlinear_target(self, rng):
        X, Y = nonlinear_data(rng)
        Xtr, Ytr, Xte, Yte = X[:200], Y[:200], X[200:], Y[200:]
        gbm = GradientBoostingRegressor(n_estimators=60, seed=0).fit(Xtr, Ytr)
        lr = LinearRegression().fit(Xtr, Ytr)
        assert r2_score(Yte, gbm.predict(Xte)) > r2_score(Yte, lr.predict(Xte))

    def test_zero_stages_rejected(self):
        with pytest.raises(ModelError):
            GradientBoostingRegressor(n_estimators=0)

    def test_learning_rate_validated(self):
        with pytest.raises(ModelError):
            GradientBoostingRegressor(learning_rate=0.0)

    def test_subsample_validated(self):
        with pytest.raises(ModelError):
            GradientBoostingRegressor(subsample=1.5)

    def test_stochastic_subsample_works(self, rng):
        X, Y = nonlinear_data(rng, n=100)
        m = GradientBoostingRegressor(n_estimators=10, subsample=0.5, seed=0).fit(X, Y)
        assert m.predict(X).shape == Y.shape

    def test_predict_before_fit(self):
        with pytest.raises(ModelError):
            GradientBoostingRegressor().predict(np.zeros((1, 2)))
