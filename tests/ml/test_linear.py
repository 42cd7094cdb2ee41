"""Unit tests for linear models."""

import numpy as np
import pytest

from repro.ml.base import is_classifier
from repro.ml.linear import LinearRegression, LogisticRegression, RidgeRegression
from repro.ml.metrics import accuracy_score, roc_auc_score


def make_binary(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    logits = 2 * X[:, 0] - 1.5 * X[:, 1]
    y = (logits + rng.normal(0, 0.5, size=n) > 0).astype(float)
    return X, y


class TestLogisticRegression:
    def test_is_classifier(self):
        assert is_classifier(LogisticRegression())

    def test_learns_separable_data(self):
        X, y = make_binary()
        model = LogisticRegression().fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.85

    def test_auc_on_heldout(self):
        X, y = make_binary(seed=1)
        model = LogisticRegression().fit(X[:300], y[:300])
        proba = model.predict_proba(X[300:])[:, 1]
        assert roc_auc_score(y[300:], proba) > 0.9

    def test_proba_rows_sum_to_one(self):
        X, y = make_binary()
        proba = LogisticRegression().fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_multiclass(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 2))
        y = np.argmax(np.column_stack([X[:, 0], X[:, 1], -X[:, 0] - X[:, 1]]), axis=1).astype(float)
        model = LogisticRegression().fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.8
        assert model.predict_proba(X).shape == (300, 3)

    def test_feature_importances_prefer_informative(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(500, 2))
        y = (X[:, 0] > 0).astype(float)
        model = LogisticRegression().fit(X, y)
        assert model.feature_importances_[0] > model.feature_importances_[1]

    def test_clone_is_unfitted(self):
        model = LogisticRegression(n_iter=42)
        X, y = make_binary(n=50)
        model.fit(X, y)
        fresh = model.clone()
        assert fresh.n_iter == 42
        assert not hasattr(fresh, "coef_")

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((5, 2)), np.zeros(4))

    def test_nan_in_x_raises(self):
        X, y = make_binary(n=50)
        X[7, 1] = np.nan
        with pytest.raises(ValueError, match="contains NaN"):
            LogisticRegression().fit(X, y)

    def test_nan_label_raises(self):
        X, y = make_binary(n=50)
        y[3] = np.nan
        with pytest.raises(ValueError, match="contains NaN"):
            LogisticRegression().fit(X, y)


class TestLinearRegression:
    def test_recovers_exact_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2))
        y = 3 * X[:, 0] - 2 * X[:, 1] + 5
        model = LinearRegression().fit(X, y)
        assert model.coef_[0] == pytest.approx(3, abs=1e-8)
        assert model.coef_[1] == pytest.approx(-2, abs=1e-8)
        assert model.coef_[2] == pytest.approx(5, abs=1e-8)

    def test_prediction_matches_targets_noise_free(self):
        X = np.asarray([[1.0], [2.0], [3.0]])
        y = np.asarray([2.0, 4.0, 6.0])
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.predict(X), y)

    def test_not_classifier(self):
        assert not is_classifier(LinearRegression())


class TestRidgeRegression:
    def test_shrinks_towards_zero_with_large_alpha(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 1))
        y = 10 * X[:, 0]
        small = RidgeRegression(alpha=1e-6).fit(X, y).coef_[0]
        large = RidgeRegression(alpha=1e3).fit(X, y).coef_[0]
        assert abs(large) < abs(small)

    def test_intercept_not_penalised(self):
        X = np.zeros((20, 1))
        y = np.full(20, 7.0)
        model = RidgeRegression(alpha=100.0).fit(X, y)
        assert model.predict(np.zeros((1, 1)))[0] == pytest.approx(7.0)

    def test_predict_shape(self):
        X = np.random.default_rng(0).normal(size=(30, 4))
        y = X.sum(axis=1)
        model = RidgeRegression().fit(X, y)
        assert model.predict(X).shape == (30,)
