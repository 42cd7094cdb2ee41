"""Unit tests for decision trees."""

import numpy as np
import pytest

from repro.ml.metrics import accuracy_score, rmse
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


def xor_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)
    return X, y


class TestDecisionTreeClassifier:
    def test_fits_xor(self):
        X, y = xor_data()
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_depth_one_cannot_fit_xor(self):
        X, y = xor_data()
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert accuracy_score(y, stump.predict(X)) < 0.7

    def test_predict_proba_shape_and_range(self):
        X, y = xor_data(100)
        proba = DecisionTreeClassifier(max_depth=3).fit(X, y).predict_proba(X)
        assert proba.shape == (100, 2)
        assert np.all((proba >= 0) & (proba <= 1))
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_pure_leaf_on_constant_labels(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        y = np.ones(20)
        model = DecisionTreeClassifier().fit(X, y)
        assert np.all(model.predict(X) == 1.0)

    def test_feature_importances_sum_to_one(self):
        X, y = xor_data()
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert model.feature_importances_.sum() == pytest.approx(1.0)

    def test_min_samples_leaf_respected(self):
        X, y = xor_data(60)
        model = DecisionTreeClassifier(max_depth=8, min_samples_leaf=20).fit(X, y)
        assert (model.tree_.feature < 0).sum() <= 3

    def test_multiclass(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 2))
        y = (X[:, 0] > 0).astype(float) + 2 * (X[:, 1] > 0).astype(float)
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_max_features_subsampling_runs(self):
        X, y = xor_data(100)
        model = DecisionTreeClassifier(max_depth=3, max_features="sqrt", random_state=0).fit(X, y)
        assert model.predict(X).shape == (100,)


class TestDecisionTreeRegressor:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10
        model = DecisionTreeRegressor(max_depth=3, max_thresholds=64).fit(X, y)
        assert rmse(y, model.predict(X)) < 0.5

    def test_deeper_tree_fits_better(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(300, 1))
        y = np.sin(6 * X[:, 0])
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert rmse(y, deep.predict(X)) < rmse(y, shallow.predict(X))

    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = np.full(30, 3.5)
        model = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(model.predict(X), 3.5)

    def test_prediction_within_target_range(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = rng.uniform(5, 10, size=100)
        pred = DecisionTreeRegressor(max_depth=4).fit(X, y).predict(X)
        assert pred.min() >= 5.0 - 1e-9
        assert pred.max() <= 10.0 + 1e-9
