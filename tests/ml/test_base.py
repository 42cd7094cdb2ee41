"""Unit tests for the estimator base class."""

import numpy as np
import pytest

from repro.ml.base import BaseEstimator, is_classifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import GradientBoostingRegressor
from repro.ml.linear import LinearRegression, LogisticRegression
from repro.ml.model_zoo import make_model


class TestCloning:
    def test_clone_copies_constructor_parameters(self):
        model = RandomForestClassifier(n_estimators=7, max_depth=3, random_state=42)
        clone = model.clone()
        assert clone.n_estimators == 7
        assert clone.max_depth == 3
        assert clone.random_state == 42

    def test_clone_drops_fitted_state(self):
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(40, 2)), rng.integers(0, 2, size=40).astype(float)
        model = LogisticRegression(n_iter=20).fit(X, y)
        clone = model.clone()
        assert not hasattr(clone, "coef_")
        with pytest.raises(AttributeError):
            clone.predict(X)

    def test_clone_is_deep_for_mutable_params(self):
        model = GradientBoostingRegressor(n_estimators=3)
        clone = model.clone()
        clone.n_estimators = 99
        assert model.n_estimators == 3

    def test_cloned_model_trains_identically(self):
        rng = np.random.default_rng(1)
        X, y = rng.normal(size=(60, 3)), rng.normal(size=60)
        original = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(X, y)
        retrained = original.clone().fit(X, y)
        assert np.allclose(original.predict(X), retrained.predict(X))


class TestValidation:
    def test_validate_rejects_1d_features(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.zeros(5), np.zeros(5))

    def test_validate_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.zeros((5, 2)), np.zeros(6))

    def test_validate_flattens_column_labels(self):
        X = np.random.default_rng(0).normal(size=(10, 1))
        y = (X * 2).reshape(-1, 1)
        model = LinearRegression().fit(X, y)
        assert model.predict(X).shape == (10,)


class TestClassifierFlag:
    def test_regressors_not_classifiers(self):
        assert not is_classifier(LinearRegression())
        assert not is_classifier(GradientBoostingRegressor())

    def test_classifiers_flagged(self):
        assert is_classifier(LogisticRegression())
        assert is_classifier(RandomForestClassifier())

    def test_default_base_estimator_is_regressor(self):
        assert not is_classifier(BaseEstimator())


_ZOO = [
    ("LR", "binary"), ("LR", "multiclass"), ("LR", "regression"),
    ("XGB", "binary"), ("XGB", "multiclass"), ("XGB", "regression"),
    ("RF", "binary"), ("RF", "regression"), ("DeepFM", "binary"),
]


class TestFitBatch:
    """``fit_batch`` returns what fitting a clone per matrix returns."""

    @staticmethod
    def problems(task, k=3):
        rng = np.random.default_rng(5)
        n = 60
        y = {
            "binary": rng.integers(0, 2, size=n),
            "multiclass": rng.integers(0, 3, size=n),
            "regression": rng.normal(size=n),
        }[task].astype(float)
        return [rng.normal(size=(n, 3)) for _ in range(k)], y

    @pytest.mark.parametrize("name,task", _ZOO)
    def test_same_predictions_as_separate_fits(self, name, task):
        model = make_model(name, task)
        Xs, y = self.problems(task)
        batch = model.fit_batch(Xs, y)
        assert len(batch) == len(Xs)
        for fitted, X in zip(batch, Xs):
            assert fitted is not model and type(fitted) is type(model)
            alone = model.clone().fit(X, y)
            assert fitted.predict(X).tobytes() == alone.predict(X).tobytes()
            if is_classifier(model):
                assert fitted.predict_proba(X).tobytes() == alone.predict_proba(X).tobytes()
        assert not hasattr(model, "coef_") and not hasattr(model, "classes_")

    def test_empty_batch(self):
        assert LogisticRegression().fit_batch([], np.zeros(3)) == []
        assert RandomForestClassifier().fit_batch([], np.zeros(3)) == []
