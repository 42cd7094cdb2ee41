"""Gradient boosted decision trees (the paper's "XGB" downstream model).

Implements second-order (Newton) boosting in the style of XGBoost: each round
fits a regression tree to the gradient/hessian statistics of the current
predictions, with the usual regularised leaf weight ``-G / (H + lambda)``.
Binary classification uses the logistic loss; regression uses squared error.
"""

from __future__ import annotations

import numpy as np

from repro.ml._splitter import Newton, check_params, grow
from repro.ml.base import BaseEstimator


class _BaseGradientBoosting(BaseEstimator):
    """Subclasses define ``_base_score(y)`` and ``_gradients(y, pred) -> (grad, hess)``."""

    def __init__(self, n_estimators: int = 30, learning_rate: float = 0.3, max_depth: int = 3,
                 min_child_weight: float = 1.0, reg_lambda: float = 1.0, gamma: float = 0.0,
                 subsample: float = 1.0, max_thresholds: int = 16, random_state: int | None = 0):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.subsample = subsample
        self.max_thresholds = max_thresholds
        self.random_state = random_state

    def fit(self, X, y) -> "_BaseGradientBoosting":
        X, y = self._validate_xy(X, y)
        check_params(X, n_estimators=self.n_estimators, subsample=self.subsample)
        rng = np.random.default_rng(self.random_state)
        self.base_score_ = self._base_score(y)
        pred = np.full(X.shape[0], self.base_score_, dtype=np.float64)
        self.trees_ = []
        gain_totals = np.zeros(X.shape[1], dtype=np.float64)
        for _ in range(self.n_estimators):
            grad, hess = self._gradients(y, pred)
            idx = np.arange(X.shape[0])
            if self.subsample < 1.0:
                n_sub = max(2, int(self.subsample * X.shape[0]))
                idx = rng.choice(X.shape[0], size=n_sub, replace=False)
            criterion = Newton(grad[idx], hess[idx], self.reg_lambda, self.gamma,
                               self.min_child_weight)
            tree = grow(X[idx], criterion, max_depth=self.max_depth, min_samples_split=2,
                        max_thresholds=self.max_thresholds)
            pred += self.learning_rate * tree.predict(X)[:, 0]
            self.trees_.append(tree)
            gain_totals += tree.importances
        total = gain_totals.sum()
        self.feature_importances_ = gain_totals / total if total > 0 else gain_totals
        return self

    def _raw_predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        pred = np.full(X.shape[0], self.base_score_, dtype=np.float64)
        for tree in self.trees_:
            pred += self.learning_rate * tree.predict(X)[:, 0]
        return pred


class GradientBoostingClassifier(_BaseGradientBoosting):
    """Binary classifier trained with the logistic loss (XGBoost-style)."""

    _estimator_type = "classifier"

    def _base_score(self, y: np.ndarray) -> float:
        p = np.clip(y.mean(), 1e-6, 1 - 1e-6)
        return float(np.log(p / (1 - p)))

    def _gradients(self, y: np.ndarray, pred: np.ndarray):
        p = 1.0 / (1.0 + np.exp(-pred))
        return p - y, np.maximum(p * (1 - p), 1e-6)

    def fit(self, X, y) -> "GradientBoostingClassifier":
        y_arr = np.asarray(y, dtype=np.float64).ravel()
        self.classes_ = np.unique(y_arr)
        if self.classes_.shape[0] > 2:
            raise ValueError("GradientBoostingClassifier supports binary labels only")
        return super().fit(X, (y_arr == self.classes_[-1]).astype(np.float64))

    def predict_proba(self, X) -> np.ndarray:
        p = 1.0 / (1.0 + np.exp(-self._raw_predict(X)))
        return np.column_stack([1 - p, p])

    def predict(self, X) -> np.ndarray:
        return np.where(self.predict_proba(X)[:, 1] >= 0.5, self.classes_[-1], self.classes_[0])


class GradientBoostingRegressor(_BaseGradientBoosting):
    """Regressor trained with squared-error loss."""

    _estimator_type = "regressor"

    def _base_score(self, y: np.ndarray) -> float:
        return float(y.mean())

    def _gradients(self, y: np.ndarray, pred: np.ndarray):
        return pred - y, np.ones_like(y)

    def predict(self, X) -> np.ndarray:
        return self._raw_predict(X)
