"""CART decision trees (classifier and regressor), the random forest's trees.

Splits scan at most ``max_thresholds`` quantile thresholds per feature; see
:mod:`repro.ml._splitter`.
"""

from __future__ import annotations

import numpy as np

from repro.ml._splitter import Gini, Variance, grow, resolve_max_features
from repro.ml.base import BaseEstimator


class _BaseTree(BaseEstimator):
    """Subclasses define ``_criterion(y)``, the split criterion of a fit."""

    def __init__(self, max_depth: int = 6, min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: float | str | None = None, max_thresholds: int = 16,
                 random_state: int | None = None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.random_state = random_state

    def fit(self, X, y) -> "_BaseTree":
        X, y = self._validate_xy(X, y)
        self.n_features_ = n = X.shape[1]
        k = resolve_max_features(self.max_features, n)
        rng = np.random.default_rng(self.random_state)
        self.tree_ = grow(
            X, self._criterion(y), max_depth=self.max_depth,
            min_samples_split=self.min_samples_split, max_thresholds=self.max_thresholds,
            draw_features=(lambda: rng.choice(n, size=k, replace=False)) if k < n else None,
        )
        total = self.tree_.importances.sum()
        self.feature_importances_ = self.tree_.importances / (total if total > 0 else 1.0)
        return self


class DecisionTreeClassifier(_BaseTree):
    """CART classifier using Gini impurity; leaves store class distributions."""

    _estimator_type = "classifier"

    def fit(self, X, y) -> "DecisionTreeClassifier":
        y_arr = np.asarray(y, dtype=np.float64).ravel()
        self.classes_ = np.unique(y_arr)
        return super().fit(X, y_arr)

    def _criterion(self, y: np.ndarray) -> Gini:
        return Gini(np.searchsorted(self.classes_, y), len(self.classes_), self.min_samples_leaf)

    def predict_proba(self, X) -> np.ndarray:
        return self.tree_.predict(X)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor using variance reduction; leaves store the mean target."""

    _estimator_type = "regressor"

    def _criterion(self, y: np.ndarray) -> Variance:
        return Variance(y, self.min_samples_leaf)

    def predict(self, X) -> np.ndarray:
        return self.tree_.predict(X).ravel()
