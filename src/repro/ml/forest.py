"""Random forests (bagged CART trees with feature subsampling).

RF is one of the paper's four downstream models (Table III / VI); its
feature importances also score features for the tree-based selectors.
"""

from __future__ import annotations

import numpy as np

from repro.ml._splitter import check_params
from repro.ml.base import BaseEstimator
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


class _BaseForest(BaseEstimator):
    """Subclasses name the ``_tree_class`` they bag."""

    def __init__(self, n_estimators: int = 20, max_depth: int = 6, min_samples_leaf: int = 1,
                 max_features: float | str | None = "sqrt", max_thresholds: int = 16,
                 random_state: int | None = 0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.random_state = random_state

    def fit(self, X, y) -> "_BaseForest":
        X, y = self._validate_xy(X, y)
        check_params(X, n_estimators=self.n_estimators)
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        for _ in range(self.n_estimators):
            indices = rng.choice(X.shape[0], size=X.shape[0], replace=True)
            tree = self._tree_class(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features, max_thresholds=self.max_thresholds,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[indices], y[indices])
            self.estimators_.append(tree)
        importances = sum(tree.feature_importances_ for tree in self.estimators_)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self


class RandomForestClassifier(_BaseForest):
    """Bootstrap-aggregated decision tree classifier."""

    _estimator_type = "classifier"
    _tree_class = DecisionTreeClassifier

    def fit(self, X, y) -> "RandomForestClassifier":
        y_arr = np.asarray(y, dtype=np.float64).ravel()
        self.classes_ = np.unique(y_arr)
        return super().fit(X, y_arr)

    def predict_proba(self, X) -> np.ndarray:
        """Average the class distributions predicted by all trees."""
        X = np.asarray(X, dtype=np.float64)
        proba = np.zeros((X.shape[0], self.classes_.shape[0]), dtype=np.float64)
        for tree in self.estimators_:
            # Align the tree's classes (a bootstrap sample may miss a class).
            proba[:, np.searchsorted(self.classes_, tree.classes_)] += tree.predict_proba(X)
        proba /= len(self.estimators_)
        return proba

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class RandomForestRegressor(_BaseForest):
    """Bootstrap-aggregated decision tree regressor."""

    _estimator_type = "regressor"
    _tree_class = DecisionTreeRegressor

    def predict(self, X) -> np.ndarray:
        return sum(tree.predict(X) for tree in self.estimators_) / len(self.estimators_)
