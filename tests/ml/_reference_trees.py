"""Per-threshold reference tree growers (tests only).

These are the CART trees and forests, the boosted regression tree and the
Gini stump score that the shared sorted prefix-statistics splitter
(``repro.ml._splitter``) replaced, kept as they were: each candidate
threshold builds a boolean mask over the node's rows and re-scores both
children from scratch (``np.unique`` per child for Gini, ``y.var()`` for
variance, two masked sums for the Newton criterion), and prediction walks
one row at a time.

The splitter must reproduce them:

* classifier trees and ``gini_importance`` exactly (class counts are exact
  integers and the Gini expression is evaluated in the same order);
* regressor and boosted trees with the same split structure, and leaf
  values within 1e-12 relative: those criteria sum floats in sorted rather
  than masked order, so their gains can differ in the last ulps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.ml.base import BaseEstimator


@dataclass
class _Node:
    """A tree node: either a leaf (value set) or an internal split."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: np.ndarray = field(default_factory=lambda: np.zeros(1))
    is_leaf: bool = True


def _candidate_thresholds(values: np.ndarray, max_thresholds: int) -> np.ndarray:
    distinct = np.unique(values)
    if distinct.size < 2:
        return np.empty(0)
    if distinct.size - 1 <= max_thresholds:
        return (distinct[:-1] + distinct[1:]) / 2.0
    quantiles = np.linspace(0, 1, max_thresholds + 2)[1:-1]
    return np.unique(np.quantile(values, quantiles))


class _BaseTree(BaseEstimator):
    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: float | str | None = None,
        max_thresholds: int = 16,
        random_state: int | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.random_state = random_state

    # Subclasses define how to aggregate labels into leaf values and how to
    # score the impurity of a label subset.
    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(self.max_features, float):
            return max(1, int(self.max_features * n_features))
        return min(int(self.max_features), n_features)

    def fit(self, X, y) -> "_BaseTree":
        X, y = self._validate_xy(X, y)
        self._rng = np.random.default_rng(self.random_state)
        self.n_features_ = X.shape[1]
        self.feature_importances_ = np.zeros(self.n_features_, dtype=np.float64)
        self._root = self._grow(X, y, depth=0)
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ = self.feature_importances_ / total
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=self._leaf_value(y))
        if (
            depth >= self.max_depth
            or y.shape[0] < self.min_samples_split
            or np.unique(y).size == 1
        ):
            return node
        best = self._best_split(X, y)
        if best is None:
            return node
        feature, threshold, gain, left_mask = best
        node.is_leaf = False
        node.feature = feature
        node.threshold = threshold
        self.feature_importances_[feature] += gain * y.shape[0]
        node.left = self._grow(X[left_mask], y[left_mask], depth + 1)
        node.right = self._grow(X[~left_mask], y[~left_mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        n_samples, n_features = X.shape
        parent_impurity = self._impurity(y)
        if parent_impurity == 0:
            return None
        k = self._resolve_max_features(n_features)
        features = self._rng.choice(n_features, size=k, replace=False) if k < n_features else np.arange(n_features)
        best_gain = 1e-12
        best = None
        for feature in features:
            column = X[:, feature]
            thresholds = _candidate_thresholds(column, self.max_thresholds)
            for threshold in thresholds:
                left_mask = column <= threshold
                n_left = int(left_mask.sum())
                n_right = n_samples - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                gain = parent_impurity - (
                    n_left * self._impurity(y[left_mask])
                    + n_right * self._impurity(y[~left_mask])
                ) / n_samples
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold), float(gain), left_mask)
        return best

    def _predict_value(self, x: np.ndarray) -> np.ndarray:
        node = self._root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def _predict_values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.vstack([self._predict_value(X[i]) for i in range(X.shape[0])])


class DecisionTreeClassifier(_BaseTree):
    """CART classifier using Gini impurity; leaves store class distributions."""

    _estimator_type = "classifier"

    def fit(self, X, y) -> "DecisionTreeClassifier":
        y_arr = np.asarray(y, dtype=np.float64).ravel()
        self.classes_ = np.unique(y_arr)
        self._class_index = {c: i for i, c in enumerate(self.classes_)}
        return super().fit(X, y_arr)

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.zeros(self.classes_.shape[0], dtype=np.float64)
        for label in y:
            counts[self._class_index[label]] += 1
        total = counts.sum()
        return counts / total if total > 0 else counts

    def _impurity(self, y: np.ndarray) -> float:
        if y.shape[0] == 0:
            return 0.0
        _, counts = np.unique(y, return_counts=True)
        p = counts / counts.sum()
        return float(1.0 - (p**2).sum())

    def predict_proba(self, X) -> np.ndarray:
        return self._predict_values(X)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor using variance reduction; leaves store the mean target."""

    _estimator_type = "regressor"

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        return np.asarray([y.mean() if y.shape[0] else 0.0])

    def _impurity(self, y: np.ndarray) -> float:
        if y.shape[0] == 0:
            return 0.0
        return float(y.var())

    def predict(self, X) -> np.ndarray:
        return self._predict_values(X).ravel()


class _BaseForest(BaseEstimator):
    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 6,
        min_samples_leaf: int = 1,
        max_features: float | str | None = "sqrt",
        max_thresholds: int = 16,
        random_state: int | None = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.random_state = random_state

    def _make_tree(self, seed: int):
        raise NotImplementedError

    def fit(self, X, y) -> "_BaseForest":
        X, y = self._validate_xy(X, y)
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        self.estimators_ = []
        importances = np.zeros(X.shape[1], dtype=np.float64)
        for i in range(self.n_estimators):
            indices = rng.choice(n, size=n, replace=True)
            tree = self._make_tree(seed=int(rng.integers(0, 2**31 - 1)))
            tree.fit(X[indices], y[indices])
            self.estimators_.append(tree)
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self


class RandomForestClassifier(_BaseForest):
    """Bootstrap-aggregated decision tree classifier."""

    _estimator_type = "classifier"

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            max_thresholds=self.max_thresholds,
            random_state=seed,
        )

    def fit(self, X, y) -> "RandomForestClassifier":
        y_arr = np.asarray(y, dtype=np.float64).ravel()
        self.classes_ = np.unique(y_arr)
        return super().fit(X, y_arr)

    def predict_proba(self, X) -> np.ndarray:
        """Average the class distributions predicted by all trees."""
        X = np.asarray(X, dtype=np.float64)
        proba = np.zeros((X.shape[0], self.classes_.shape[0]), dtype=np.float64)
        for tree in self.estimators_:
            tree_proba = tree.predict_proba(X)
            # Align the tree's classes (a bootstrap sample may miss a class).
            for j, c in enumerate(tree.classes_):
                target = np.where(self.classes_ == c)[0][0]
                proba[:, target] += tree_proba[:, j]
        proba /= len(self.estimators_)
        return proba

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class RandomForestRegressor(_BaseForest):
    """Bootstrap-aggregated decision tree regressor."""

    _estimator_type = "regressor"

    def _make_tree(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            max_thresholds=self.max_thresholds,
            random_state=seed,
        )

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        preds = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.estimators_:
            preds += tree.predict(X)
        return preds / len(self.estimators_)


@dataclass
class _BoostNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_BoostNode"] = None
    right: Optional["_BoostNode"] = None
    weight: float = 0.0
    is_leaf: bool = True


class _BoostTree:
    """A single regression tree fitted to gradient/hessian statistics."""

    def __init__(self, max_depth: int, min_child_weight: float, reg_lambda: float, gamma: float, max_thresholds: int):
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.max_thresholds = max_thresholds
        self.gain_by_feature: dict = {}

    def fit(self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> "_BoostTree":
        self._root = self._grow(X, grad, hess, depth=0)
        return self

    def _leaf_weight(self, grad: np.ndarray, hess: np.ndarray) -> float:
        return float(-grad.sum() / (hess.sum() + self.reg_lambda))

    def _grow(self, X, grad, hess, depth) -> _BoostNode:
        node = _BoostNode(weight=self._leaf_weight(grad, hess))
        if depth >= self.max_depth or X.shape[0] < 2:
            return node
        best = self._best_split(X, grad, hess)
        if best is None:
            return node
        feature, threshold, gain, mask = best
        node.is_leaf = False
        node.feature = feature
        node.threshold = threshold
        self.gain_by_feature[feature] = self.gain_by_feature.get(feature, 0.0) + gain
        node.left = self._grow(X[mask], grad[mask], hess[mask], depth + 1)
        node.right = self._grow(X[~mask], grad[~mask], hess[~mask], depth + 1)
        return node

    def _best_split(self, X, grad, hess):
        G, H = grad.sum(), hess.sum()
        parent_score = G * G / (H + self.reg_lambda)
        best_gain = self.gamma
        best = None
        for feature in range(X.shape[1]):
            column = X[:, feature]
            distinct = np.unique(column)
            if distinct.size < 2:
                continue
            if distinct.size - 1 > self.max_thresholds:
                thresholds = np.unique(
                    np.quantile(column, np.linspace(0, 1, self.max_thresholds + 2)[1:-1])
                )
            else:
                thresholds = (distinct[:-1] + distinct[1:]) / 2.0
            for threshold in thresholds:
                mask = column <= threshold
                h_left = hess[mask].sum()
                h_right = H - h_left
                if h_left < self.min_child_weight or h_right < self.min_child_weight:
                    continue
                g_left = grad[mask].sum()
                g_right = G - g_left
                gain = 0.5 * (
                    g_left**2 / (h_left + self.reg_lambda)
                    + g_right**2 / (h_right + self.reg_lambda)
                    - parent_score
                )
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, float(threshold), float(gain), mask)
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0], dtype=np.float64)
        for i in range(X.shape[0]):
            node = self._root
            x = X[i]
            while not node.is_leaf:
                node = node.left if x[node.feature] <= node.threshold else node.right
            out[i] = node.weight
        return out


class _BaseGradientBoosting(BaseEstimator):
    def __init__(
        self,
        n_estimators: int = 30,
        learning_rate: float = 0.3,
        max_depth: int = 3,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        subsample: float = 1.0,
        max_thresholds: int = 16,
        random_state: int | None = 0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.subsample = subsample
        self.max_thresholds = max_thresholds
        self.random_state = random_state

    def _gradients(self, y: np.ndarray, pred: np.ndarray):
        raise NotImplementedError

    def _base_score(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def fit(self, X, y) -> "_BaseGradientBoosting":
        X, y = self._validate_xy(X, y)
        rng = np.random.default_rng(self.random_state)
        self.base_score_ = self._base_score(y)
        pred = np.full(X.shape[0], self.base_score_, dtype=np.float64)
        self.trees_ = []
        gain_totals = np.zeros(X.shape[1], dtype=np.float64)
        for _ in range(self.n_estimators):
            grad, hess = self._gradients(y, pred)
            if self.subsample < 1.0:
                n_sub = max(2, int(self.subsample * X.shape[0]))
                idx = rng.choice(X.shape[0], size=n_sub, replace=False)
            else:
                idx = np.arange(X.shape[0])
            tree = _BoostTree(
                max_depth=self.max_depth,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                gamma=self.gamma,
                max_thresholds=self.max_thresholds,
            )
            tree.fit(X[idx], grad[idx], hess[idx])
            update = tree.predict(X)
            pred += self.learning_rate * update
            self.trees_.append(tree)
            for feature, gain in tree.gain_by_feature.items():
                gain_totals[feature] += gain
        total = gain_totals.sum()
        self.feature_importances_ = gain_totals / total if total > 0 else gain_totals
        return self

    def _raw_predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        pred = np.full(X.shape[0], self.base_score_, dtype=np.float64)
        for tree in self.trees_:
            pred += self.learning_rate * tree.predict(X)
        return pred


class GradientBoostingClassifier(_BaseGradientBoosting):
    """Binary classifier trained with the logistic loss (XGBoost-style)."""

    _estimator_type = "classifier"

    def _base_score(self, y: np.ndarray) -> float:
        p = np.clip(y.mean(), 1e-6, 1 - 1e-6)
        return float(np.log(p / (1 - p)))

    def _gradients(self, y: np.ndarray, pred: np.ndarray):
        p = 1.0 / (1.0 + np.exp(-pred))
        grad = p - y
        hess = np.maximum(p * (1 - p), 1e-6)
        return grad, hess

    def fit(self, X, y) -> "GradientBoostingClassifier":
        y_arr = np.asarray(y, dtype=np.float64).ravel()
        self.classes_ = np.unique(y_arr)
        if self.classes_.shape[0] > 2:
            raise ValueError("GradientBoostingClassifier supports binary labels only")
        y_binary = (y_arr == self.classes_[-1]).astype(np.float64)
        self._positive_class = self.classes_[-1]
        self._negative_class = self.classes_[0]
        return super().fit(X, y_binary)

    def predict_proba(self, X) -> np.ndarray:
        p = 1.0 / (1.0 + np.exp(-self._raw_predict(X)))
        return np.column_stack([1 - p, p])

    def predict(self, X) -> np.ndarray:
        p = self.predict_proba(X)[:, 1]
        return np.where(p >= 0.5, self._positive_class, self._negative_class)


class GradientBoostingRegressor(_BaseGradientBoosting):
    """Regressor trained with squared-error loss."""

    _estimator_type = "regressor"

    def _base_score(self, y: np.ndarray) -> float:
        return float(y.mean())

    def _gradients(self, y: np.ndarray, pred: np.ndarray):
        grad = pred - y
        hess = np.ones_like(y)
        return grad, hess

    def predict(self, X) -> np.ndarray:
        return self._raw_predict(X)


def gini_impurity(labels: np.ndarray) -> float:
    """Gini impurity of a label array: ``1 - sum_c p_c^2``."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(1.0 - (p**2).sum())


def gini_importance(feature, label, max_thresholds: int = 32) -> float:
    """Impurity decrease of the best threshold split of *feature* on *label*.

    Missing feature values are routed to their own branch first; among the
    remaining values up to ``max_thresholds`` candidate split points (taken at
    quantiles) are evaluated and the largest weighted impurity decrease is
    returned.  Higher means a more useful feature.
    """
    x = np.asarray(feature, dtype=np.float64)
    y = np.asarray(label)
    parent = gini_impurity(y)
    finite = ~np.isnan(x)
    if finite.sum() < 2 or parent == 0:
        return 0.0
    xf, yf = x[finite], y[finite]
    distinct = np.unique(xf)
    if distinct.size < 2:
        return 0.0
    if distinct.size > max_thresholds:
        thresholds = np.quantile(xf, np.linspace(0, 1, max_thresholds + 2)[1:-1])
        thresholds = np.unique(thresholds)
    else:
        thresholds = (distinct[:-1] + distinct[1:]) / 2.0
    best = 0.0
    n = y.shape[0]
    for t in thresholds:
        left = xf <= t
        right = ~left
        if not left.any() or not right.any():
            continue
        weighted = (
            left.sum() * gini_impurity(yf[left]) + right.sum() * gini_impurity(yf[right])
        ) / n
        missing_part = (n - xf.shape[0]) * gini_impurity(y[~finite]) / n if (~finite).any() else 0.0
        decrease = parent - weighted - missing_part
        best = max(best, decrease)
    return float(best)
