"""Feature selectors combined with Featuretools (Section VII.A.3).

Each selector scores or greedily picks among already-materialised feature
columns and returns the names of the ``k`` selected features:

* ``lr``       -- absolute weights of a logistic/linear regression model,
* ``gbdt``     -- gain importances of a gradient-boosted tree model,
* ``mi``       -- mutual information with the label,
* ``chi2``     -- chi-square statistic (classification only),
* ``gini``     -- best-split Gini importance (classification only),
* ``forward``  -- greedy forward selection by validation improvement,
* ``backward`` -- greedy backward elimination by validation degradation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.evaluation import ModelEvaluator
from repro.ml.gbdt import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.linear import LinearRegression, LogisticRegression
from repro.ml.forest import RandomForestClassifier
from repro.ml.preprocessing import mean_impute
from repro.stats.chi2 import chi2_statistic
from repro.stats.gini import gini_importance
from repro.stats.mutual_information import mutual_information

SELECTOR_NAMES = ("lr", "gbdt", "mi", "chi2", "gini", "forward", "backward")


def _score_based_selection(scores: Sequence[float], names: Sequence[str], k: int) -> List[str]:
    order = np.argsort(-np.asarray(scores, dtype=np.float64))
    return [names[i] for i in order[:k]]


# ----------------------------------------------------------------------
# Score-based selectors
# ----------------------------------------------------------------------
def lr_selector(X: np.ndarray, y: np.ndarray, names: Sequence[str], k: int, task: str) -> List[str]:
    """Top-k features by absolute LR / linear-regression coefficient."""
    (X,) = mean_impute(X)
    if task == "regression":
        model = LinearRegression().fit(X, y)
    else:
        model = LogisticRegression(n_iter=150).fit(X, y)
    return _score_based_selection(model.feature_importances_, names, k)


def gbdt_selector(X: np.ndarray, y: np.ndarray, names: Sequence[str], k: int, task: str) -> List[str]:
    """Top-k features by gradient-boosting gain importance."""
    (X,) = mean_impute(X)
    if task == "regression":
        model = GradientBoostingRegressor(n_estimators=15, max_depth=3).fit(X, y)
    elif np.unique(y).size > 2:
        model = RandomForestClassifier(n_estimators=10, max_depth=5).fit(X, y)
    else:
        model = GradientBoostingClassifier(n_estimators=15, max_depth=3).fit(X, y)
    return _score_based_selection(model.feature_importances_, names, k)


def mi_selector(X: np.ndarray, y: np.ndarray, names: Sequence[str], k: int, task: str) -> List[str]:
    """Top-k features by mutual information with the label."""
    scores = [mutual_information(X[:, j], y) for j in range(X.shape[1])]
    return _score_based_selection(scores, names, k)


def chi2_selector(X: np.ndarray, y: np.ndarray, names: Sequence[str], k: int, task: str) -> List[str]:
    """Top-k features by chi-square score (classification only)."""
    if task == "regression":
        raise ValueError("The Chi2 selector only applies to classification tasks")
    scores = [chi2_statistic(X[:, j], y) for j in range(X.shape[1])]
    return _score_based_selection(scores, names, k)


def gini_selector(X: np.ndarray, y: np.ndarray, names: Sequence[str], k: int, task: str) -> List[str]:
    """Top-k features by single-split Gini importance (classification only)."""
    if task == "regression":
        raise ValueError("The Gini selector only applies to classification tasks")
    scores = [gini_importance(X[:, j], y) for j in range(X.shape[1])]
    return _score_based_selection(scores, names, k)


# ----------------------------------------------------------------------
# Wrapper (model-in-the-loop) selectors
# ----------------------------------------------------------------------
def forward_selector(
    evaluator: ModelEvaluator,
    feature_matrix_train: np.ndarray,
    feature_matrix_valid: np.ndarray,
    names: Sequence[str],
    k: int,
) -> List[str]:
    """Greedy forward selection: add the feature that improves validation most."""
    names = list(names)
    selected: List[int] = []
    remaining = list(range(len(names)))
    best_loss = evaluator.evaluate_matrix(None, None).loss
    for _ in range(min(k, len(names))):
        best_candidate = None
        best_candidate_loss = best_loss
        for j in remaining:
            columns = selected + [j]
            loss = evaluator.evaluate_matrix(
                feature_matrix_train[:, columns], feature_matrix_valid[:, columns]
            ).loss
            if loss < best_candidate_loss:
                best_candidate_loss = loss
                best_candidate = j
        if best_candidate is None:
            break
        selected.append(best_candidate)
        remaining.remove(best_candidate)
        best_loss = best_candidate_loss
    return [names[j] for j in selected]


def backward_selector(
    evaluator: ModelEvaluator,
    feature_matrix_train: np.ndarray,
    feature_matrix_valid: np.ndarray,
    names: Sequence[str],
    k: int,
) -> List[str]:
    """Greedy backward elimination: drop the feature whose removal helps most."""
    names = list(names)
    selected = list(range(len(names)))
    while len(selected) > k:
        best_drop = None
        best_loss = np.inf
        for j in selected:
            columns = [c for c in selected if c != j]
            loss = evaluator.evaluate_matrix(
                feature_matrix_train[:, columns], feature_matrix_valid[:, columns]
            ).loss
            if loss < best_loss:
                best_loss = loss
                best_drop = j
        if best_drop is None:  # pragma: no cover - defensive
            break
        selected.remove(best_drop)
    return [names[j] for j in selected]


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def select_features(
    selector: str,
    names: Sequence[str],
    k: int,
    task: str,
    X_train: np.ndarray,
    y_train: np.ndarray,
    evaluator: ModelEvaluator | None = None,
    X_valid: np.ndarray | None = None,
) -> List[str]:
    """Run the named selector and return the chosen feature names."""
    key = selector.strip().lower()
    if key not in SELECTOR_NAMES:
        raise ValueError(f"Unknown selector {selector!r}; expected one of {SELECTOR_NAMES}")
    score_based: Dict[str, Callable] = {
        "lr": lr_selector,
        "gbdt": gbdt_selector,
        "mi": mi_selector,
        "chi2": chi2_selector,
        "gini": gini_selector,
    }
    if key in score_based:
        return score_based[key](X_train, y_train, names, k, task)
    if evaluator is None or X_valid is None:
        raise ValueError(f"The {key!r} selector needs an evaluator and a validation matrix")
    if key == "forward":
        return forward_selector(evaluator, X_train, X_valid, names, k)
    return backward_selector(evaluator, X_train, X_valid, names, k)
