"""Gini impurity and a Gini-based feature importance score.

Used by the ``Featuretools + Gini Selector`` baseline: a feature is scored by
the impurity reduction of the best single split on that feature, i.e. the
importance a depth-1 decision stump would assign to it.
"""

from __future__ import annotations

import numpy as np

from repro.ml._splitter import candidate_thresholds, gini_from_counts, left_statistics


def gini_impurity(labels: np.ndarray) -> float:
    """Gini impurity of a label array: ``1 - sum_c p_c^2``."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    return float(gini_from_counts(counts))


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
    order = np.argsort(x[finite], kind="stable")
    values = x[finite][order][None]
    quantiles = np.linspace(0, 1, max_thresholds + 2)[1:-1]
    # Quantiles one distinct value earlier than the trees' rule; -inf next to +inf gives NaN.
    with np.errstate(invalid="ignore", over="ignore"):
        thresholds = candidate_thresholds(values, quantiles, max_thresholds - 1)
    classes, codes = np.unique(y, return_inverse=True)
    onehot = np.eye(classes.shape[0])[codes[finite]]
    counts = onehot.sum(axis=0)
    n_left, left = left_statistics(values, onehot[order][None], thresholds, counts)
    n, n_right = y.shape[0], values.shape[1] - n_left
    weighted = (n_left * gini_from_counts(left) + n_right * gini_from_counts(counts - left)) / n
    missing_part = (n - values.shape[1]) * gini_impurity(y[~finite]) / n if (~finite).any() else 0.0
    decrease = parent - weighted - missing_part
    valid = (n_left > 0) & (n_right > 0) & ~np.isnan(thresholds)
    return float(max(0.0, decrease[valid].max())) if valid.any() else 0.0
