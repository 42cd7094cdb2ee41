"""Low-cost proxies for query / template effectiveness.

Instead of retraining the downstream model for every candidate query, the
warm-up phase and the template-identification component score a candidate by
a cheap statistic of its generated feature against the label (Section V.C,
VI.C.1, Table VIII).  All proxies return a value where *higher is better*.
"""

from __future__ import annotations

import numpy as np

from repro.ml.linear import LinearRegression, LogisticRegression
from repro.ml.metrics import rmse, roc_auc_score
from repro.stats.correlation import spearman_correlation
from repro.stats.mutual_information import label_groups, mutual_information_given


class Proxy:
    """Interface: score a candidate feature against the label (higher = better)."""

    name = "proxy"

    def score(self, feature: np.ndarray, label: np.ndarray, task: str) -> float:
        raise NotImplementedError


class MutualInformationProxy(Proxy):
    """Mutual information between the (binned) feature and the label.

    A search scores every candidate against the same label array, so the
    label is coded once and reused while the proxy is handed that same
    array object (labels are not modified in place).
    """

    name = "mi"

    def __init__(self, n_bins: int = 10):
        if n_bins < 1:
            raise ValueError(f"n_bins must be at least 1, got {n_bins!r}")
        self.n_bins = n_bins
        self._label = None
        self._label_groups = None

    def score(self, feature: np.ndarray, label: np.ndarray, task: str) -> float:
        if label is not self._label:
            self._label_groups = label_groups(label, self.n_bins)
            self._label = label
        return mutual_information_given(feature, self._label_groups, n_bins=self.n_bins)


class SpearmanProxy(Proxy):
    """Absolute Spearman rank correlation between feature and label."""

    name = "spearman"

    def score(self, feature: np.ndarray, label: np.ndarray, task: str) -> float:
        return abs(spearman_correlation(feature, label))


class LRProxy(Proxy):
    """Validation performance of a tiny LR model trained on the single feature.

    The feature vector is split in half (first part train, second part
    validation); classification returns AUC, regression returns ``-RMSE`` so
    that higher is always better.
    """

    name = "lr"

    def __init__(self, n_iter: int = 100):
        self.n_iter = n_iter

    def score(self, feature: np.ndarray, label: np.ndarray, task: str) -> float:
        feature = np.asarray(feature, dtype=np.float64)
        label = np.asarray(label, dtype=np.float64)
        finite = ~np.isnan(feature)
        feature = np.where(finite, feature, np.nanmean(feature) if finite.any() else 0.0)
        n = feature.shape[0]
        if n < 10 or np.unique(label).size < 2:
            return 0.0
        half = n // 2
        X_train, X_valid = feature[:half].reshape(-1, 1), feature[half:].reshape(-1, 1)
        y_train, y_valid = label[:half], label[half:]
        if task == "regression":
            model = LinearRegression().fit(X_train, y_train)
            return -rmse(y_valid, model.predict(X_valid))
        if np.unique(y_train).size < 2:
            return 0.0
        model = LogisticRegression(n_iter=self.n_iter).fit(X_train, y_train)
        proba = model.predict_proba(X_valid)[:, -1]
        positive = model.classes_[-1]
        return roc_auc_score((y_valid == positive).astype(float), proba)


def make_proxy(name: str) -> Proxy:
    """Instantiate a proxy by its Table VIII name ("mi", "spearman", "lr")."""
    key = name.strip().lower()
    if key in ("mi", "mutual_information"):
        return MutualInformationProxy()
    if key in ("sc", "spearman"):
        return SpearmanProxy()
    if key in ("lr", "logistic"):
        return LRProxy()
    raise ValueError(f"Unknown proxy {name!r}; expected 'mi', 'spearman' or 'lr'")
