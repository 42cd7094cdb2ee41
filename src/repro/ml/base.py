"""Estimator base class and small shared helpers."""

from __future__ import annotations

import copy
from typing import List, Sequence

import numpy as np


class BaseEstimator:
    """Minimal estimator protocol shared by every model in :mod:`repro.ml`.

    Subclasses implement ``fit(X, y)`` and either ``predict`` (regressors) or
    ``predict`` + ``predict_proba`` (classifiers) on dense float matrices.
    ``clone`` returns an unfitted copy with the same constructor parameters,
    which the search components use to retrain a fresh model per candidate
    feature.
    """

    #: set by subclasses: True for classifiers, False for regressors.
    _estimator_type = "regressor"

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaseEstimator":
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fit_batch(self, Xs: Sequence[np.ndarray], y: np.ndarray) -> List["BaseEstimator"]:
        """One fitted clone per design matrix in *Xs*, all on the labels *y*:
        ``[self.clone().fit(X, y) for X in Xs]``, which a model that can fit
        several problems at once overrides with the same results."""
        return [self.clone().fit(X, y) for X in Xs]

    def clone(self) -> "BaseEstimator":
        """Unfitted copy carrying the same hyperparameters."""
        params = {
            key: copy.deepcopy(value)
            for key, value in self.__dict__.items()
            if not key.endswith("_")
        }
        fresh = type(self).__new__(type(self))
        fresh.__dict__.update(params)
        return fresh

    def _validate_xy(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be a 2-D array, got shape {X.shape}")
        if y.ndim != 1:
            y = y.ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        return X, y


def is_classifier(model: BaseEstimator) -> bool:
    """True if *model* is a classifier."""
    return getattr(model, "_estimator_type", "regressor") == "classifier"
