"""Reference logistic regression (tests only).

The gradient-descent loop and softmax that ``repro.ml.linear`` replaced,
kept as they were: every step builds ``P - Y``, the gradient and the
loss as fresh temporaries, reduces the class axis through the ``max`` /
``sum`` / ``clip`` / ``mean`` wrappers, and codes the one-hot label matrix
with a Python loop over the labels.

``repro.ml.linear.LogisticRegression`` must reproduce it bit for bit: the
same classes, standardisation, coefficients, importances and probabilities.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator


def _add_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1), dtype=np.float64)])


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _standardise(X: np.ndarray):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    return (X - mean) / std, mean, std


class LogisticRegression(BaseEstimator):
    """Multinomial logistic regression trained with full-batch gradient descent."""

    _estimator_type = "classifier"

    def __init__(self, learning_rate: float = 0.5, n_iter: int = 300, l2: float = 1e-3, tol: float = 1e-6):
        self.learning_rate = learning_rate
        self.n_iter = n_iter
        self.l2 = l2
        self.tol = tol

    def fit(self, X, y) -> "LogisticRegression":
        X, y = self._validate_xy(X, y)
        X, self._mean_, self._std_ = _standardise(X)
        X = _add_intercept(X)
        self.classes_ = np.unique(y)
        n_classes = self.classes_.shape[0]
        class_index = {c: i for i, c in enumerate(self.classes_)}
        Y = np.zeros((X.shape[0], n_classes), dtype=np.float64)
        for i, label in enumerate(y):
            Y[i, class_index[label]] = 1.0
        W = np.zeros((X.shape[1], n_classes), dtype=np.float64)
        n = X.shape[0]
        prev_loss = np.inf
        for _ in range(self.n_iter):
            P = _softmax(X @ W)
            grad = X.T @ (P - Y) / n + self.l2 * W
            W -= self.learning_rate * grad
            loss = -np.log(np.clip((P * Y).sum(axis=1), 1e-12, None)).mean()
            if abs(prev_loss - loss) < self.tol:
                break
            prev_loss = loss
        self.coef_ = W
        self.feature_importances_ = np.abs(W[:-1, :]).sum(axis=1)
        return self

    def _proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        X = (X - self._mean_) / self._std_
        X = _add_intercept(X)
        return _softmax(X @ self.coef_)

    def predict_proba(self, X) -> np.ndarray:
        return self._proba(X)
