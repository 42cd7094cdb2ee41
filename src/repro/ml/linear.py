"""Linear models: logistic regression, linear (OLS) regression, ridge.

Logistic regression is one of the paper's downstream models and also serves
as the "LR proxy" in Table VIII.  Linear regression (OLS) backs the regression
scenarios (Merchant / RMSE) and ridge regression backs the query-template
performance predictor (Section VI.C.2).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator


def _add_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1), dtype=np.float64)])


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of the logits *z*, computed in place.

    Two classes take the row max and sum column by column: the max is
    order-free and a two-element add reduction is ``e0 + e1``, so the bits
    are those of ``np.maximum.reduce`` / ``np.add.reduce``, which any other
    class count keeps (from eight terms on, numpy does not add left to right).
    """
    if z.shape[-1] == 2:
        z -= np.maximum(z[..., 0], z[..., 1])[..., None]
        np.exp(z, out=z)
        z /= (z[..., 0] + z[..., 1])[..., None]
    else:
        z -= np.maximum.reduce(z, axis=-1)[..., None]
        np.exp(z, out=z)
        z /= np.add.reduce(z, axis=-1)[..., None]
    return z


def _standardise(X: np.ndarray):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    return (X - mean) / std, mean, std


class LogisticRegression(BaseEstimator):
    """Multinomial logistic regression trained with full-batch gradient descent.

    Supports binary and multi-class classification.  Features are internally
    standardised, which makes plain gradient descent converge quickly enough
    for the dataset sizes used in the reproduction.
    """

    _estimator_type = "classifier"

    def __init__(self, learning_rate: float = 0.5, n_iter: int = 300, l2: float = 1e-3, tol: float = 1e-6):
        self.learning_rate = learning_rate
        self.n_iter = n_iter
        self.l2 = l2
        self.tol = tol

    def fit(self, X, y) -> "LogisticRegression":
        X, y = self._design(X, y)
        self.classes_, codes = np.unique(y, return_inverse=True)
        self._set_coef(self._descend(X, codes, self.classes_.shape[0]))
        return self

    def fit_batch(self, Xs, y) -> list:
        """Fit one clone per design matrix on the labels *y*, in lockstep.

        The standardised matrices are stacked and descend together through
        the loop :meth:`fit` runs: each model gets the coefficients a
        separate ``clone().fit(X, y)`` would.  Fewer than two matrices, or
        matrices of different shapes, are fitted one by one.
        """
        if len(Xs) < 2 or len({np.shape(X) for X in Xs}) > 1:
            return super().fit_batch(Xs, y)
        models = [self.clone() for _ in Xs]
        designs = [model._design(X, y) for model, X in zip(models, Xs)]
        classes, codes = np.unique(designs[0][1], return_inverse=True)
        coefs = self._descend(np.stack([X for X, _ in designs]), codes, classes.shape[0])
        for model, W in zip(models, coefs):
            model.classes_ = classes
            model._set_coef(W)
        return models

    def _design(self, X, y):
        """Validated ``(X, y)`` with *X* standardised (setting ``_mean_`` and
        ``_std_``) and an intercept column appended."""
        X, y = self._validate_xy(X, y)
        if np.isnan(X).any() or np.isnan(y).any():
            raise ValueError("X or y contains NaN; impute missing values before fitting LogisticRegression")
        X, self._mean_, self._std_ = _standardise(X)
        return _add_intercept(X), y

    def _descend(self, X, codes, n_classes: int) -> np.ndarray:
        """Gradient descent from zero coefficients on one design matrix
        ``(n, d)``, or in lockstep on a stack ``(K, n, d)`` of them.

        Each step is ``grad = X.T @ (P - Y) / n + l2 * W; W -= lr * grad``
        with ``loss = -log(clip((P * Y).sum(1), 1e-12)).mean()``, in place:
        the same IEEE operations on the same operands, in the same order.  A
        stacked ``matmul`` gives each slice the bits of the 2-D call and the
        other operations are elementwise or reduce each slice's own rows, so
        a slice follows its 2-D descent exactly.  A stacked problem stops at
        its own iteration: its coefficients leave the stack at that point and
        the others continue on a compacted stack.
        """
        n = X.shape[-2]
        # Flat index of each row's true class: the one-hot row's only 1.0, and
        # also the whole of that row's sum of P * Y.  A stack offsets slice k
        # by k * n * n_classes, so the first K' rows serve any K' live slices.
        true_class = np.arange(n) * n_classes + codes
        Y = np.zeros((n, n_classes), dtype=np.float64)
        Y.ravel()[true_class] = 1.0
        stack = X.shape[:-2]
        if stack:
            true_class = np.arange(stack[0])[:, None] * (n * n_classes) + true_class
            stopped = np.empty(stack + (X.shape[-1], n_classes), dtype=np.float64)
            live = np.arange(stack[0])
        W = np.zeros(stack + (X.shape[-1], n_classes), dtype=np.float64)
        XT = np.swapaxes(X, -1, -2)
        prev_loss = np.inf
        for _ in range(self.n_iter):
            P = _softmax(X @ W)
            true_p = P.take(true_class)
            P -= Y
            grad = XT @ P
            grad /= n
            grad += self.l2 * W
            grad *= self.learning_rate
            W -= grad
            np.maximum(true_p, 1e-12, out=true_p)
            loss = -(np.add.reduce(np.log(true_p, out=true_p), axis=-1) / n)
            converged = abs(prev_loss - loss) < self.tol
            if converged.any():
                if not stack:
                    break
                stopped[live[converged]] = W[converged]
                going = ~converged
                live, X, W, loss = live[going], X[going], W[going], loss[going]
                if not live.size:
                    return stopped
                true_class, XT = true_class[: live.size], np.swapaxes(X, -1, -2)
            prev_loss = loss
        if not stack:
            return W
        stopped[live] = W
        return stopped

    def _set_coef(self, W: np.ndarray) -> None:
        self.coef_ = W
        self.feature_importances_ = np.abs(W[:-1, :]).sum(axis=1)

    def _proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        X = (X - self._mean_) / self._std_
        X = _add_intercept(X)
        return _softmax(X @ self.coef_)

    def predict_proba(self, X) -> np.ndarray:
        """Class probability matrix with one column per class in ``classes_``."""
        return self._proba(X)

    def predict(self, X) -> np.ndarray:
        proba = self._proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class LinearRegression(BaseEstimator):
    """Ordinary least squares regression (solved via ``numpy.linalg.lstsq``)."""

    _estimator_type = "regressor"

    def __init__(self):
        pass

    def fit(self, X, y) -> "LinearRegression":
        X, y = self._validate_xy(X, y)
        X = _add_intercept(X)
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        self.coef_ = coef
        self.feature_importances_ = np.abs(coef[:-1])
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return _add_intercept(X) @ self.coef_


class RidgeRegression(BaseEstimator):
    """L2-regularised linear regression with a closed-form solution.

    Used as the query-template performance predictor: it is trained on the
    one-hot template encodings observed so far and predicts the proxy value of
    unseen templates (Section VI.C.2, Optimisation 2).
    """

    _estimator_type = "regressor"

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha

    def fit(self, X, y) -> "RidgeRegression":
        X, y = self._validate_xy(X, y)
        X = _add_intercept(X)
        n_features = X.shape[1]
        penalty = self.alpha * np.eye(n_features)
        penalty[-1, -1] = 0.0  # do not penalise the intercept
        self.coef_ = np.linalg.solve(X.T @ X + penalty, X.T @ y)
        self.feature_importances_ = np.abs(self.coef_[:-1])
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return _add_intercept(X) @ self.coef_
