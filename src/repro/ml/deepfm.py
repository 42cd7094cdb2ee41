"""DeepFM: factorisation-machine + deep network binary classifier.

The paper evaluates DeepFM (Guo et al., IJCAI 2017) as its deep downstream
model.  This numpy implementation follows the original architecture:

* every input feature becomes a *field*; numeric features are quantile-binned
  so each field is categorical with a bounded vocabulary,
* a first-order term (per-feature-value bias),
* a second-order FM term over the field embeddings,
* a small MLP over the concatenated embeddings,
* the three components are summed and squashed with a sigmoid.

Training uses mini-batch Adam on the logistic loss.  The model is binary-only
(matching the paper, which notes DeepFM "only works for binary classification
tasks").
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.ml._splitter import sorted_quantiles
from repro.ml.base import BaseEstimator


def _quantile_bins(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Per-column quantile bin edges (excluding -inf/+inf)."""
    ordered = np.sort(values[~np.isnan(values)])
    if ordered.size == 0:
        return np.asarray([0.0])
    distinct = np.unique(ordered)
    if distinct.size <= n_bins:
        return distinct
    return np.unique(sorted_quantiles(ordered, np.linspace(0, 1, n_bins + 1)[1:-1]))


class DeepFMClassifier(BaseEstimator):
    """DeepFM binary classifier on dense float input matrices."""

    _estimator_type = "classifier"

    def __init__(
        self,
        embedding_dim: int = 8,
        hidden_units: tuple = (32, 16),
        n_bins: int = 16,
        learning_rate: float = 0.01,
        n_epochs: int = 15,
        batch_size: int = 256,
        l2: float = 1e-5,
        random_state: int | None = 0,
    ):
        self.embedding_dim = embedding_dim
        self.hidden_units = tuple(hidden_units)
        self.n_bins = n_bins
        self.learning_rate = learning_rate
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.random_state = random_state

    # ------------------------------------------------------------------
    # Field encoding: each column is quantile-binned into its own vocabulary
    # ------------------------------------------------------------------
    def _fit_fields(self, X: np.ndarray) -> None:
        self._bin_edges: List[np.ndarray] = []
        self._field_offsets = np.zeros(X.shape[1], dtype=np.int64)
        offset = 0
        for j in range(X.shape[1]):
            edges = _quantile_bins(X[:, j], self.n_bins)
            self._bin_edges.append(edges)
            self._field_offsets[j] = offset
            offset += edges.shape[0] + 2  # +1 for overflow bin, +1 for NaN bucket
        self._vocab_size = offset

    def _encode(self, X: np.ndarray) -> np.ndarray:
        """Map each cell to a global embedding index."""
        n, m = X.shape
        indices = np.zeros((n, m), dtype=np.int64)
        for j in range(m):
            edges = self._bin_edges[j]
            column = X[:, j]
            codes = np.searchsorted(edges, column, side="right")
            codes = np.where(np.isnan(column), edges.shape[0] + 1, codes)
            indices[:, j] = codes + self._field_offsets[j]
        return indices

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, X, y) -> "DeepFMClassifier":
        X, y = self._validate_xy(X, y)
        classes = np.unique(y)
        if classes.shape[0] > 2:
            raise ValueError("DeepFMClassifier supports binary labels only")
        self.classes_ = classes
        positive = classes[-1]
        y_binary = (y == positive).astype(np.float64)
        self._positive_class = positive
        self._negative_class = classes[0]

        self._fit_fields(X)
        indices = self._encode(X)
        rng = np.random.default_rng(self.random_state)
        n_fields = X.shape[1]
        d = self.embedding_dim

        # Parameters.
        self._w0 = 0.0
        self._w = rng.normal(0, 0.01, size=self._vocab_size)
        self._V = rng.normal(0, 0.01, size=(self._vocab_size, d))
        mlp_input = n_fields * d
        self._mlp_weights = []
        self._mlp_biases = []
        previous = mlp_input
        for units in self.hidden_units:
            self._mlp_weights.append(rng.normal(0, np.sqrt(2.0 / previous), size=(previous, units)))
            self._mlp_biases.append(np.zeros(units))
            previous = units
        self._mlp_weights.append(rng.normal(0, np.sqrt(2.0 / previous), size=(previous, 1)))
        self._mlp_biases.append(np.zeros(1))

        params = self._flatten_params()
        adam_m = np.zeros_like(params)
        adam_v = np.zeros_like(params)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        n = X.shape[0]
        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                grads = self._batch_gradients(indices[batch], y_binary[batch])
                step += 1
                adam_m = beta1 * adam_m + (1 - beta1) * grads
                adam_v = beta2 * adam_v + (1 - beta2) * grads**2
                m_hat = adam_m / (1 - beta1**step)
                v_hat = adam_v / (1 - beta2**step)
                params = params - self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
                self._unflatten_params(params)
        return self

    # ------------------------------------------------------------------
    # Parameter (un)flattening for the Adam update
    # ------------------------------------------------------------------
    def _flatten_params(self) -> np.ndarray:
        parts = [np.asarray([self._w0]), self._w.ravel(), self._V.ravel()]
        for W, b in zip(self._mlp_weights, self._mlp_biases):
            parts.append(W.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def _unflatten_params(self, flat: np.ndarray) -> None:
        cursor = 0
        self._w0 = float(flat[cursor])
        cursor += 1
        size = self._w.size
        self._w = flat[cursor : cursor + size].copy()
        cursor += size
        size = self._V.size
        self._V = flat[cursor : cursor + size].reshape(self._V.shape).copy()
        cursor += size
        new_weights, new_biases = [], []
        for W, b in zip(self._mlp_weights, self._mlp_biases):
            size = W.size
            new_weights.append(flat[cursor : cursor + size].reshape(W.shape).copy())
            cursor += size
            size = b.size
            new_biases.append(flat[cursor : cursor + size].copy())
            cursor += size
        self._mlp_weights = new_weights
        self._mlp_biases = new_biases

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def _forward(self, indices: np.ndarray):
        n, n_fields = indices.shape
        d = self.embedding_dim
        emb = self._V[indices]  # (n, fields, d)
        first_order = self._w[indices].sum(axis=1) + self._w0
        sum_emb = emb.sum(axis=1)
        sum_sq = (emb**2).sum(axis=1)
        fm = 0.5 * ((sum_emb**2 - sum_sq).sum(axis=1))
        h = emb.reshape(n, n_fields * d)
        activations = [h]
        for layer, (W, b) in enumerate(zip(self._mlp_weights, self._mlp_biases)):
            z = h @ W + b
            if layer < len(self._mlp_weights) - 1:
                h = np.maximum(z, 0.0)
            else:
                h = z
            activations.append(h)
        deep = h.ravel()
        logits = first_order + fm + deep
        prob = 1.0 / (1.0 + np.exp(-logits))
        return prob, emb, sum_emb, activations

    def _batch_gradients(self, indices: np.ndarray, y: np.ndarray) -> np.ndarray:
        n, n_fields = indices.shape
        d = self.embedding_dim
        prob, emb, sum_emb, activations = self._forward(indices)
        dlogit = (prob - y) / n  # (n,)

        grad_w0 = dlogit.sum()
        grad_w = np.zeros_like(self._w)
        np.add.at(grad_w, indices.ravel(), np.repeat(dlogit, n_fields))
        grad_V = np.zeros_like(self._V)

        # FM term gradient: d fm / d v_i = sum_emb - v_i  (per sample & field)
        fm_grad = dlogit[:, None, None] * (sum_emb[:, None, :] - emb)
        np.add.at(grad_V, indices.ravel(), fm_grad.reshape(-1, d))

        # MLP backward pass.
        grad_mlp_w = [np.zeros_like(W) for W in self._mlp_weights]
        grad_mlp_b = [np.zeros_like(b) for b in self._mlp_biases]
        delta = dlogit[:, None]  # gradient w.r.t. final linear output
        for layer in range(len(self._mlp_weights) - 1, -1, -1):
            a_prev = activations[layer]
            grad_mlp_w[layer] = a_prev.T @ delta + self.l2 * self._mlp_weights[layer]
            grad_mlp_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ self._mlp_weights[layer].T
                delta = delta * (activations[layer] > 0)
        # Gradient into the embedding via the MLP input.
        delta_input = delta @ self._mlp_weights[0].T if len(self._mlp_weights) > 0 else None
        if delta_input is not None:
            np.add.at(grad_V, indices.ravel(), delta_input.reshape(n * n_fields, d))

        grad_w += self.l2 * self._w
        grad_V += self.l2 * self._V

        parts = [np.asarray([grad_w0]), grad_w.ravel(), grad_V.ravel()]
        for gW, gb in zip(grad_mlp_w, grad_mlp_b):
            parts.append(gW.ravel())
            parts.append(gb.ravel())
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        indices = self._encode(X)
        prob, *_ = self._forward(indices)
        return np.column_stack([1 - prob, prob])

    def predict(self, X) -> np.ndarray:
        p = self.predict_proba(X)[:, 1]
        return np.where(p >= 0.5, self._positive_class, self._negative_class)
