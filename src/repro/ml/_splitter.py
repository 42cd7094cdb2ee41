"""One split search for every tree in :mod:`repro.ml`.

CART (Breiman et al., 1984) and XGBoost's exact greedy split (Chen &
Guestrin, KDD 2016, Alg. 1) as one algorithm: sort a node's rows by each
feature, prefix-sum a per-row statistics matrix and score every candidate
threshold at once.  A criterion (:class:`Gini`, :class:`Newton`,
:class:`Variance`) maps a node's rows to ``(value, parent)``; ``parent`` is
None when the node may not or cannot split, else a tuple led by the rows'
statistics and their total.  Its ``gains`` scores prefix statistics as
``(gain, valid, slack)``: ``slack`` bounds a prefix gain's distance from
``exact_gain``, which sums the left child in row order as the per-threshold
growers did.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

_EPS = np.finfo(np.float64).eps


def check_params(X, **params) -> None:
    """Raise ``ValueError`` on NaN in *X*, a count below 1 or a subsample outside (0, 1]."""
    if np.isnan(X).any():
        raise ValueError("X contains NaN; impute missing values before fitting a tree model")
    for name, value in params.items():
        if name == "subsample" and not 0.0 < value <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {value!r}")
        if name != "subsample" and not (isinstance(value, Integral) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def resolve_max_features(max_features, n_features: int) -> int:
    """How many features a node draws: all, ``"sqrt"``, a fraction or a count."""
    if max_features is None:
        return n_features
    if isinstance(max_features, str) and max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if isinstance(max_features, float) and 0.0 < max_features <= 1.0:
        return max(1, int(max_features * n_features))
    if isinstance(max_features, Integral) and max_features >= 1:
        return min(int(max_features), n_features)
    rule = "None, 'sqrt', a float in (0, 1] or an integer >= 1"
    raise ValueError(f"max_features must be {rule}, got {max_features!r}")


def candidate_thresholds(sorted_values, quantiles, max_midpoints: int):
    """``(F, len(quantiles))`` ascending split points of each sorted row, NaN-padded:
    all midpoints of consecutive distinct values when there are at most
    ``max_midpoints`` of them, else the row's *quantiles* (inner ones, ascending)."""
    thresholds = np.full((sorted_values.shape[0], len(quantiles)), np.nan)
    changes = sorted_values[:, 1:] != sorted_values[:, :-1]
    n_gaps = changes.sum(axis=1)
    f, i = np.nonzero(changes & (n_gaps <= max_midpoints)[:, None])
    rank = np.arange(len(f)) - np.searchsorted(f, f)  # position among the row's gaps
    thresholds[f, rank] = (sorted_values[f, i] + sorted_values[f, i + 1]) / 2.0
    many = n_gaps > max_midpoints
    if many.any():
        # np.quantile's default ("linear") method, term for term, on sorted rows.
        virtual = (sorted_values.shape[1] - 1) * quantiles
        lower = virtual.astype(np.intp)
        weight = virtual - lower
        below, above = sorted_values[many][:, lower], sorted_values[many][:, lower + 1]
        diff = above - below
        quantiles = np.where(weight >= 0.5, above - diff * (1 - weight), below + diff * weight)
        thresholds[many] = np.sort(quantiles, axis=1)
    return thresholds


def left_statistics(sorted_values, sorted_stats, thresholds, total):
    """``n_left (F, T)`` and ``left (F, T, k)`` statistics at the thresholds of sorted
    rows; *total* stands for an all-left prefix, so the right child is then exactly 0."""
    n = sorted_values.shape[1]
    prefix = np.empty((sorted_values.shape[0], n + 1) + sorted_stats.shape[2:])
    prefix[:, 0], prefix[:, n] = 0.0, total
    np.cumsum(sorted_stats[:, :-1], axis=1, out=prefix[:, 1:n])
    n_left = np.array([v.searchsorted(t, "right") for v, t in zip(sorted_values, thresholds)])
    return n_left, prefix[np.arange(len(prefix))[:, None], n_left]


def gini_from_counts(counts) -> np.ndarray:
    """``1 - sum_c p_c^2`` over the last axis of class counts; 0 for no rows.

    Bit-identical to a sum over the present classes only: numpy adds fewer
    than 8 terms left to right, where a zero changes nothing, but 8 or more
    pairwise, so wide rows are packed present-first and summed per length.
    """
    counts = np.asarray(counts, dtype=np.float64)
    flat = counts.reshape(-1, counts.shape[-1])
    total = flat.sum(axis=1, keepdims=True)
    squares = (flat / np.maximum(total, 1.0)) ** 2
    sums = squares.sum(axis=1)
    if flat.shape[1] >= 8:
        squares = np.take_along_axis(squares, np.argsort(flat == 0, axis=1, kind="stable"), axis=1)
        n_present = np.count_nonzero(flat, axis=1)
        for m in np.unique(n_present):
            sums[n_present == m] = squares[n_present == m, :m].sum(axis=1)
    return np.where(total[:, 0] > 0, 1.0 - sums, 0.0).reshape(counts.shape[:-1])


class Gini:
    """Classification: class counts, Gini decrease; exact, so zero slack."""

    floor, per_row = 1e-12, True

    def __init__(self, codes, n_classes: int, min_samples_leaf: int):
        self.codes, self.onehot, self.min_leaf = codes, np.eye(n_classes)[codes], min_samples_leaf

    def node(self, rows, split: bool):
        counts = np.bincount(self.codes[rows], minlength=self.onehot.shape[1]).astype(np.float64)
        impurity = gini_from_counts(counts) if split else 0.0
        split = split and np.count_nonzero(counts) > 1 and impurity != 0
        return counts / counts.sum(), (self.onehot[rows], counts, impurity) if split else None

    def gains(self, parent, n_left, left):
        _, counts, impurity = parent
        n_right = counts.sum() - n_left
        children = gini_from_counts(np.stack([left, counts - left]))
        gain = impurity - (n_left * children[0] + n_right * children[1]) / int(counts.sum())
        return gain, (n_left >= self.min_leaf) & (n_right >= self.min_leaf), 0.0

    def exact_gain(self, parent, go_left, gain):
        return gain


class Newton:
    """Boosting: gradient and hessian sums; a leaf's value is ``-G / (H + reg_lambda)``."""

    per_row = False

    def __init__(self, grad, hess, reg_lambda: float, gamma: float, min_child_weight: float):
        self.stats, self.lam = np.column_stack([grad, hess]), reg_lambda
        self.floor, self.min_weight = gamma, min_child_weight

    def node(self, rows, split: bool):
        stats = self.stats[rows]
        g, h = stats[:, 0].sum(), stats[:, 1].sum()
        parent = (stats, np.array([g, h]), g * g / (h + self.lam), g, h)
        return np.array([float(-g / (h + self.lam))]), parent if split else None

    def gains(self, parent, n_left, left):
        stats, _, score, g, h = parent[:5]
        g_left, h_left, lam = left[..., 0], left[..., 1], self.lam
        term_left, term_right = g_left**2 / (h_left + lam), (g - g_left) ** 2 / (h - h_left + lam)
        valid = (h_left >= self.min_weight) & (h - h_left >= self.min_weight)
        # Worst-case rounding of an n-term sum moves a valid split's gain by at most
        # `bound` (|G_side| <= sum |g|, H_side + lam >= min_child_weight + lam); the
        # prefix and the row-order sum each err, and 4 * bound leaves a factor 2 spare.
        g_abs, low = np.abs(stats[:, 0]).sum(), self.min_weight + lam
        err_g, err_h = len(stats) * _EPS * g_abs, len(stats) * _EPS * h
        bound = ((g_abs + err_g) * 2 * err_g + g_abs**2 / low * err_h) / low if low > 0 else np.inf
        return 0.5 * (term_left + term_right - score), valid, 4 * bound

    def exact_gain(self, parent, go_left, gain):
        stats, _, score, g, h = parent
        h_left, g_left, lam = stats[go_left, 1].sum(), stats[go_left, 0].sum(), self.lam
        if h_left < self.min_weight or h - h_left < self.min_weight:
            return -np.inf
        return 0.5 * (g_left**2 / (h_left + lam) + (g - g_left) ** 2 / (h - h_left + lam) - score)


class Variance(Newton):
    """Regression: the variance decrease, ``2 / n`` times the Newton gain of the
    node's targets centred on their mean, with unit hessians and no ``reg_lambda``."""

    floor, per_row, lam = 1e-12, True, 0.0

    def __init__(self, y, min_samples_leaf: int):
        self.y, self.min_weight = y, min_samples_leaf

    def node(self, rows, split: bool):
        y = self.y[rows]
        value = np.array([y.mean()])
        if not split or np.unique(y).size == 1 or (variance := y.var()) == 0:
            return value, None
        stats = np.column_stack([y - value[0], np.ones(len(y))])
        g = stats[:, 0].sum()
        return value, (stats, np.array([g, len(y)]), g * g / len(y), g, len(y), y, variance)

    def gains(self, parent, n_left, left):
        gain, valid, slack = super().gains(parent, n_left, left)
        n = len(parent[0])
        # The old variance expressions add their own rounding, within n * eps * variance.
        return 2 * gain / n, valid, 2 * slack / n + 8 * n * _EPS * parent[6]

    def exact_gain(self, parent, go_left, gain):
        y, n_left = parent[5], int(go_left.sum())
        n_right = len(y) - n_left
        return parent[6] - (n_left * y[go_left].var() + n_right * y[~go_left].var()) / len(y)


@dataclass(frozen=True)
class Tree:
    """A fitted tree in flat arrays, nodes in preorder; ``feature[i] < 0`` marks a leaf.
    Rows with ``X[:, feature[i]] <= threshold[i]`` go to ``left[i]``, others to
    ``right[i]``.  ``importances`` sums each feature's split gains in preorder."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    importances: np.ndarray

    def predict(self, X) -> np.ndarray:
        """Leaf values of the rows of *X*, moving all rows one level per step."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.flatnonzero(self.feature[node] >= 0)
        while rows.size:
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
            rows = rows[self.feature[node[rows]] >= 0]
        return self.value[node]


def grow(X, criterion, *, max_depth, min_samples_split, max_thresholds, draw_features=None) -> Tree:
    """Grow a tree on *X* depth first, left subtree before right.  A node splits
    below ``max_depth``, from ``min_samples_split`` rows, when the criterion
    allows; over ``draw_features()`` (all features when None) and then the
    thresholds ascending, the first strictly greater gain than ``criterion.floor``
    or the best so far wins."""
    check_params(X, max_depth=max_depth, max_thresholds=max_thresholds)
    XT, quantiles = np.ascontiguousarray(X.T), np.linspace(0, 1, max_thresholds + 2)[1:-1]
    nodes, importances = [], np.zeros(X.shape[1])

    def build(rows, depth):
        value, parent = criterion.node(rows, depth < max_depth and len(rows) >= min_samples_split)
        nodes.append([-1, 0.0, -1, -1, value])
        node = len(nodes) - 1
        if parent is not None:
            features = draw_features() if draw_features else np.arange(X.shape[1])
            best = _best_split(XT, rows, features, criterion, parent, quantiles)
            if best is not None:
                feature, threshold, gain = best
                importances[feature] += gain * len(rows) if criterion.per_row else gain
                go_left = XT[feature, rows] <= threshold
                left, right = build(rows[go_left], depth + 1), build(rows[~go_left], depth + 1)
                nodes[node][:4] = feature, threshold, left, right
        return node

    # Empty children and -inf/+inf features meet in inf and NaN, which never split.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        build(np.arange(X.shape[0]), 0)
    feature, threshold, left, right, value = zip(*nodes)
    return Tree(*map(np.asarray, (feature, threshold, left, right)), np.vstack(value), importances)


def _best_split(XT, rows, features, criterion, parent, quantiles):
    """``(feature, threshold, gain)`` of the best split, or None.  Candidates
    within their slack of the best are re-scored exactly in scan order, so
    features that cut the rows alike tie exactly and the first wins."""
    columns = XT[features[:, None], rows]
    order = np.argsort(columns, axis=1)
    values = columns[np.arange(len(features))[:, None], order]
    thresholds = candidate_thresholds(values, quantiles, len(quantiles))
    n_left, left = left_statistics(values, parent[0][order], thresholds, parent[1])
    gain, valid, slack = criterion.gains(parent, n_left, left)
    valid &= ~np.isnan(thresholds)
    upper, lower = np.where(valid, gain + slack, -np.inf), np.where(valid, gain - slack, -np.inf)
    best, best_gain = None, criterion.floor
    for f, t in zip(*np.nonzero((upper >= lower.max()) & (upper > best_gain))):
        exact = criterion.exact_gain(parent, columns[f] <= thresholds[f, t], gain[f, t])
        if exact > best_gain:
            best, best_gain = (int(features[f]), float(thresholds[f, t]), float(exact)), exact
    return best
