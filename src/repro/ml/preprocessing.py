"""Preprocessing: encoders, imputation, table vectorisation, splits.

The downstream models operate on dense float matrices; :class:`TableVectorizer`
converts a :class:`~repro.dataframe.table.Table` into such a matrix by label-
or one-hot-encoding categoricals and imputing missing numerics with the
training mean (the linear models standardise their own inputs).  This is
the glue between the relational layer and the ML substrate, replacing the
pandas ``get_dummies`` / sklearn pipelines of the original implementation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.dataframe.column import DType
from repro.dataframe.table import Table


class _Missing:
    """The key of every missing label (``None`` or NaN): an object of its
    own, so no real category can share it."""

    def __repr__(self) -> str:
        return "<missing>"

    def __reduce__(self) -> str:  # copies and pickles stay the one key
        return "_MISSING"


_MISSING = _Missing()


class LabelEncoder:
    """Map arbitrary hashable labels to contiguous integer codes."""

    def __init__(self):
        self.classes_: List = []
        self._lookup: Dict = {}

    def fit(self, values) -> "LabelEncoder":
        self.classes_ = []
        self._lookup = {}
        for v in values:
            key = self._key(v)
            if key not in self._lookup:
                self._lookup[key] = len(self.classes_)
                self.classes_.append(key)
        return self

    def transform(self, values) -> np.ndarray:
        return np.asarray([self._lookup.get(self._key(v), -1) for v in values], dtype=np.float64)

    def fit_transform(self, values) -> np.ndarray:
        return self.fit(values).transform(values)

    @staticmethod
    def _key(value):
        if value is None or (isinstance(value, float) and np.isnan(value)):
            return _MISSING
        return value


class OneHotEncoder:
    """One-hot encode a single categorical column, with an unknown bucket."""

    def __init__(self, max_categories: int = 50):
        self.max_categories = max_categories
        self.categories_: List = []

    def fit(self, values) -> "OneHotEncoder":
        counts: Dict = {}
        for v in values:
            key = LabelEncoder._key(v)
            counts[key] = counts.get(key, 0) + 1
        ordered = sorted(counts, key=lambda k: -counts[k])
        self.categories_ = ordered[: self.max_categories]
        return self

    def transform(self, values) -> np.ndarray:
        index = {c: i for i, c in enumerate(self.categories_)}
        out = np.zeros((len(values), len(self.categories_)), dtype=np.float64)
        for row, v in enumerate(values):
            col = index.get(LabelEncoder._key(v))
            if col is not None:
                out[row, col] = 1.0
        return out

    def fit_transform(self, values) -> np.ndarray:
        return self.fit(values).transform(values)


class SimpleImputer:
    """Replace NaNs with the column mean (``fill_value`` for a column
    without a single value)."""

    def __init__(self, fill_value: float = 0.0):
        self.fill_value = fill_value
        self.statistics_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "SimpleImputer":
        X = np.asarray(X, dtype=np.float64)
        # Columns without a value (or a table without rows) are zero-filled
        # before the reduction: np.nanmean warns on an all-NaN slice through
        # ``warnings.warn``, which ``np.errstate`` cannot silence.
        empty = np.isnan(X).all(axis=0)
        statistics = np.full(X.shape[1], np.nan)
        if not empty.all():
            if empty.any():
                X = X.copy()
                X[:, empty] = 0.0
            with np.errstate(all="ignore"):
                statistics = np.nanmean(X, axis=0)
            statistics[empty] = np.nan
        self.statistics_ = np.nan_to_num(statistics, nan=self.fill_value)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64).copy()
        for j in range(X.shape[1]):
            nan_mask = np.isnan(X[:, j])
            if nan_mask.any():
                X[nan_mask, j] = self.statistics_[j]
        return X

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


def mean_impute(X_train: np.ndarray, *others: np.ndarray) -> List[np.ndarray]:
    """Float copies of *X_train* and *others* with every NaN replaced by the
    mean of the non-NaN training values of its column (0.0 for a column
    without any).  The mean is ``ndarray.mean`` over those values, not
    ``np.nanmean``, whose summation order differs.  A column's mean is
    computed only when some matrix holds a NaN in it."""
    matrices = [np.array(X, dtype=np.float64) for X in (X_train, *others)]
    missing = [np.isnan(X) for X in matrices]
    holed = np.logical_or.reduce([mask.any(axis=0) for mask in missing])
    for j in np.flatnonzero(holed):
        finite = matrices[0][~missing[0][:, j], j]
        fill = float(finite.mean()) if finite.size else 0.0
        for X, mask in zip(matrices, missing):
            X[mask[:, j], j] = fill
    return matrices


class TableVectorizer:
    """Convert :class:`Table` columns into a dense float design matrix.

    Numeric / datetime / boolean columns are used directly (datetime as epoch
    seconds); categorical columns are one-hot encoded when they have few
    distinct values and label-encoded otherwise.  Missing values are imputed
    with the training mean.  The vectoriser is fitted once on training data
    and re-applied to validation / test tables so the feature layout is
    consistent.
    """

    def __init__(self, feature_columns: Sequence[str], one_hot_max_cardinality: int = 10):
        self.feature_columns = list(feature_columns)
        self.one_hot_max_cardinality = one_hot_max_cardinality
        self._encoders: Dict[str, object] = {}
        self._kind: Dict[str, str] = {}
        self._imputer = SimpleImputer()
        self.output_names_: List[str] = []
        self.fitted_ = False

    def fit(self, table: Table) -> "TableVectorizer":
        self._encoders.clear()
        self._kind.clear()
        self.output_names_ = []
        blocks = []
        for name in self.feature_columns:
            column = table.column(name)
            if column.dtype is DType.CATEGORICAL:
                cardinality = len(column.unique())
                if cardinality <= self.one_hot_max_cardinality:
                    encoder = OneHotEncoder(max_categories=self.one_hot_max_cardinality)
                    block = encoder.fit_transform(column.values)
                    self._encoders[name] = encoder
                    self._kind[name] = "onehot"
                    self.output_names_.extend(f"{name}={c}" for c in encoder.categories_)
                else:
                    encoder = LabelEncoder()
                    block = encoder.fit_transform(column.values).reshape(-1, 1)
                    self._encoders[name] = encoder
                    self._kind[name] = "label"
                    self.output_names_.append(name)
            else:
                block = column.values.reshape(-1, 1)
                self._kind[name] = "numeric"
                self.output_names_.append(name)
            blocks.append(block)
        X = np.hstack(blocks) if blocks else np.zeros((table.num_rows, 0))
        self._imputer.fit(X)
        self.fitted_ = True
        return self

    def transform(self, table: Table) -> np.ndarray:
        if not self.fitted_:
            raise RuntimeError("TableVectorizer.transform called before fit")
        blocks = []
        for name in self.feature_columns:
            column = table.column(name)
            kind = self._kind[name]
            if kind == "onehot":
                blocks.append(self._encoders[name].transform(column.values))
            elif kind == "label":
                blocks.append(self._encoders[name].transform(column.values).reshape(-1, 1))
            else:
                blocks.append(column.values.reshape(-1, 1))
        X = np.hstack(blocks) if blocks else np.zeros((table.num_rows, 0))
        return self._imputer.transform(X)

    def fit_transform(self, table: Table) -> np.ndarray:
        return self.fit(table).transform(table)


def train_valid_test_split(
    table: Table,
    ratios: Tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
    shuffle: bool = True,
) -> Tuple[Table, Table, Table]:
    """Split a table into train / validation / test partitions by row.

    The paper uses a 0.6 / 0.2 / 0.2 split for every dataset (Section
    VII.A.6).
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"Split ratios must sum to 1, got {ratios}")
    n = table.num_rows
    indices = np.arange(n)
    if shuffle:
        rng = np.random.default_rng(seed)
        rng.shuffle(indices)
    n_train = int(round(ratios[0] * n))
    n_valid = int(round(ratios[1] * n))
    train_idx = indices[:n_train]
    valid_idx = indices[n_train : n_train + n_valid]
    test_idx = indices[n_train + n_valid :]
    return table.take(train_idx), table.take(valid_idx), table.take(test_idx)

