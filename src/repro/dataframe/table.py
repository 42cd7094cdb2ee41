"""The :class:`Table` container: an ordered collection of equally sized columns."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.dataframe.column import Column, DType


class Table:
    """A column-oriented table.

    Tables are lightweight: every operation (filter, take, select, join)
    returns a new ``Table`` whose columns share or copy the underlying numpy
    arrays.  Row order is meaningful and preserved by all operations.
    """

    def __init__(self, columns: Sequence[Column] | Mapping[str, Column] | None = None):
        self._columns: Dict[str, Column] = {}
        self._version = 0
        if columns is None:
            columns = []
        if isinstance(columns, Mapping):
            columns = list(columns.values())
        n_rows = None
        for col in columns:
            if not isinstance(col, Column):
                raise TypeError(f"Table expects Column objects, got {type(col).__name__}")
            if col.name in self._columns:
                raise ValueError(f"Duplicate column name {col.name!r}")
            if n_rows is None:
                n_rows = len(col)
            elif len(col) != n_rows:
                raise ValueError(
                    f"Column {col.name!r} has {len(col)} rows, expected {n_rows}"
                )
            self._columns[col.name] = col

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable], dtypes: Mapping[str, DType | str] | None = None) -> "Table":
        """Build a table from ``{column name: values}``.

        ``dtypes`` optionally forces the dtype of specific columns; all other
        columns have their dtype inferred from the values.
        """
        dtypes = dtypes or {}
        columns = [Column(name, values, dtype=dtypes.get(name)) for name, values in data.items()]
        return cls(columns)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def column_names(self) -> List[str]:
        return list(self._columns.keys())

    @property
    def shape(self) -> tuple:
        return (self.num_rows, self.num_columns)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table(rows={self.num_rows}, columns={self.column_names})"

    def column(self, name: str) -> Column:
        """Return the column called *name* (raises ``KeyError`` if absent)."""
        if name not in self._columns:
            raise KeyError(f"No column named {name!r}; available: {self.column_names}")
        return self._columns[name]

    def schema(self) -> Dict[str, DType]:
        """Mapping of column name to dtype."""
        return {name: col.dtype for name, col in self._columns.items()}

    # ------------------------------------------------------------------
    # Column-wise operations
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "Table":
        """Project onto the given columns, in the given order."""
        return Table([self.column(name) for name in names])

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns according to ``{old: new}``."""
        cols = []
        for name, col in self._columns.items():
            cols.append(col.rename(mapping.get(name, name)))
        return Table(cols)

    # ------------------------------------------------------------------
    # Row-wise operations
    # ------------------------------------------------------------------
    def filter(self, mask) -> "Table":
        """Keep only rows where *mask* (boolean array) is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.num_rows:
            raise ValueError(f"Mask length {mask.shape[0]} != number of rows {self.num_rows}")
        return Table([col.filter(mask) for col in self._columns.values()])

    def take(self, indices) -> "Table":
        """Return rows at the given integer positions (repeats allowed)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Table([col.take(indices) for col in self._columns.values()])

    def head(self, n: int = 5) -> "Table":
        n = min(n, self.num_rows)
        return self.take(np.arange(n))

    def sample(self, n: int, seed: int | None = None, replace: bool = False) -> "Table":
        """Random sample of *n* rows."""
        rng = np.random.default_rng(seed)
        if not replace:
            n = min(n, self.num_rows)
        indices = rng.choice(self.num_rows, size=n, replace=replace)
        return self.take(indices)

    # ------------------------------------------------------------------
    # Joins and concatenation
    # ------------------------------------------------------------------
    def left_join(self, other: "Table", on: Sequence[str] | str, suffix: str = "_right") -> "Table":
        """Left join *other* onto this table on the given key column(s).

        When a key appears several times in *other*, the first matching row
        wins (FeatAug's generated feature tables always have one row per key,
        so this is only a safety net).  Rows without a match get missing
        values in the joined columns.

        Key matching is vectorized: both sides are coded into one shared
        integer code space per key column (missing values -- NaN or ``None``
        -- share a code, so NaN keys join to NaN keys exactly like the
        historical per-row dictionary probe), multi-column keys are combined
        arithmetically, and a first-occurrence index array over the right
        codes replaces the per-row hash lookups.  Categorical keys use their
        dictionary codes; when the sides do not share a dictionary, only the
        smaller dictionary's labels are looked up in the larger one.
        """
        if isinstance(on, str):
            on = [on]
        for key in on:
            if key not in self or key not in other:
                raise KeyError(f"Join key {key!r} must exist in both tables")

        match = _join_match(self, other, on)

        new_columns = list(self._columns.values())
        existing = set(self.column_names)
        for name in other.column_names:
            if name in on:
                continue
            col = other.column(name)
            out_name = name if name not in existing else name + suffix
            new_columns.append(_gather_with_missing(col, match).rename(out_name))
            existing.add(out_name)
        return Table(new_columns)

    def concat_rows(self, other: "Table") -> "Table":
        """Stack another table with the same schema below this one."""
        if self.num_columns == 0:
            return Table([c.copy() for c in other._columns.values()])
        if self.column_names != other.column_names:
            raise ValueError("concat_rows requires identical column names and order")
        for name in self.column_names:
            a, b = self.column(name), other.column(name)
            if a.dtype != b.dtype:
                raise ValueError(f"Column {name!r} dtype mismatch: {a.dtype} vs {b.dtype}")
        return Table([self.column(name).concat(other.column(name)) for name in self.column_names])

    def copy(self) -> "Table":
        return Table([c.copy() for c in self._columns.values()])

    # ------------------------------------------------------------------
    # Append path (versioned, in place)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter bumped by every :meth:`append_rows` call.

        Consumers that cache derived state (group indexes, predicate masks,
        materialized copies) tag their caches with the version they observed
        and refresh when it changes.
        """
        return self._version

    def append_rows(self, rows) -> int:
        """Append rows in place and return the bumped :attr:`version`.

        ``rows`` may be another :class:`Table` with the same schema (column
        order is irrelevant, names and dtypes must match), a mapping of
        ``{column name: values}``, or a sequence of row dictionaries.  Values
        are coerced under the existing schema, so column dtypes are always
        preserved: a coded categorical column publishes an extended copy of
        its dictionary (new labels appear after the existing ones in
        first-appearance order, existing codes never change), numeric
        columns keep float64 storage with missing values as NaN.

        Existing :class:`Column` objects are never mutated -- each column is
        *replaced* by a freshly concatenated one -- so tables created earlier
        via :meth:`select` (which share ``Column`` objects) keep their
        pre-append data.  An empty append still bumps the version.
        """
        if not self._columns:
            raise ValueError("Cannot append rows to a table with no columns")
        incoming = self._coerce_appendable(rows)
        missing = [n for n in self.column_names if n not in incoming._columns]
        if missing:
            raise ValueError(f"append_rows is missing columns: {missing}")
        extra = [n for n in incoming.column_names if n not in self._columns]
        if extra:
            raise ValueError(f"append_rows got unknown columns: {extra}")
        for name in self.column_names:
            a, b = self.column(name), incoming.column(name)
            if a.dtype != b.dtype:
                raise ValueError(f"Column {name!r} dtype mismatch: {a.dtype} vs {b.dtype}")
        replaced = {
            name: self.column(name).concat(incoming.column(name)) for name in self.column_names
        }
        self._columns = replaced
        self._version += 1
        return self._version

    def _coerce_appendable(self, rows) -> "Table":
        """Normalise :meth:`append_rows` input into a Table under this schema."""
        if isinstance(rows, Table):
            return rows
        if isinstance(rows, Mapping):
            return Table.from_dict(dict(rows), dtypes=self.schema())
        rows = list(rows)
        for row in rows:
            if not isinstance(row, Mapping):
                raise TypeError(
                    "append_rows expects a Table, a mapping of columns, or a "
                    f"sequence of row dictionaries; got a row of type {type(row).__name__}"
                )
        data = {name: [row.get(name) for row in rows] for name in self.column_names}
        return Table.from_dict(data, dtypes=self.schema())


def _join_key_codes(left: Column, right: Column) -> tuple:
    """Code one join-key column of each table into one shared code space.

    Returns ``(left_codes, right_codes, n_labels)``: non-negative ``int64``
    codes below ``n_labels``.  All missing values (NaN / ``None``) share the
    last code (NaN keys join to NaN keys).  Two numeric-like keys share the
    sorted distinct values; otherwise a numeric-like side is read as
    categorical float labels and both sides use dictionary codes, with the
    smaller dictionary's labels looked up in the larger one (equal labels of
    different types, like ``1`` and ``1.0``, match).  Labels the larger
    dictionary lacks can match nothing on its side, so they share one code.
    """
    if left.is_numeric_like and right.is_numeric_like:
        codes, n_labels = left.concat(right).key_codes()
        return codes[: len(left)], codes[len(left) :], n_labels
    if left.is_numeric_like:
        left = left.astype(DType.CATEGORICAL)
    if right.is_numeric_like:
        right = right.astype(DType.CATEGORICAL)
    (l_codes, l_dict), (r_codes, r_dict) = left.coding, right.coding
    if len(l_dict) <= len(r_dict):
        l_codes, n_labels = r_dict.translate(l_codes, l_dict), len(r_dict)
    else:
        r_codes, n_labels = l_dict.translate(r_codes, r_dict), len(l_dict)
    # Codes below n_labels are labels, n_labels is "not a label of the larger
    # side" and n_labels + 1 is missing.
    return (
        np.where(l_codes < 0, n_labels + 1, l_codes),
        np.where(r_codes < 0, n_labels + 1, r_codes),
        n_labels + 2,
    )


def _join_match(left: "Table", right: "Table", on: Sequence[str]) -> np.ndarray:
    """Per-left-row position of the first matching right row (-1 = no match)."""
    n_left = left.num_rows
    per_key = [_join_key_codes(left.column(k), right.column(k)) for k in on]
    left_codes, right_codes, n_codes = per_key[0]
    for codes_l, codes_r, n_labels in per_key[1:]:
        # Compact after every merge so the combined ids stay bounded by the
        # total row count and the multiply below can never overflow int64.
        left_codes = left_codes * np.int64(n_labels) + codes_l
        right_codes = right_codes * np.int64(n_labels) + codes_r
        both = np.concatenate([left_codes, right_codes])
        _, inverse = np.unique(both, return_inverse=True)
        left_codes = inverse[:n_left]
        right_codes = inverse[n_left:]
        n_codes = both.shape[0]
    first = np.full(n_codes, -1, dtype=np.int64)
    # Reversed assignment: the earliest right row wins every collision,
    # giving the same first-match-wins semantics as the dict probe.
    first[right_codes[::-1]] = np.arange(right_codes.shape[0] - 1, -1, -1, dtype=np.int64)
    return first[left_codes]


def _gather_with_missing(column: Column, match: np.ndarray) -> Column:
    """``column[match]`` with ``match == -1`` gathering a missing value."""
    valid = match >= 0
    if column.is_numeric_like:
        out = np.full(match.shape[0], np.nan, dtype=np.float64)
        out[valid] = column.values[match[valid]]
        return Column(column.name, out, dtype=column.dtype)
    codes, dictionary = column.coding
    out = np.full(match.shape[0], -1, dtype=np.int64)
    out[valid] = codes[match[valid]]
    return Column.from_codes(column.name, out, dictionary)
