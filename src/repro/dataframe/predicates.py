"""Predicate objects used in the WHERE clause of generated queries.

The paper distinguishes equality predicates on categorical attributes and
(one- or two-sided) range predicates on numeric / datetime attributes
(Definition 2).  Predicates evaluate to boolean numpy masks against a
:class:`~repro.dataframe.table.Table` and render themselves to SQL text for
display and logging.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataframe.column import DType, format_datetime
from repro.dataframe.table import Table


class Predicate:
    """Base class: a boolean condition over the rows of a table."""

    def mask(self, table: Table) -> np.ndarray:
        """Return a boolean array with one entry per row of *table*."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render the predicate as a SQL text fragment."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.to_sql()})"

    # Combinators -------------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, other])


class Equals(Predicate):
    """``column = value`` equality predicate (categorical attributes)."""

    def __init__(self, column: str, value):
        self.column = column
        self.value = value

    def mask(self, table: Table) -> np.ndarray:
        col = table.column(self.column)
        if col.is_numeric_like:
            return col.values == float(self.value)
        # SQL semantics: NULL never satisfies an equality predicate, and
        # code_of(None) is -1, the missing code, which matches nothing here.
        codes, dictionary = col.coding
        code = dictionary.code_of(self.value)
        if code < 0:
            return np.zeros(codes.shape[0], dtype=bool)
        return codes == code

    def to_sql(self) -> str:
        return f"{self.column} = {_sql_literal(self.value)}"


class Range(Predicate):
    """``low <= column <= high`` range predicate (numeric / datetime).

    Either bound may be ``None`` which yields a one-sided predicate.  Missing
    values in the column never satisfy a range predicate.
    """

    def __init__(self, column: str, low=None, high=None, dtype: DType | str = DType.NUMERIC):
        if low is None and high is None:
            raise ValueError("Range predicate needs at least one bound")
        self.column = column
        self.low = low
        self.high = high
        self.dtype = DType(dtype)

    def mask(self, table: Table) -> np.ndarray:
        col = table.column(self.column)
        if not col.is_numeric_like:
            raise TypeError(f"Range predicate needs a numeric-like column, got {col.dtype.value}")
        values = col.values
        mask = ~np.isnan(values)
        if self.low is not None:
            mask &= values >= float(self.low)
        if self.high is not None:
            mask &= values <= float(self.high)
        return mask

    def to_sql(self) -> str:
        def render(bound):
            if self.dtype is DType.DATETIME:
                return f"'{format_datetime(float(bound))}'"
            return _sql_literal(bound)

        parts = []
        if self.low is not None:
            parts.append(f"{self.column} >= {render(self.low)}")
        if self.high is not None:
            parts.append(f"{self.column} <= {render(self.high)}")
        return " AND ".join(parts)


class And(Predicate):
    """Conjunction of predicates (an empty one selects every row)."""

    def __init__(self, predicates: Sequence[Predicate]):
        self.predicates = list(predicates)

    def mask(self, table: Table) -> np.ndarray:
        mask = np.ones(table.num_rows, dtype=bool)
        for p in self.predicates:
            mask &= p.mask(table)
        return mask

    def to_sql(self) -> str:
        if not self.predicates:
            return "TRUE"
        return " AND ".join(p.to_sql() for p in self.predicates)


def _sql_literal(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float) and float(value).is_integer():
        return str(int(value))
    return str(value)
