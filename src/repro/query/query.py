"""A concrete predicate-aware SQL query: its WHERE atoms and its SQL rendering."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dataframe.aggregates import normalise_aggregate_name
from repro.dataframe.column import DType
from repro.dataframe.predicates import And, Equals, Predicate, Range


@dataclass(frozen=True)
class PredicateAtom:
    """One conjunct of a WHERE clause (Definition 2).

    ``kind`` is one of:

    * ``"eq"`` -- categorical equality, ``value`` holds the constant;
    * ``"range"`` -- closed numeric / datetime interval, ``low`` / ``high``
      hold the bounds, either may be ``None`` for a one-sided range.

    Any other kind, or a range without bounds, raises ``ValueError``.
    Constants are normalised on construction: numpy scalars collapse to
    their Python equivalents, so ``np.float64(3.0)`` and ``3.0`` (or
    ``np.str_("a")`` and ``"a"``) give the same signature.  Signatures are
    sorted by ``repr`` and key the mask and result caches, and numpy scalar
    reprs differ from Python ones even where the values compare equal.
    """

    kind: str
    attr: str
    value: object = None
    low: Optional[float] = None
    high: Optional[float] = None
    dtype: DType = DType.CATEGORICAL

    def __post_init__(self):
        if self.kind not in ("eq", "range"):
            raise ValueError(f"Unknown predicate atom kind {self.kind!r}")
        if self.kind == "range" and self.low is None and self.high is None:
            raise ValueError(f"Range atom on {self.attr!r} needs at least one bound")
        for name in ("value", "low", "high"):
            constant = getattr(self, name)
            if isinstance(constant, np.generic):
                object.__setattr__(self, name, constant.item())

    def signature(self) -> Optional[tuple]:
        """Hashable identity of the atom (``None`` = uncacheable constants):
        ``("eq", attr, value)`` or ``("range", attr, low, high)``."""
        if self.kind == "eq":
            sig: tuple = ("eq", self.attr, self.value)
        else:
            sig = ("range", self.attr, self.low, self.high)
        try:
            hash(sig)
        except TypeError:
            return None
        return sig

    def to_predicate(self) -> Predicate:
        """The executable numpy predicate for this atom."""
        if self.kind == "eq":
            return Equals(self.attr, self.value)
        return Range(self.attr, low=self.low, high=self.high, dtype=self.dtype)


@dataclass
class PredicateAwareQuery:
    """One query from a query pool (Definition 2).

    ``atoms`` is the WHERE clause: an equality atom per constrained
    categorical attribute and a closed range per constrained numeric or
    datetime attribute, in the template's attribute order
    (:meth:`QueryPool.decode` builds them).
    """

    agg_func: str
    agg_attr: str
    keys: Tuple[str, ...]
    atoms: Tuple[PredicateAtom, ...] = ()
    relation_name: str = "R"
    feature_name: str = "feature"

    # ------------------------------------------------------------------
    def build_predicate(self) -> Predicate:
        """The WHERE predicate (an empty conjunction selects every row)."""
        return And([atom.to_predicate() for atom in self.atoms])

    def to_sql(self) -> str:
        """Render the query as SQL text (for logs, examples and reports).

        The aggregate is spelled canonically; a count of distinct values is
        SQL's ``COUNT(DISTINCT price)``.
        """
        keys = ", ".join(self.keys)
        func = normalise_aggregate_name(self.agg_func)
        call = (
            f"COUNT(DISTINCT {self.agg_attr})"
            if func == "COUNT_DISTINCT"
            else f"{func}({self.agg_attr})"
        )
        sql = (
            f"SELECT {keys}, {call} AS {self.feature_name}\n"
            f"FROM {self.relation_name}\n"
        )
        if self.atoms:
            sql += f"WHERE {self.build_predicate().to_sql()}\n"
        sql += f"GROUP BY {keys}"
        return sql

    def signature(self) -> tuple:
        """Hashable identity of the query (used to deduplicate results).

        The atoms are frozen and compare by value, so queries that compute
        the same SQL are one query, whichever template they came from.
        """
        return (
            self.agg_func,
            self.agg_attr,
            self.keys,
            tuple(sorted(self.atoms, key=lambda atom: atom.attr)),
        )
