"""A concrete predicate-aware SQL query and its SQL rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.dataframe.aggregates import parse_aggregate_name
from repro.dataframe.column import DType, format_datetime
from repro.dataframe.predicates import And, Equals, IsIn, Predicate, Range, Window


@dataclass(frozen=True)
class WindowConstraint:
    """A half-open ``[low, high)`` time-window constraint on a numeric /
    datetime attribute.

    Distinct from the plain ``(low, high)`` tuple so the query model can tell
    a closed range from a half-open window; lowers to an IR atom of kind
    ``"window"`` and a :class:`~repro.dataframe.predicates.Window` predicate.
    """

    low: float
    high: float


def is_membership_constraint(constraint: object) -> bool:
    """True when a categorical constraint is an IN-list rather than an equality."""
    return isinstance(constraint, (list, tuple, set, frozenset))


def canonical_members(values: Sequence) -> tuple:
    """Canonically-sorted, duplicate-free tuple of IN-list members.

    Shared by query signatures and IR atoms so membership identity is order-
    and duplicate-insensitive: ``{"b", "a"}`` and ``["a", "b", "a"]`` cache
    alike.  Falls back to a ``repr`` sort (without dedup) when the members
    are unhashable or mutually unorderable.
    """
    try:
        return tuple(sorted(set(values), key=repr))
    except TypeError:
        return tuple(sorted(values, key=repr))


@dataclass
class PredicateAwareQuery:
    """One query from a query pool (Definition 2).

    ``predicates`` maps a predicate attribute to its concrete constraint:

    * categorical attribute -> the equality value, or a list / tuple / set of
      values for an IN-list membership constraint (or ``None`` for no
      predicate on that attribute),
    * numeric / datetime attribute -> a ``(low, high)`` tuple where either
      bound may be ``None`` (one-sided range) or both may be ``None`` (no
      predicate), or a :class:`WindowConstraint` for a half-open window.
    """

    agg_func: str
    agg_attr: str
    keys: Tuple[str, ...]
    predicates: Dict[str, object] = field(default_factory=dict)
    predicate_dtypes: Dict[str, DType] = field(default_factory=dict)
    relation_name: str = "R"
    feature_name: str = "feature"

    # ------------------------------------------------------------------
    def build_predicate(self) -> Predicate:
        """Combine the per-attribute constraints into one WHERE predicate."""
        parts: List[Predicate] = []
        for attr, constraint in self.predicates.items():
            dtype = self.predicate_dtypes.get(attr, DType.CATEGORICAL)
            if constraint is None:
                continue
            if isinstance(constraint, WindowConstraint):
                # The marker type is unambiguous: honour it even when the
                # attribute's dtype was never declared (the CATEGORICAL
                # default is a fallback, not evidence).
                if dtype is DType.CATEGORICAL:
                    dtype = DType.NUMERIC
                parts.append(Window(attr, constraint.low, constraint.high, dtype=dtype))
            elif dtype is DType.CATEGORICAL:
                if is_membership_constraint(constraint):
                    if not constraint:
                        continue
                    parts.append(IsIn(attr, sorted(constraint, key=repr)))
                else:
                    parts.append(Equals(attr, constraint))
            else:
                low, high = constraint
                if low is None and high is None:
                    continue
                parts.append(Range(attr, low=low, high=high, dtype=dtype))
        return And(parts)

    def has_predicates(self) -> bool:
        """True when at least one attribute carries an actual constraint."""
        for attr, constraint in self.predicates.items():
            dtype = self.predicate_dtypes.get(attr, DType.CATEGORICAL)
            if constraint is None:
                continue
            if dtype is DType.CATEGORICAL:
                if is_membership_constraint(constraint) and not constraint:
                    continue
                return True
            if isinstance(constraint, WindowConstraint):
                return True
            low, high = constraint
            if low is not None or high is not None:
                return True
        return False

    def to_sql(self) -> str:
        """Render the query as SQL text (for logs, examples and reports).

        The aggregate is spelled canonically, with a parameterized family's
        parameter as a second argument: ``QUANTILE(price, 0.25)``; a count of
        distinct values is SQL's ``COUNT(DISTINCT price)``.
        """
        keys = ", ".join(self.keys)
        where = self.build_predicate().to_sql()
        func, param = parse_aggregate_name(self.agg_func)
        args = self.agg_attr if param is None else f"{self.agg_attr}, {param}"
        call = f"COUNT(DISTINCT {args})" if func == "COUNT_DISTINCT" else f"{func}({args})"
        sql = (
            f"SELECT {keys}, {call} AS {self.feature_name}\n"
            f"FROM {self.relation_name}\n"
        )
        if where != "TRUE":
            sql += f"WHERE {where}\n"
        sql += f"GROUP BY {keys}"
        return sql

    def signature(self) -> tuple:
        """Hashable identity of the query (used to deduplicate results)."""
        rendered: List[tuple] = []
        for attr in sorted(self.predicates):
            constraint = self.predicates[attr]
            dtype = self.predicate_dtypes.get(attr, DType.CATEGORICAL)
            if isinstance(constraint, WindowConstraint):
                rendered.append((attr, ("window", constraint.low, constraint.high)))
            elif dtype is DType.CATEGORICAL and is_membership_constraint(constraint):
                # Order- and duplicate-insensitive, matching the IR atom's
                # canonically-sorted tuple.
                rendered.append((attr, ("in",) + canonical_members(constraint)))
            elif isinstance(constraint, tuple):
                rendered.append((attr, tuple(constraint)))
            else:
                rendered.append((attr, constraint))
        return (self.agg_func, self.agg_attr, self.keys, tuple(rendered))

    def describe(self) -> str:
        """Short human-readable description used in result summaries."""
        clauses = []
        for attr, constraint in self.predicates.items():
            dtype = self.predicate_dtypes.get(attr, DType.CATEGORICAL)
            if constraint is None:
                continue
            if isinstance(constraint, WindowConstraint):
                if dtype is DType.DATETIME:
                    low_text = format_datetime(constraint.low)
                    high_text = format_datetime(constraint.high)
                else:
                    low_text = f"{constraint.low:.4g}"
                    high_text = f"{constraint.high:.4g}"
                clauses.append(f"{attr} in [{low_text}, {high_text})")
            elif dtype is DType.CATEGORICAL:
                if is_membership_constraint(constraint):
                    if not constraint:
                        continue
                    members = ", ".join(str(v) for v in canonical_members(constraint))
                    clauses.append(f"{attr} in {{{members}}}")
                else:
                    clauses.append(f"{attr}={constraint}")
            else:
                low, high = constraint
                if low is None and high is None:
                    continue
                if dtype is DType.DATETIME:
                    low_text = format_datetime(low) if low is not None else "-inf"
                    high_text = format_datetime(high) if high is not None else "+inf"
                else:
                    low_text = f"{low:.4g}" if low is not None else "-inf"
                    high_text = f"{high:.4g}" if high is not None else "+inf"
                clauses.append(f"{attr} in [{low_text}, {high_text}]")
        where = " AND ".join(clauses) if clauses else "no predicate"
        return f"{self.agg_func}({self.agg_attr}) | {where}"
