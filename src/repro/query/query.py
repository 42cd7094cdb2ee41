"""A concrete predicate-aware SQL query and its SQL rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.dataframe.aggregates import normalise_aggregate_name
from repro.dataframe.column import DType, format_datetime
from repro.dataframe.predicates import And, Equals, Predicate, Range


@dataclass
class PredicateAwareQuery:
    """One query from a query pool (Definition 2).

    ``predicates`` maps a predicate attribute to its concrete constraint:

    * categorical attribute -> the equality value (or ``None`` for no
      predicate on that attribute),
    * numeric / datetime attribute -> a ``(low, high)`` tuple where either
      bound may be ``None`` (one-sided range) or both may be ``None`` (no
      predicate).
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
            if dtype is DType.CATEGORICAL:
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
                return True
            low, high = constraint
            if low is not None or high is not None:
                return True
        return False

    def to_sql(self) -> str:
        """Render the query as SQL text (for logs, examples and reports).

        The aggregate is spelled canonically; a count of distinct values is
        SQL's ``COUNT(DISTINCT price)``.
        """
        keys = ", ".join(self.keys)
        where = self.build_predicate().to_sql()
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
        if where != "TRUE":
            sql += f"WHERE {where}\n"
        sql += f"GROUP BY {keys}"
        return sql

    def signature(self) -> tuple:
        """Hashable identity of the query (used to deduplicate results)."""
        rendered: List[tuple] = []
        for attr in sorted(self.predicates):
            constraint = self.predicates[attr]
            if isinstance(constraint, tuple):
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
            if dtype is DType.CATEGORICAL:
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
