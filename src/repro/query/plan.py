"""The logical query-plan IR the query engine executes.

A :class:`QueryPlan` is the frozen description of one
grouped-aggregation query (or of several queries fused into one plan): a
conjunction of WHERE :class:`~repro.query.query.PredicateAtom`\\ s, the
group-by key columns and one :class:`AggregateSpec` per output feature.
``QueryEngine.plan(query)`` copies a
:class:`~repro.query.query.PredicateAwareQuery`'s atoms into a plan, and
everything downstream of that point -- result caching, batching and plan
execution -- consumes only plans, never queries.  The plan's signatures
key those caches:

* :meth:`QueryPlan.predicate_signature` -- hashable identity of the WHERE
  clause (``None`` when an atom's constants are unhashable, i.e. the plan is
  uncacheable).
* :meth:`QueryPlan.group_key` -- the ``(predicate signature, keys)`` identity
  ``execute_batch`` fuses plans by.
* :meth:`QueryPlan.result_key` -- the per-aggregate result-cache key,
  dtype-aware so an ``Equals`` and a ``Range`` over the same constants can
  never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.dataframe.aggregates import normalise_aggregate_name
from repro.query.query import PredicateAtom, PredicateAwareQuery


@dataclass(frozen=True)
class AggregateSpec:
    """One ``(aggregation function, aggregation attribute)`` output column.

    ``func`` is always the canonical name (``COUNT_DISTINCT``, not
    ``"count distinct"``); construction through :func:`aggregate_spec` or
    :meth:`QueryPlan.from_query` normalises and validates it.
    """

    func: str
    attr: str
    feature_name: str = "feature"


def aggregate_spec(func: str, attr: str, feature_name: str = "feature") -> AggregateSpec:
    """Build an :class:`AggregateSpec`, normalising ``func`` (``"count
    distinct"`` -> ``COUNT_DISTINCT``); raises ``KeyError`` for a function
    outside Table II."""
    return AggregateSpec(normalise_aggregate_name(func), attr, feature_name)


@dataclass(frozen=True)
class QueryPlan:
    """A frozen logical plan: WHERE atoms, group-by keys, aggregate outputs.

    Plans built by :meth:`from_query` carry exactly one aggregate;
    ``execute_batch`` fuses plans sharing a :meth:`group_key` into one
    multi-aggregate plan via :meth:`with_aggregates` so execution pays the
    filter and grouping once per plan.
    """

    atoms: Tuple[PredicateAtom, ...] = ()
    keys: Tuple[str, ...] = ()
    aggregates: Tuple[AggregateSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        signatures = [atom.signature() for atom in self.atoms]
        signature = None if None in signatures else tuple(sorted(signatures, key=repr))
        # Not a field: equality, hashing and replace() see only the fields.
        object.__setattr__(self, "_predicate_signature", signature)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_query(cls, query: PredicateAwareQuery) -> "QueryPlan":
        """Lower one :class:`PredicateAwareQuery` into a single-aggregate plan.

        Raises ``KeyError`` for an unknown aggregation function; unknown
        attributes are only detected at execution time (they depend on the
        bound table).
        """
        return cls(
            atoms=query.atoms,
            keys=tuple(query.keys),
            aggregates=(aggregate_spec(query.agg_func, query.agg_attr, query.feature_name),),
        )

    def with_aggregates(self, aggregates) -> "QueryPlan":
        """Copy of this plan with the aggregate list replaced (plan fusion)."""
        return replace(self, aggregates=tuple(aggregates))

    def specs_by_attr(self) -> Dict[str, List[Tuple[int, AggregateSpec]]]:
        """Aggregate specs grouped per value column, keeping spec positions.

        Returns ``{attr: [(position, spec), ...]}`` in first-appearance
        attribute order.  The engine iterates this to run **one shared
        aggregation pass per value column** of a fused plan: every spec of
        one attribute reuses the same prepared aggregator (and, for the
        order-statistics family, the same sort order), while result tables
        are still assembled in spec-position order.
        """
        grouped: Dict[str, List[Tuple[int, AggregateSpec]]] = {}
        for position, spec in enumerate(self.aggregates):
            grouped.setdefault(spec.attr, []).append((position, spec))
        return grouped

    # ------------------------------------------------------------------
    # Canonical signatures
    # ------------------------------------------------------------------
    def predicate_signature(self) -> Optional[tuple]:
        """Hashable identity of the WHERE clause (``None`` = uncacheable).

        An empty tuple means "no predicate" (every row qualifies).  Sorted by
        ``repr`` so atom order never affects identity.  Computed once, when
        the plan is built: every other signature below derives from it.
        """
        return self._predicate_signature

    def group_key(self) -> Optional[tuple]:
        """The ``(predicate signature, keys)`` identity plans are fused by."""
        signature = self.predicate_signature()
        if signature is None:
            return None
        return (signature, self.keys)

    def sort_key(self, attr: str) -> Optional[tuple]:
        """Sort-order cache key of value column *attr*: ``(predicate
        signature, keys, attr)`` -- the triple that determines the
        (code, value) order the order-statistics kernels share.  ``None``
        when the WHERE clause is uncacheable, like the other signatures.
        """
        signature = self.predicate_signature()
        if signature is None:
            return None
        return (signature, self.keys, attr)

    def mad_sort_key(self, attr: str) -> Optional[tuple]:
        """Sort-order cache key of MAD's deviation order over *attr*: the
        :meth:`sort_key` triple extended with ``"MEDIAN"`` -- MAD sorts
        ``|x - group median|``, a deterministic function of the same
        (filter, grouping, value column), so the deviation order is cached
        per (sort key, MEDIAN) pair right next to the main order.  The
        four-tuple can never collide with a three-tuple ``sort_key``.
        """
        key = self.sort_key(attr)
        if key is None:
            return None
        return key + ("MEDIAN",)

    def result_key(self, position: int = 0) -> Optional[tuple]:
        """Result-cache key of the aggregate at *position* (``None`` = uncacheable)."""
        signature = self.predicate_signature()
        if signature is None:
            return None
        spec = self.aggregates[position]
        return (spec.func, spec.attr, self.keys, signature, spec.feature_name)

    def signature(self) -> Optional[tuple]:
        """Canonical identity of the whole plan (predicate, keys, aggregates)."""
        signature = self.predicate_signature()
        if signature is None:
            return None
        return (signature, self.keys, self.aggregates)
