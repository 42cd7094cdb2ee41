"""The :class:`ExecutionBackend` protocol and the backend registry.

An execution backend turns logical :class:`~repro.query.plan.QueryPlan`\\ s
into feature tables.  The :class:`~repro.query.engine.QueryEngine` owns
everything backend-independent -- plan building, result caching, batching,
statistics -- and delegates the actual filter / group / aggregate work to its
backend.  Backends register themselves under a name with
:func:`register_backend`; ``EngineConfig(backend="<name>")`` then selects them
without the engine knowing the concrete class, which is the seam that lets a
backend own its storage entirely (see the SQLite backend) or live in a
third-party package.

Contract (enforced by the backend-parameterized equivalence suite in
``tests/query/test_engine_equivalence.py``):

* results must be **value-equivalent** to
  :func:`repro.query.executor.execute_query_naive` -- same columns, same
  dtypes, same group order (first appearance within the filtered rows), with
  feature values either bit-identical (in-process numpy/python backends) or
  equal within ``1e-9`` (backends that own storage and re-accumulate floats
  in their own order);
* backends must not hold a strong reference to the bound table when an
  engine is supplied (registry engines reference their table weakly so
  dropped tables -- and their caches -- can be garbage-collected);
* :meth:`ExecutionBackend.clear` must drop every piece of derived state so
  ``QueryEngine.clear_caches()`` returns the whole stack to a cold state.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.plan import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.query.engine import QueryEngine


class ExecutionBackend:
    """Executes logical query plans against one bound table.

    Lifecycle: the engine instantiates the backend via :func:`make_backend`,
    calls :meth:`bind` once, then :meth:`run_plan` per fused plan, serially
    (the engine is the only caller).  Subclasses implement :meth:`run_plan`.
    Stats hooks: backends book per-aggregate timings through
    ``self.stats.record_kernel(func, seconds, backend=self.name)`` and
    report empty filter results via ``engine.empty_result`` (which counts
    them); the engine books total wall-clock around :meth:`run_plan` into
    ``EngineStats.backend_seconds``.
    """

    #: Registry name; set by the :func:`register_backend` decorator.
    name: str = ""

    def __init__(self) -> None:
        self._engine: "QueryEngine | None" = None
        self._table: Optional[Table] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, table: Table, engine: "QueryEngine | None" = None) -> None:
        """Bind the backend to *table* (and to the owning *engine*, if any).

        When an engine is supplied the backend reaches the table through it
        (``engine.table`` may be a weak reference) instead of keeping its own
        strong reference.
        """
        self._engine = engine
        self._table = None if engine is not None else table
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclasses; called once after :meth:`bind`."""

    @property
    def table(self) -> Table:
        if self._engine is not None:
            return self._engine.table
        if self._table is None:
            raise RuntimeError(f"Backend {self.name!r} is not bound to a table")
        return self._table

    @property
    def engine(self) -> "QueryEngine":
        if self._engine is None:
            raise RuntimeError(
                f"Backend {self.name!r} needs an owning QueryEngine for shared "
                f"masks / group indexes; bind(table, engine) was not called"
            )
        return self._engine

    @property
    def stats(self):
        return self.engine.stats

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_plan(self, plan: QueryPlan) -> List[Table]:
        """Execute one (possibly fused) plan: one table per aggregate spec."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop all derived state (materialisations, private caches)."""


class GroupIndexBackend(ExecutionBackend):
    """Shared scaffolding for in-process backends that aggregate over the
    engine's factorized group index and predicate masks.

    Subclasses only implement how one attribute's values are prepared and
    aggregated; the plan skeleton (group index, mask, filtered groups,
    unknown-attribute check, empty results, key-column memoisation, output
    assembly and kernel timing) lives here so the numpy and python paths can
    never drift apart -- their bit-identity contract depends on sharing it.
    """

    def run_plan(self, plan: QueryPlan) -> List[Table]:
        engine = self.engine
        index = engine.group_index(plan.keys)
        mask = engine.plan_mask(plan)
        group_ids, codes, n_groups, row_idx = engine.filtered_groups(index, mask)
        # The plan's filtered grouping, shared by every attribute's
        # preparation (the python backend memoises ``group_rows`` into it).
        context = {
            "index": index,
            "codes": codes,
            "n_groups": n_groups,
            "row_idx": row_idx,
        }
        key_columns: Optional[List[Column]] = None
        results: List[Optional[Table]] = [None] * len(plan.aggregates)
        for attr, positioned in plan.specs_by_attr().items():
            engine.table.column(attr)  # KeyError for unknown attributes
            if n_groups == 0:
                for position, spec in positioned:
                    results[position] = engine.empty_result(plan.keys, spec.feature_name)
                continue
            # One shared pass per value column: every spec of this attribute
            # aggregates off the same prepared state (value gather,
            # aggregator / slice construction, shared sort order).  The
            # preparation stays outside the aggregation timer so
            # seconds_aggregating / kernel_seconds measure the aggregation
            # work alone in both in-process backends and never double-count
            # what group_rows books to seconds_grouping (or what the sort
            # cache books to seconds_sorting).
            prepared = self.prepare_attr(plan, attr, context)
            for position, spec in positioned:
                self.before_aggregate(spec, prepared)
                start = time.perf_counter()
                feature = self.aggregate(spec, prepared)
                # Kernel timings key by the base function name (QUANTILE, not
                # QUANTILE:0.25): one stats bucket per kernel family.
                self.stats.record_kernel(
                    spec.func, time.perf_counter() - start, backend=self.name
                )
                if key_columns is None:
                    key_columns = index.key_columns(group_ids)
                results[position] = Table(
                    list(key_columns)
                    + [Column(spec.feature_name, feature, dtype=DType.NUMERIC)]
                )
        return results  # type: ignore[return-value]

    def prepare_attr(self, plan: QueryPlan, attr: str, context: dict):
        """Untimed per-attribute setup; *context* carries the plan's filtered
        grouping (``index``, ``codes``, ``n_groups``, ``row_idx``) and is
        shared across the plan's aggregates for cross-attribute memoisation."""
        raise NotImplementedError

    def before_aggregate(self, spec, prepared) -> None:
        """Untimed per-spec hook, called right before the aggregation timer
        starts with the full :class:`~repro.query.plan.AggregateSpec`.  The
        numpy backend resolves the shared sort order here for sort-based
        kernels, so building it books once (into ``seconds_sorting``)
        instead of hiding inside the first such kernel's ``kernel_seconds``
        entry -- while staying lazy enough that accumulation-only plans
        never sort at all."""

    def aggregate(self, spec, prepared):
        """The timed aggregation step: one float64 value per group.

        Receives the whole :class:`~repro.query.plan.AggregateSpec` so
        parameterized aggregates (``spec.param``) dispatch without string
        re-parsing."""
        raise NotImplementedError


#: Registered backend classes by name.
BACKEND_REGISTRY: Dict[str, type] = {}


def register_backend(name: str) -> Callable[[type], type]:
    """Class decorator registering an :class:`ExecutionBackend` under *name*.

    Third-party backends use exactly the same mechanism as the built-in ones::

        @register_backend("duckdb")
        class DuckDBBackend(ExecutionBackend):
            def run_plan(self, plan): ...
    """

    def decorate(cls: type) -> type:
        if not isinstance(name, str) or not name:
            raise ValueError("Backend name must be a non-empty string")
        existing = BACKEND_REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(f"Backend name {name!r} is already registered to {existing.__name__}")
        cls.name = name
        BACKEND_REGISTRY[name] = cls
        return cls

    return decorate


def backend_names() -> List[str]:
    """Names of all registered backends, in registration order."""
    return list(BACKEND_REGISTRY)


def make_backend(name: str) -> ExecutionBackend:
    """Instantiate the backend registered under *name*."""
    cls = BACKEND_REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"Unknown execution backend {name!r}; registered backends: {backend_names()}"
        )
    return cls()
