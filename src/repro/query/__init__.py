"""Predicate-aware SQL query layer.

Implements the paper's core abstractions (Section III):

* :class:`QueryTemplate` -- the quadruple ``T = (F, A, P, K)``.
* :class:`PredicateAwareQuery` -- one concrete query drawn from a template's
  pool, with its vector encoding (Section V.A).
* :class:`QueryPool` -- builds the HPO search space for a template against a
  concrete relevant table and converts points back into executable queries.
* :class:`QueryPlan` -- the frozen logical plan IR (predicate atoms, group-by
  keys, aggregate specs) that :meth:`QueryEngine.plan` lowers queries into.
* :class:`QueryEngine` -- the batched execution engine bound to one relevant
  table: factorized group index, LRU predicate-mask / result caches and a
  batched API with cache statistics (:class:`EngineStats`).  Construction is
  configured by :class:`EngineConfig` (execution backend, cache sizes,
  memory budget, incremental refresh).  Execution is serial: each fused
  plan runs on the engine's one backend instance.
* :class:`ExecutionBackend` / :func:`register_backend` -- the pluggable
  execution layer plans are delegated to: ``"numpy"`` (vectorized grouped
  kernels, the default), ``"python"`` (per-group reference loop) and
  ``"sqlite"`` (generated SQL over an in-memory database) ship built in;
  third-party backends register under their own name.
* :class:`QueryService` (:mod:`repro.query.service`) -- the admission layer
  over one warm engine: concurrent callers' submissions queue behind a
  bounded admission queue (deterministic :class:`ServiceOverloadedError`
  backpressure), coalesce under a micro-batch window into one fused round
  with cross-request plan dedup, and resolve per-caller futures with
  results bit-identical to serial execution; per-request deadlines and a
  draining ``close()`` round out the service contract
  (:class:`ServiceConfig`, ``$REPRO_SERVICE_*``).
* :func:`execute_query` / :func:`augment_training_table` -- the relational
  plumbing (filter -> group-by aggregate -> left join onto the training
  table); :func:`execute_query_naive` is the uncached reference
  implementation the equivalence suite checks every backend against.
"""

from repro.query.template import QueryTemplate, enumerate_attribute_combinations
from repro.query.query import PredicateAwareQuery
from repro.query.pool import QueryPool
from repro.query.plan import AggregateSpec, PredicateAtom, QueryPlan
from repro.query.backends import (
    ExecutionBackend,
    backend_names,
    make_backend,
    register_backend,
)
from repro.query.engine import (
    CacheBudget,
    EngineConfig,
    EngineStats,
    QueryEngine,
    default_backend_name,
    engine_for,
    resolve_engine,
)
from repro.query.service import (
    DeadlineExpiredError,
    QueryService,
    ServiceClosedError,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    default_max_batch,
    default_queue_depth,
    default_timeout_ms,
    default_window_ms,
)
from repro.query.executor import execute_query, execute_query_naive
from repro.query.augment import augment_training_table, apply_queries
from repro.query.multi_table import (
    RelationalSchema,
    Relationship,
    flatten_relevant_tables,
    flatten_to_engine,
)

__all__ = [
    "QueryTemplate",
    "enumerate_attribute_combinations",
    "PredicateAwareQuery",
    "QueryPool",
    "QueryPlan",
    "PredicateAtom",
    "AggregateSpec",
    "ExecutionBackend",
    "register_backend",
    "make_backend",
    "backend_names",
    "QueryEngine",
    "EngineConfig",
    "EngineStats",
    "CacheBudget",
    "default_backend_name",
    "engine_for",
    "resolve_engine",
    "QueryService",
    "ServiceConfig",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "DeadlineExpiredError",
    "default_window_ms",
    "default_max_batch",
    "default_queue_depth",
    "default_timeout_ms",
    "execute_query",
    "execute_query_naive",
    "augment_training_table",
    "apply_queries",
    "RelationalSchema",
    "Relationship",
    "flatten_relevant_tables",
    "flatten_to_engine",
]
