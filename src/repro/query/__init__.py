"""Predicate-aware SQL query layer.

Implements the paper's core abstractions (Section III):

* :class:`QueryTemplate` -- the quadruple ``T = (F, A, P, K)``: the
  aggregation functions (Table II's 15), aggregation attributes, WHERE
  attributes and group-by keys.
* :class:`PredicateAwareQuery` -- one concrete query drawn from a template's
  pool: an equality predicate per categorical WHERE attribute and a closed
  range per numeric / datetime one (Section V.A).
* :class:`QueryPool` -- builds the HPO search space for a template against a
  concrete relevant table and converts points back into executable queries.
* :class:`QueryPlan` -- the frozen logical plan IR (predicate atoms, group-by
  keys, aggregate specs) that :meth:`QueryEngine.plan` lowers queries into.
* :class:`QueryEngine` -- the batched execution engine bound to one relevant
  table: factorized group index, LRU predicate-mask / result caches and a
  batched API with lifetime counters (:class:`EngineStats`).  Construction
  is configured by :class:`EngineConfig` (cache sizes).  Execution is
  serial: each fused plan runs the vectorized grouped kernels on the
  calling thread; an append that adds rows to the table flushes the caches.
* :class:`QueryService` (:mod:`repro.query.service`) -- the admission layer
  over one warm engine: concurrent callers' submissions queue behind a
  bounded admission queue (deterministic :class:`ServiceOverloadedError`
  backpressure); a dispatcher starts a round whenever the engine is free,
  fusing every request queued meanwhile into one round with cross-request
  plan dedup, and resolves per-caller futures with
  results bit-identical to serial execution; per-request deadlines and a
  draining ``close()`` round out the service contract
  (:class:`ServiceConfig`: batch and queue bounds, default deadline).
* :func:`execute_query` / :func:`augment_training_table` -- the relational
  plumbing (filter -> group-by aggregate -> left join onto the training
  table); :func:`execute_query_naive` is the uncached reference
  implementation the equivalence suite checks the engine against.
"""

from repro.query.template import QueryTemplate
from repro.query.query import PredicateAtom, PredicateAwareQuery
from repro.query.pool import QueryPool
from repro.query.plan import AggregateSpec, QueryPlan
from repro.query.engine import (
    EngineConfig,
    EngineStats,
    QueryEngine,
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
)
from repro.query.executor import execute_query, execute_query_naive
from repro.query.augment import augment_training_table, apply_queries

__all__ = [
    "QueryTemplate",
    "PredicateAwareQuery",
    "QueryPool",
    "QueryPlan",
    "PredicateAtom",
    "AggregateSpec",
    "QueryEngine",
    "EngineConfig",
    "EngineStats",
    "engine_for",
    "resolve_engine",
    "QueryService",
    "ServiceConfig",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "DeadlineExpiredError",
    "execute_query",
    "execute_query_naive",
    "augment_training_table",
    "apply_queries",
]
