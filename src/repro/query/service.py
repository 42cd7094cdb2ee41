"""Admission-controlled query service: cross-request coalescing into fused batches.

The engine layers below this module execute *one caller's* batch fast: fused
plans, shared mask / group-index / sort-order caches.  Under service
traffic -- many concurrent callers hammering one relevant table -- each caller issuing its own ``execute_batch`` still
forfeits cross-request reuse: two callers asking for the same template's
features pay the masks, sort orders and (for identical queries) the
aggregates twice, and nothing bounds how much work the engine accepts at
once.  :class:`QueryService` is the admission layer that turns the engine
into a shared service:

* **Bounded admission queue** -- :meth:`QueryService.submit` lowers a
  caller's queries to plans and enqueues them with a future.  The queue is
  bounded in *queries* (``ServiceConfig.max_queue``); a submission that
  would overflow it is rejected **deterministically** with
  :class:`ServiceOverloadedError` -- backpressure is an error the caller
  sees, never a silent drop.
* **Natural batching** -- a single dispatcher thread starts a round as soon
  as a request is queued and the previous round has finished, taking every
  whole request queued in the meantime (up to ``max_batch`` queries) into
  **one** fused engine round.  The batch size follows the load: an idle
  service runs each request at once, and concurrent callers whose requests
  queue while a round executes share predicate masks, group indexes and
  sort orders in the next one, exactly as if one caller had batched their
  queries by hand.  The dispatcher never waits on a timer.
* **Cross-request dedup** -- identical plans from different requests (same
  :meth:`~repro.query.plan.QueryPlan.signature`) execute once per round via
  :meth:`QueryEngine.execute_plans_deduped`; duplicates receive the shared
  result table by fan-out.
* **Deadlines** -- a per-request timeout (``timeout_ms``, defaulting to
  ``ServiceConfig.request_timeout_ms``) bounds *queue wait*: a request whose
  deadline passes before its round starts resolves with
  :class:`DeadlineExpiredError` instead of executing stale work.  Once a
  round starts executing, its results are always delivered.
* **Graceful drain** -- :meth:`QueryService.close` stops admission
  (:class:`ServiceClosedError` for later submissions) and, by default,
  drains the queue so every in-flight future resolves with its results;
  ``drain=False`` instead resolves still-queued futures with
  :class:`ServiceClosedError`.  Either way no future is ever left hanging.

Determinism contract: the dispatcher is one thread and the engine rounds are
ordinary ``execute_plans`` calls, so results are **bit-identical** to each
caller running its queries serially on the same engine, at any concurrency
level -- pinned by ``tests/query/test_service.py`` and the acceptance hammer test.

Observability: the service books the ``service_admitted`` /
``service_rejected`` / ``service_timeouts`` / ``service_rounds`` /
``service_coalesced`` / ``service_deduped`` lifetime counters on the wrapped
engine's :class:`~repro.query.engine.EngineStats`; the queries waiting now
are :attr:`QueryService.queue_depth`.

Configuration: :class:`ServiceConfig` holds the three knobs with concrete
defaults (``max_batch=64``, ``max_queue=1024``, no deadline); malformed
values (a non-integer bound, a NaN or non-positive deadline) fail when the
config is constructed.
"""

from __future__ import annotations

import math
import operator
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

from collections import deque

from repro.query.engine import QueryEngine
from repro.query.plan import QueryPlan
from repro.query.query import PredicateAwareQuery


class ServiceError(RuntimeError):
    """Base class of every error the service resolves futures with."""


class ServiceClosedError(ServiceError):
    """Submission after :meth:`QueryService.close`, or a request cancelled
    by a non-draining close."""


class ServiceOverloadedError(ServiceError):
    """Deterministic queue-full backpressure: the submission was rejected
    at admission (nothing was enqueued) and should be retried later."""


class DeadlineExpiredError(ServiceError):
    """The request's deadline passed while it waited in the queue."""


def _timeout_ms(name: str, value) -> float:
    """*value* as a deadline in milliseconds, else ``ValueError`` naming
    *name*.  NaN is rejected: it passes ``<= 0`` but would never expire."""
    try:
        ms = float(value)
    except (TypeError, ValueError):
        ms = math.nan
    if not ms > 0.0:
        raise ValueError(f"{name} must be a number > 0, got {value!r}")
    return ms


def _count(name: str, value) -> int:
    """*value* as an integer >= 1, else ``ValueError`` naming *name* (a
    float such as 2.5 is rejected, not truncated)."""
    try:
        count = operator.index(value)
    except TypeError:
        count = 0
    if count < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return count


@dataclass(frozen=True)
class ServiceConfig:
    """Construction-time knobs of a :class:`QueryService`, validated once
    at construction so a typo surfaces where the service is configured,
    not at the first request."""

    #: Bound on the queries executed per fused round.  Whole requests are
    #: never split: one request larger than the bound rides a round alone.
    max_batch: int = 64
    #: Bound on the queries waiting in the admission queue; submissions
    #: that would overflow it raise :class:`ServiceOverloadedError`.
    max_queue: int = 1024
    #: Default per-request deadline in milliseconds (queue wait only);
    #: ``None`` = requests wait indefinitely unless ``submit(timeout_ms=)``
    #: says otherwise.
    request_timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        # Store the checked values, so an ``np.int64`` bound reads back as
        # a plain ``int``.
        set_field = object.__setattr__
        set_field(self, "max_batch", _count("max_batch", self.max_batch))
        set_field(self, "max_queue", _count("max_queue", self.max_queue))
        if self.request_timeout_ms is not None:
            set_field(
                self,
                "request_timeout_ms",
                _timeout_ms("request_timeout_ms", self.request_timeout_ms),
            )


class _Request:
    """One admitted submission: its plans, future and queue deadline."""

    __slots__ = ("plans", "future", "deadline")

    def __init__(
        self,
        plans: List[QueryPlan],
        future: "Future[List[object]]",
        deadline: Optional[float],
    ):
        self.plans = plans
        self.future = future
        self.deadline = deadline


class QueryService:
    """Admission-controlled facade over one warm :class:`QueryEngine`.

    See the module docstring for the full contract.  Typical use::

        engine = engine_for(relevant_table)
        with QueryService(engine, ServiceConfig(max_batch=64)) as service:
            future = service.submit(queries)          # from any thread
            tables = future.result()                  # list, input order
            # or blocking in one call:
            tables = service.execute(other_queries, timeout_ms=50)

    ``auto_start=False`` skips the dispatcher thread; queued requests then
    only execute through :meth:`run_pending_round` -- the deterministic
    single-step mode the failure-path tests (and embedders that bring their
    own event loop) drive directly.
    """

    def __init__(
        self,
        engine: QueryEngine,
        config: Optional[ServiceConfig] = None,
        auto_start: bool = True,
    ):
        self.engine = engine
        self.config = config or ServiceConfig()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue: Deque[_Request] = deque()
        self._depth = 0  # queries (not requests) currently queued
        self._closing = False
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        if auto_start:
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="repro-query-service", daemon=True
            )
            self._thread.start()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        queries: Sequence[PredicateAwareQuery],
        timeout_ms: Optional[float] = None,
    ) -> "Future[List[object]]":
        """Admit one caller's query batch; returns a future of its tables.

        The future resolves to one result table per query, in input order
        -- bit-identical to ``engine.execute_batch(queries)`` run serially.
        Raises :class:`ServiceClosedError` after :meth:`close` and
        :class:`ServiceOverloadedError` when admitting the batch would
        overflow the queue (nothing is enqueued in either case).
        ``timeout_ms`` overrides the config's default deadline for this
        request; it bounds queue wait, not execution, and must be a number
        > 0 (``ValueError`` otherwise, NaN included, empty batches too).
        """
        if timeout_ms is None:
            timeout_ms = self.config.request_timeout_ms
        else:
            timeout_ms = _timeout_ms("timeout_ms", timeout_ms)
        plans = [self.engine.plan(query) for query in queries]
        future: "Future[List[object]]" = Future()
        if not plans:
            future.set_result([])
            return future
        deadline = (
            time.monotonic() + timeout_ms / 1000.0 if timeout_ms is not None else None
        )
        stats = self.engine.stats
        with self._lock:
            if self._closing or self._closed:
                raise ServiceClosedError("QueryService is closed to new submissions")
            if self._depth + len(plans) > self.config.max_queue:
                stats.bump(service_rejected=len(plans))
                raise ServiceOverloadedError(
                    f"admission queue is full ({self._depth}/{self.config.max_queue} "
                    f"queries waiting; submission of {len(plans)} rejected)"
                )
            self._queue.append(_Request(plans, future, deadline))
            self._depth += len(plans)
            stats.bump(service_admitted=len(plans))
            self._not_empty.notify_all()
        return future

    def execute(
        self,
        queries: Sequence[PredicateAwareQuery],
        timeout_ms: Optional[float] = None,
    ) -> List[object]:
        """Blocking convenience: :meth:`submit` and wait for the results."""
        return self.submit(queries, timeout_ms=timeout_ms).result()

    @property
    def queue_depth(self) -> int:
        """Queries currently waiting for a round."""
        with self._lock:
            return self._depth

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closing:
                    self._not_empty.wait()
                if not self._queue:  # closing and drained
                    return
                # No hold time: whatever queued while the previous round ran
                # forms this round, so the batch size follows the load.
                batch = self._pop_round_locked()
            self._run_round(batch)

    def _pop_round_locked(self) -> List[_Request]:
        """Pop whole requests up to ``max_batch`` queries (caller holds the
        lock).  At least one request is always popped, so one oversized
        request rides a round alone rather than starving."""
        batch: List[_Request] = []
        taken = 0
        while self._queue:
            request = self._queue[0]
            if batch and taken + len(request.plans) > self.config.max_batch:
                break
            self._queue.popleft()
            batch.append(request)
            taken += len(request.plans)
        self._depth -= taken
        return batch

    def _run_round(self, requests: List[_Request]) -> None:
        """Execute one fused round; every future resolves, always."""
        stats = self.engine.stats
        now = time.monotonic()
        live: List[_Request] = []
        for request in requests:
            if request.deadline is not None and now > request.deadline:
                stats.bump(service_timeouts=len(request.plans))
                request.future.set_exception(
                    DeadlineExpiredError(
                        "request deadline expired while queued "
                        f"({len(request.plans)} queries dropped before execution)"
                    )
                )
                continue
            if not request.future.set_running_or_notify_cancel():
                continue  # the caller cancelled the future while it queued
            live.append(request)
        if not live:
            return
        plans = [plan for request in live for plan in request.plans]
        try:
            tables, duplicates = self.engine.execute_plans_deduped(plans)
        except BaseException as exc:  # noqa: BLE001 - resolve, never hang
            for request in live:
                request.future.set_exception(exc)
            return
        stats.bump(
            service_rounds=1,
            service_deduped=duplicates,
            service_coalesced=len(plans) if len(live) > 1 else 0,
        )
        offset = 0
        for request in live:
            n = len(request.plans)
            request.future.set_result(tables[offset : offset + n])
            offset += n

    def run_pending_round(self) -> int:
        """Synchronously execute one round of queued requests (manual mode).

        Returns the number of requests taken off the queue (0 when idle).
        Usable on an ``auto_start=False`` service -- the deterministic
        drive mode -- or alongside the dispatcher thread (the queue is the
        only shared state and both paths pop under the lock).
        """
        with self._lock:
            if not self._queue:
                return 0
            batch = self._pop_round_locked()
        self._run_round(batch)
        return len(batch)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop admission and shut the dispatcher down; idempotent.

        ``drain=True`` (default) lets every already-admitted request
        execute and resolve with its results before the dispatcher exits;
        ``drain=False`` resolves still-queued futures with
        :class:`ServiceClosedError` immediately (a round already executing
        still delivers its results).  Either way every outstanding future
        resolves -- no caller is ever left hanging -- and later
        submissions raise :class:`ServiceClosedError`.  The wrapped engine
        is left open: it outlives the service by design (close it
        separately when the table is done).
        """
        with self._lock:
            if self._closed:
                return
            self._closing = True
            cancelled: List[_Request] = []
            if not drain:
                cancelled = list(self._queue)
                self._queue.clear()
                self._depth = 0
            self._not_empty.notify_all()
        for request in cancelled:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    ServiceClosedError("QueryService closed before the request ran")
                )
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        elif drain:
            # Manual mode: draining close runs the remaining rounds inline.
            while self.run_pending_round():
                pass
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
