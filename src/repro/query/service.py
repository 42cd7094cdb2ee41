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
* **Micro-batch coalescing** -- a single dispatcher thread collects queued
  requests for up to ``coalesce_window_ms`` (or until ``max_batch`` queries
  are waiting) and executes them as **one** fused engine round, so
  concurrent callers share predicate masks, group indexes and sort orders
  exactly as if one caller had batched their queries by hand.
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

Observability: the service books ``service_admitted`` / ``service_rejected``
/ ``service_timeouts`` / ``service_rounds`` / ``service_coalesced`` /
``service_deduped`` counters and the ``service_queue_depth`` /
``service_batch_occupancy`` gauges on the wrapped engine's
:class:`~repro.query.engine.EngineStats`, flowing through ``delta_since`` /
``reset`` under the documented counter-vs-gauge contract.

Configuration: ``ServiceConfig(None)`` fields resolve against
``$REPRO_SERVICE_WINDOW_MS``, ``$REPRO_SERVICE_MAX_BATCH``,
``$REPRO_SERVICE_QUEUE_DEPTH`` and ``$REPRO_SERVICE_TIMEOUT_MS`` at use
time, with malformed values failing eagerly at config resolution
(``ServiceConfig.validate``).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from collections import deque

from repro.query.engine import QueryEngine
from repro.query.plan import QueryPlan
from repro.query.query import PredicateAwareQuery

#: Environment variables the ``ServiceConfig(None)`` fields resolve against.
WINDOW_ENV_VAR = "REPRO_SERVICE_WINDOW_MS"
MAX_BATCH_ENV_VAR = "REPRO_SERVICE_MAX_BATCH"
QUEUE_ENV_VAR = "REPRO_SERVICE_QUEUE_DEPTH"
TIMEOUT_ENV_VAR = "REPRO_SERVICE_TIMEOUT_MS"

#: Default micro-batch coalescing window.  Long enough that submissions from
#: concurrently running callers land in one round, short enough to stay
#: invisible next to a fused round's execution time.
DEFAULT_WINDOW_MS = 2.0

#: Default bound on the queries executed per fused round.
DEFAULT_MAX_BATCH = 64

#: Default bound on the queries waiting in the admission queue.
DEFAULT_QUEUE_DEPTH = 1024


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


def _env_float(name: str, minimum: float, allow_equal: bool) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"${name} must be a number, got {raw!r}") from None
    if value < minimum or (not allow_equal and value == minimum):
        bound = ">=" if allow_equal else ">"
        raise ValueError(f"${name} must be {bound} {minimum:g}, got {raw!r}")
    return value


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"${name} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"${name} must be a positive integer, got {raw!r}")
    return value


def default_window_ms() -> float:
    """``$REPRO_SERVICE_WINDOW_MS`` or 2.0 (0 disables the coalesce wait)."""
    value = _env_float(WINDOW_ENV_VAR, 0.0, allow_equal=True)
    return DEFAULT_WINDOW_MS if value is None else value


def default_max_batch() -> int:
    """``$REPRO_SERVICE_MAX_BATCH`` or 64."""
    value = _env_int(MAX_BATCH_ENV_VAR)
    return DEFAULT_MAX_BATCH if value is None else value


def default_queue_depth() -> int:
    """``$REPRO_SERVICE_QUEUE_DEPTH`` or 1024."""
    value = _env_int(QUEUE_ENV_VAR)
    return DEFAULT_QUEUE_DEPTH if value is None else value


def default_timeout_ms() -> Optional[float]:
    """``$REPRO_SERVICE_TIMEOUT_MS`` or ``None`` (no deadline)."""
    return _env_float(TIMEOUT_ENV_VAR, 0.0, allow_equal=False)


@dataclass(frozen=True)
class ServiceConfig:
    """Construction-time knobs of a :class:`QueryService`.

    Like :class:`~repro.query.engine.EngineConfig`, every ``None`` field
    resolves against its environment variable at use time, and
    :meth:`validate` raises eagerly on malformed explicit *or* environment
    values so a typo surfaces where the service is configured, not at the
    first request.
    """

    #: Micro-batch window in milliseconds: how long the dispatcher waits,
    #: after the first queued request, for more requests to coalesce with.
    #: ``0`` dispatches immediately (coalescing then only merges requests
    #: that queued while a previous round executed).
    coalesce_window_ms: Optional[float] = None
    #: Bound on the queries executed per fused round.  Whole requests are
    #: never split: one request larger than the bound rides a round alone.
    max_batch: Optional[int] = None
    #: Bound on the queries waiting in the admission queue; submissions
    #: that would overflow it raise :class:`ServiceOverloadedError`.
    max_queue: Optional[int] = None
    #: Default per-request deadline in milliseconds (queue wait only);
    #: ``None`` = requests wait indefinitely unless ``submit(timeout_ms=)``
    #: says otherwise.
    request_timeout_ms: Optional[float] = None

    @property
    def window_ms(self) -> float:
        return default_window_ms() if self.coalesce_window_ms is None else float(self.coalesce_window_ms)

    @property
    def batch_limit(self) -> int:
        return default_max_batch() if self.max_batch is None else int(self.max_batch)

    @property
    def queue_limit(self) -> int:
        return default_queue_depth() if self.max_queue is None else int(self.max_queue)

    @property
    def timeout_ms(self) -> Optional[float]:
        if self.request_timeout_ms is None:
            return default_timeout_ms()
        return float(self.request_timeout_ms)

    def validate(self) -> None:
        """Raise ``ValueError`` on malformed knobs, explicit or from the
        environment (the resolution properties re-parse ``$REPRO_SERVICE_*``)."""
        if self.window_ms < 0:
            raise ValueError(
                f"coalesce_window_ms must be >= 0, got {self.coalesce_window_ms!r}"
            )
        if self.batch_limit < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch!r}")
        if self.queue_limit < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue!r}")
        timeout = self.timeout_ms
        if timeout is not None and timeout <= 0:
            raise ValueError(
                f"request_timeout_ms must be > 0 (or None for no deadline), "
                f"got {self.request_timeout_ms!r}"
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

        engine = engine_for(relevant_table, config)
        with QueryService(engine, ServiceConfig(coalesce_window_ms=2)) as service:
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
        self.config.validate()
        self._window_s = self.config.window_ms / 1000.0
        self._max_batch = self.config.batch_limit
        self._max_queue = self.config.queue_limit
        self._default_timeout_ms = self.config.timeout_ms
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
        request; it bounds queue wait, not execution.
        """
        plans = [self.engine.plan(query) for query in queries]
        future: "Future[List[object]]" = Future()
        if not plans:
            future.set_result([])
            return future
        if timeout_ms is None:
            timeout_ms = self._default_timeout_ms
        if timeout_ms is not None and timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {timeout_ms!r}")
        deadline = (
            time.monotonic() + timeout_ms / 1000.0 if timeout_ms is not None else None
        )
        stats = self.engine.stats
        with self._lock:
            if self._closing or self._closed:
                raise ServiceClosedError("QueryService is closed to new submissions")
            if self._depth + len(plans) > self._max_queue:
                stats.bump(service_rejected=len(plans))
                raise ServiceOverloadedError(
                    f"admission queue is full ({self._depth}/{self._max_queue} "
                    f"queries waiting; submission of {len(plans)} rejected)"
                )
            self._queue.append(_Request(plans, future, deadline))
            self._depth += len(plans)
            stats.bump(service_admitted=len(plans))
            stats.set_gauges(service_queue_depth=self._depth)
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
        """Queries currently waiting for a round (also a stats gauge)."""
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
                if self._window_s > 0.0 and not self._closing:
                    # Coalesce: wait for more requests until the window
                    # elapses or a full round's worth of queries is waiting.
                    end = time.monotonic() + self._window_s
                    while self._depth < self._max_batch and not self._closing:
                        remaining = end - time.monotonic()
                        if remaining <= 0.0:
                            break
                        self._not_empty.wait(remaining)
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
            if batch and taken + len(request.plans) > self._max_batch:
                break
            self._queue.popleft()
            batch.append(request)
            taken += len(request.plans)
        self._depth -= taken
        self.engine.stats.set_gauges(service_queue_depth=self._depth)
        return batch

    def _run_round(self, requests: List[_Request]) -> None:
        """Execute one micro-batch round; every future resolves, always."""
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
        stats.set_gauges(service_batch_occupancy=len(plans) / self._max_batch)
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
                self.engine.stats.set_gauges(service_queue_depth=0)
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
