"""The admission-controlled query service (:mod:`repro.query.service`).

Covers the full service contract:

* **Config** -- ``ServiceConfig`` defaults, garbage knobs failing at
  construction, and the environment left unread.  Tests whose round bound is not the point run at
  ``max_batch`` 8 and 64 (:data:`ROUND_BOUNDS`), so requests split over
  small rounds as well as sharing the default one.
* **Admission** -- bounded queue with deterministic
  ``ServiceOverloadedError`` backpressure (nothing enqueued on reject),
  ``ServiceClosedError`` after close, empty submissions resolving
  immediately.
* **Coalescing + dedup** -- concurrent requests fuse into one engine round
  and identical plans execute once, proven by the ``service_*`` counters,
  with results **bit-identical** to serial per-caller execution.
* **Failure paths** -- deadline expiry mid-queue, engine errors fanned out
  to every waiting future (never a hang), cancelled futures skipped,
  draining and non-draining ``close()`` with requests in flight.
* **Acceptance hammer** -- 2, 4 and 8 threads through one service in every
  engine state (cold, warm, right after an append; see ``_engine_paths``)
  and cache profile, bit-identical to serial with counters proving
  cross-request fusion fired.

Manual mode (``auto_start=False`` + ``run_pending_round``) makes the
round-formation tests deterministic: requests queue until the test says
"dispatch".  The dispatcher-thread tests hold a round in the engine
(:class:`BlockedRound`) instead, so what queues behind it is decided by the
test, never by thread timing.
"""

import threading
import time
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.query import PredicateAtom, PredicateAwareQuery
from repro.query.service import (
    DeadlineExpiredError,
    QueryService,
    ServiceClosedError,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
)

from _engine_paths import CACHE_PROFILES, ENGINE_STATES, engine_in_state, sibling_queries

#: Numbers of concurrent callers hammering one service.
HAMMER_CALLERS = (2, 4, 8)

#: Round bounds for tests that do not pin one: a small one and the default.
ROUND_BOUNDS = (8, 64)


def make_relevant(seed: int, n: int = 80) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        [
            Column("key", rng.integers(0, 7, size=n).astype(np.float64), dtype=DType.NUMERIC),
            Column(
                "cat",
                [str(v) for v in rng.choice(list("abcd"), size=n)],
                dtype=DType.CATEGORICAL,
            ),
            Column("val", rng.normal(size=n), dtype=DType.NUMERIC),
        ]
    )


def make_batch():
    """Eight queries over three fused plans (shared atoms across plans)."""
    queries = []
    for value in "ab":
        for func in ("SUM", "AVG", "MEDIAN"):
            queries.append(
                PredicateAwareQuery(
                    func, "val", ("key",), (PredicateAtom("eq", "cat", value=value),)
                )
            )
    queries.append(PredicateAwareQuery("COUNT", "val", ("key",)))
    queries.append(PredicateAwareQuery("MODE", "val", ("key",)))
    return queries


def assert_batch_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.column_names == want.column_names
        for name in want.column_names:
            assert got.column(name) == want.column(name)


def make_engine(seed=0, **config_kwargs) -> QueryEngine:
    return QueryEngine(make_relevant(seed), config=EngineConfig(**config_kwargs))


def manual_service(engine, **config_kwargs) -> QueryService:
    return QueryService(engine, ServiceConfig(**config_kwargs), auto_start=False)


def service_delta(stats, baseline):
    return {
        k: v for k, v in stats.delta_since(baseline).items() if k.startswith("service")
    }


class BlockedRound:
    """Holds the first engine round a service runs until :meth:`release`.

    Requests submitted meanwhile queue behind the held round, so the test,
    not thread timing, decides what the dispatcher's next round takes.
    """

    def __init__(self, engine: QueryEngine):
        self.started = threading.Event()
        self._release = threading.Event()
        run = engine.execute_plans_deduped

        def held(plans):
            if not self.started.is_set():
                self.started.set()
                assert self._release.wait(timeout=30), "round never released"
            return run(plans)

        engine.execute_plans_deduped = held

    def wait_started(self) -> None:
        assert self.started.wait(timeout=30), "the dispatcher never ran a round"

    def release(self) -> None:
        self._release.set()


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.max_batch == 64
        assert config.max_queue == 1024
        assert config.request_timeout_ms is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue": -1},
            {"max_batch": 0},
            {"max_batch": 2.5},
            {"max_batch": "8"},
            {"max_queue": 0},
            {"max_queue": 2.5},
            {"request_timeout_ms": 0.0},
            {"request_timeout_ms": -5.0},
            {"request_timeout_ms": float("nan")},
            {"request_timeout_ms": "soon"},
            {"max_queue": np.float64(3.0)},
        ],
    )
    def test_explicit_garbage_raises_naming_the_field(self, kwargs):
        [field] = kwargs
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**kwargs)

    def test_integral_bounds_are_accepted(self):
        config = ServiceConfig(max_batch=np.int64(8), max_queue=16)
        assert config.max_batch == 8 and config.max_queue == 16
        assert type(config.max_batch) is int

    def test_service_validates_config_at_construction(self):
        """No invalid config reaches a service: construction and
        ``dataclasses.replace`` both validate, and the fields are frozen."""
        engine = make_engine()
        with pytest.raises(ValueError, match="max_batch"):
            QueryService(engine, ServiceConfig(max_batch=0), auto_start=False)
        with pytest.raises(ValueError, match="request_timeout_ms"):
            replace(ServiceConfig(), request_timeout_ms=-1.0)
        with pytest.raises(FrozenInstanceError):
            ServiceConfig().max_queue = 0

    @pytest.mark.parametrize(
        "var",
        ["REPRO_SERVICE_MAX_BATCH", "REPRO_SERVICE_QUEUE_DEPTH", "REPRO_SERVICE_TIMEOUT_MS"],
    )
    def test_environment_is_not_read(self, monkeypatch, var):
        """The former ``$REPRO_SERVICE_*`` variables configure nothing:
        garbage in them neither raises nor moves a default."""
        monkeypatch.setenv(var, "0")
        assert ServiceConfig() == ServiceConfig(
            max_batch=64, max_queue=1024, request_timeout_ms=None
        )
        service = manual_service(make_engine())
        future = service.submit(make_batch())
        assert service.run_pending_round() == 1
        assert len(future.result(timeout=5)) == len(make_batch())
        service.close()


# ----------------------------------------------------------------------
# Admission: bounded queue, backpressure, closed service
# ----------------------------------------------------------------------
class TestAdmission:
    @pytest.mark.parametrize("max_batch", ROUND_BOUNDS)
    def test_empty_submission_resolves_immediately(self, max_batch):
        engine = make_engine()
        service = manual_service(engine, max_batch=max_batch)
        future = service.submit([])
        assert future.done() and future.result() == []
        assert engine.stats.service_admitted == 0
        service.close()

    def test_queue_full_rejects_deterministically(self):
        engine = make_engine()
        service = manual_service(engine, max_queue=10, max_batch=64)
        queries = make_batch()  # 8 queries
        baseline = engine.stats.as_dict()
        admitted = service.submit(queries)
        with pytest.raises(ServiceOverloadedError):
            service.submit(queries)  # 8 + 8 > 10
        delta = service_delta(engine.stats, baseline)
        assert delta["service_admitted"] == 8
        assert delta["service_rejected"] == 8
        assert service.queue_depth == 8  # nothing from the reject enqueued
        # A smaller submission still fits: rejection is per-submission
        # backpressure, not a latch.
        fits = service.submit(queries[:2])
        service.run_pending_round()
        assert len(admitted.result(timeout=5)) == 8
        assert len(fits.result(timeout=5)) == 2
        service.close()

    def test_overload_error_is_a_service_error(self):
        assert issubclass(ServiceOverloadedError, ServiceError)
        assert issubclass(ServiceClosedError, ServiceError)
        assert issubclass(DeadlineExpiredError, ServiceError)

    @pytest.mark.parametrize("max_batch", ROUND_BOUNDS)
    def test_submit_after_close_raises(self, max_batch):
        engine = make_engine()
        service = manual_service(engine, max_batch=max_batch)
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosedError):
            service.submit(make_batch())

    @pytest.mark.parametrize("timeout_ms", [0, -1.0, float("nan")])
    @pytest.mark.parametrize("max_batch", ROUND_BOUNDS)
    def test_nonpositive_timeout_rejected_at_submit(self, max_batch, timeout_ms):
        """NaN passes ``<= 0`` but would never expire: rejected like 0."""
        engine = make_engine()
        service = manual_service(engine, max_batch=max_batch)
        with pytest.raises(ValueError, match="timeout_ms"):
            service.submit(make_batch(), timeout_ms=timeout_ms)
        with pytest.raises(ValueError, match="timeout_ms"):
            service.submit([], timeout_ms=timeout_ms)
        assert service.queue_depth == 0
        service.close()

    def test_queue_depth_tracks_admission_and_dispatch(self):
        engine = make_engine()
        service = manual_service(engine, max_batch=64)
        assert service.queue_depth == 0
        service.submit(make_batch())
        assert service.queue_depth == 8
        service.run_pending_round()
        assert service.queue_depth == 0
        service.close()


# ----------------------------------------------------------------------
# Coalescing, dedup and round formation (deterministic manual mode)
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_two_requests_fuse_into_one_round_with_dedup(self):
        engine = make_engine()
        queries = make_batch()
        serial = engine.execute_batch(queries)
        service = manual_service(engine, max_batch=64)
        baseline = engine.stats.as_dict()
        first = service.submit(queries)
        second = service.submit(queries)
        assert service.run_pending_round() == 2
        assert_batch_equal(first.result(timeout=5), serial)
        assert_batch_equal(second.result(timeout=5), serial)
        delta = service_delta(engine.stats, baseline)
        assert delta["service_rounds"] == 1
        assert delta["service_admitted"] == 16
        # Every query of the shared round counts as coalesced...
        assert delta["service_coalesced"] == 16
        # ...and the second request's 8 identical plans were served by
        # fan-out of the first's executions.
        assert delta["service_deduped"] == 8
        service.close()

    def test_single_request_round_is_not_coalesced(self):
        engine = make_engine()
        service = manual_service(engine, max_batch=64)
        baseline = engine.stats.as_dict()
        future = service.submit(make_batch())
        service.run_pending_round()
        future.result(timeout=5)
        delta = service_delta(engine.stats, baseline)
        assert delta["service_rounds"] == 1
        assert delta["service_coalesced"] == 0

    def test_dedup_executes_each_distinct_plan_once(self):
        """The engine-side proof: result misses count distinct plans only."""
        engine = make_engine()
        queries = make_batch()
        service = manual_service(engine, max_batch=64)
        baseline = engine.stats.as_dict()
        futures = [service.submit(queries) for _ in range(3)]
        service.run_pending_round()
        for future in futures:
            future.result(timeout=5)
        delta = engine.stats.delta_since(baseline)
        # 24 admitted queries, but the engine executed (and missed the
        # result cache for) only the 8 distinct ones.
        assert delta["service_deduped"] == 16
        assert delta["result_misses"] == 8
        assert delta["queries"] == 8
        service.close()

    def test_rounds_respect_max_batch_and_never_split_requests(self):
        engine = make_engine()
        service = manual_service(engine, max_batch=10)
        first = service.submit(make_batch())  # 8 queries
        second = service.submit(make_batch()[:4])  # would overflow the round
        third = service.submit(make_batch()[:2])
        assert service.run_pending_round() == 1  # 8; +4 would exceed 10
        assert first.done() and not second.done()
        assert service.run_pending_round() == 2  # 4 + 2 = 6 <= 10
        assert second.done() and third.done()
        service.close()

    def test_oversized_request_rides_a_round_alone(self):
        engine = make_engine()
        service = manual_service(engine, max_batch=4)
        queries = make_batch()  # 8 > max_batch
        future = service.submit(queries)
        assert service.run_pending_round() == 1
        assert len(future.result(timeout=5)) == 8
        assert engine.stats.service_rounds == 1
        service.close()

    @pytest.mark.parametrize("max_batch", ROUND_BOUNDS)
    def test_run_pending_round_on_idle_service_is_a_noop(self, max_batch):
        engine = make_engine()
        service = manual_service(engine, max_batch=max_batch)
        baseline = engine.stats.as_dict()
        assert service.run_pending_round() == 0
        assert service_delta(engine.stats, baseline)["service_rounds"] == 0
        service.close()


# ----------------------------------------------------------------------
# Failure paths: deadlines, engine errors, cancellation, close
# ----------------------------------------------------------------------
class TestFailurePaths:
    def test_deadline_expiry_mid_queue(self):
        engine = make_engine()
        service = manual_service(engine, max_batch=64)
        baseline = engine.stats.as_dict()
        doomed = service.submit(make_batch(), timeout_ms=1)
        alive = service.submit(make_batch()[:2])
        time.sleep(0.02)  # let the doomed request's deadline pass in-queue
        service.run_pending_round()
        with pytest.raises(DeadlineExpiredError):
            doomed.result(timeout=5)
        assert len(alive.result(timeout=5)) == 2  # the live request still ran
        delta = service_delta(engine.stats, baseline)
        assert delta["service_timeouts"] == 8
        service.close()

    @pytest.mark.parametrize("max_batch", ROUND_BOUNDS)
    def test_config_default_timeout_applies_to_every_request(self, max_batch):
        engine = make_engine()
        service = manual_service(engine, request_timeout_ms=1.0, max_batch=max_batch)
        future = service.submit(make_batch())
        time.sleep(0.02)
        service.run_pending_round()
        with pytest.raises(DeadlineExpiredError):
            future.result(timeout=5)
        service.close()

    def test_engine_error_fans_out_to_every_waiting_future(self):
        engine = make_engine()
        service = manual_service(engine, max_batch=64)

        boom = RuntimeError("engine exploded")

        def explode(plans):
            raise boom

        engine.execute_plans_deduped = explode
        first = service.submit(make_batch())
        second = service.submit(make_batch()[:3])
        service.run_pending_round()
        assert first.exception(timeout=5) is boom
        assert second.exception(timeout=5) is boom
        # The service survives an engine error: restore and keep serving.
        del engine.execute_plans_deduped
        healthy = service.submit(make_batch()[:2])
        service.run_pending_round()
        assert len(healthy.result(timeout=5)) == 2
        service.close()

    def test_cancelled_future_is_skipped_not_executed(self):
        engine = make_engine()
        service = manual_service(engine, max_batch=64)
        cancelled = service.submit(make_batch())
        assert cancelled.cancel()
        alive = service.submit(make_batch()[:2])
        baseline = engine.stats.as_dict()
        service.run_pending_round()
        assert len(alive.result(timeout=5)) == 2
        # The cancelled request's 8 queries never reached the engine.
        assert engine.stats.delta_since(baseline)["queries"] == 2
        service.close()

    def test_draining_close_resolves_in_flight_requests(self):
        engine = make_engine()
        queries = make_batch()
        serial = engine.execute_batch(queries)
        service = manual_service(engine, max_batch=4)
        futures = [service.submit(queries) for _ in range(3)]
        service.close()  # drain=True runs the queued rounds inline
        for future in futures:
            assert_batch_equal(future.result(timeout=5), serial)
        assert service.closed
        service.close()  # idempotent

    @pytest.mark.parametrize("max_batch", ROUND_BOUNDS)
    def test_non_draining_close_fails_queued_futures_deterministically(self, max_batch):
        engine = make_engine()
        service = manual_service(engine, max_batch=max_batch)
        futures = [service.submit(make_batch()) for _ in range(3)]
        service.close(drain=False)
        for future in futures:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=5)
        assert service.queue_depth == 0


# ----------------------------------------------------------------------
# Dispatcher thread: natural batching, max_batch, close
# ----------------------------------------------------------------------
class TestDispatcherThread:
    def test_requests_queued_during_a_round_run_together_next(self):
        """Natural batching: the dispatcher starts a round at once, and every
        request that queues while it runs shares the next round."""
        engine = make_engine()
        queries = make_batch()
        serial = engine.execute_batch(queries)
        baseline = engine.stats.as_dict()
        held = BlockedRound(engine)
        n_waiting = 3
        with QueryService(engine, ServiceConfig(max_batch=64)) as service:
            first = service.submit(queries)
            held.wait_started()
            waiting = [service.submit(queries) for _ in range(n_waiting)]
            assert service.queue_depth == n_waiting * 8
            held.release()
            results = [f.result(timeout=30) for f in [first] + waiting]
        for result in results:
            assert_batch_equal(result, serial)
        delta = service_delta(engine.stats, baseline)
        # Round 1: the first request alone; round 2: the three that queued
        # behind it, fused, with two requests' worth served by fan-out.
        assert delta["service_rounds"] == 2
        assert delta["service_admitted"] == (1 + n_waiting) * 8
        assert delta["service_coalesced"] == n_waiting * 8
        assert delta["service_deduped"] == (n_waiting - 1) * 8

    def test_idle_service_runs_a_request_at_once(self):
        engine = make_engine()
        queries = make_batch()
        serial = engine.execute_batch(queries)
        baseline = engine.stats.as_dict()
        with QueryService(engine, ServiceConfig(max_batch=64)) as service:
            assert_batch_equal(service.execute(queries), serial)
            assert_batch_equal(service.execute(queries[:3]), serial[:3])
        delta = service_delta(engine.stats, baseline)
        assert delta["service_rounds"] == 2
        assert delta["service_coalesced"] == 0

    def test_rounds_behind_a_busy_engine_respect_max_batch(self):
        """Requests queued behind a running round form the next rounds up to
        ``max_batch`` queries each, whole requests only."""
        engine = make_engine()
        queries = make_batch()
        serial = engine.execute_batch(queries)
        baseline = engine.stats.as_dict()
        held = BlockedRound(engine)
        with QueryService(engine, ServiceConfig(max_batch=10)) as service:
            first = service.submit(queries)
            held.wait_started()
            waiting = [
                service.submit(queries),  # 8: a round of its own
                service.submit(queries[:1]),  # 8 + 1 <= 10: rides along
                service.submit(queries[:4]),  # 9 + 4 > 10: next round
            ]
            held.release()
            assert_batch_equal(first.result(timeout=30), serial)
            assert_batch_equal(waiting[0].result(timeout=30), serial)
            assert_batch_equal(waiting[1].result(timeout=30), serial[:1])
            assert_batch_equal(waiting[2].result(timeout=30), serial[:4])
        delta = service_delta(engine.stats, baseline)
        assert delta["service_rounds"] == 3
        assert delta["service_coalesced"] == 9

    def test_close_with_dispatcher_drains_by_default(self):
        engine = make_engine()
        queries = make_batch()
        serial = engine.execute_batch(queries)
        held = BlockedRound(engine)
        service = QueryService(engine, ServiceConfig(max_batch=64))
        first = service.submit(queries)
        held.wait_started()
        queued = service.submit(queries[:3])
        closer = threading.Thread(target=service.close)
        closer.start()
        # close() stops admission at once, then waits for the drain.
        deadline = time.monotonic() + 30
        while True:
            try:
                service.submit(queries[:1]).cancel()
            except ServiceClosedError:
                break
            assert time.monotonic() < deadline, "close() never stopped admission"
            time.sleep(0.001)
        assert not queued.done()
        held.release()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert service.closed
        assert_batch_equal(first.result(timeout=5), serial)
        assert_batch_equal(queued.result(timeout=5), serial[:3])

    def test_close_without_drain_rejects_queued_work(self):
        engine = make_engine()
        queries = make_batch()
        serial = engine.execute_batch(queries)
        held = BlockedRound(engine)
        service = QueryService(engine, ServiceConfig(max_batch=64))
        running = service.submit(queries)
        held.wait_started()
        queued = service.submit(queries)
        closer = threading.Thread(target=service.close, kwargs={"drain": False})
        closer.start()
        # The queued request fails before the held round finishes...
        with pytest.raises(ServiceClosedError):
            queued.result(timeout=30)
        held.release()
        closer.join(timeout=30)
        assert not closer.is_alive()
        # ...while the round already executing still delivers its results.
        assert_batch_equal(running.result(timeout=5), serial)


# ----------------------------------------------------------------------
# Stats contract
# ----------------------------------------------------------------------
class TestServiceStats:
    def test_counters_flow_through_delta_since_and_reset(self):
        engine = make_engine()
        service = manual_service(engine, max_batch=64)
        futures = [service.submit(make_batch()) for _ in range(2)]
        service.run_pending_round()
        for future in futures:
            future.result(timeout=5)
        baseline = engine.stats.as_dict()
        assert baseline["service_rounds"] == 1
        # A window that saw no service traffic reports zero deltas.
        delta = engine.stats.delta_since(baseline)
        assert delta["service_rounds"] == 0
        assert delta["service_admitted"] == 0
        engine.stats.reset()
        assert engine.stats.service_admitted == 0
        assert engine.stats.service_rounds == 0
        service.close()


# ----------------------------------------------------------------------
# Acceptance: N concurrent callers, bit-identical to serial, fusion proven
# ----------------------------------------------------------------------
def served_engine(seed: int, state: str, cache: str):
    """The hammered engine in *state*, and the serial reference: the batch
    run by a fresh default engine over the same rows."""
    queries = make_batch()
    engine, table = engine_in_state(
        make_relevant(seed), state, sibling_queries(queries),
        config=EngineConfig(**CACHE_PROFILES[cache]),
    )
    return engine, QueryEngine(table).execute_batch(queries)


@pytest.mark.parametrize("state", ENGINE_STATES)
@pytest.mark.parametrize("cache", CACHE_PROFILES)
@pytest.mark.parametrize("callers", HAMMER_CALLERS)
class TestConcurrentCallersBitIdentity:
    def test_hammer_matches_serial(self, state, cache, callers):
        queries = make_batch()
        engine, serial = served_engine(5, state, cache)
        baseline = engine.stats.as_dict()
        service = manual_service(engine, max_batch=256)
        barrier = threading.Barrier(callers)
        futures = [None] * callers
        errors = []

        def caller(slot):
            try:
                barrier.wait(timeout=10)
                futures[slot] = service.submit(queries)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=caller, args=(slot,))
            for slot in range(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        # Every caller admitted before any round ran: the single drain
        # round is guaranteed to coalesce all of them.
        assert service.queue_depth == callers * len(queries)
        service.close()  # draining close runs the fused round(s)
        for future in futures:
            assert_batch_equal(future.result(timeout=30), serial)
        delta = service_delta(engine.stats, baseline)
        total = callers * len(queries)
        assert delta["service_admitted"] == total
        # Cross-request fusion fired: one shared round, every query
        # coalesced, all but one caller's plans served by fan-out.
        assert delta["service_rounds"] == 1
        assert delta["service_coalesced"] == total
        assert delta["service_deduped"] == (callers - 1) * len(queries)

    def test_live_dispatcher_hammer_matches_serial(self, state, cache, callers):
        """Same states through the real dispatcher thread: callers block on
        ``execute`` concurrently; whatever rounds the load forms, results
        stay bit-identical and every admitted query is accounted for."""
        queries = make_batch()
        engine, serial = served_engine(6, state, cache)
        baseline = engine.stats.as_dict()
        errors = []
        with QueryService(engine, ServiceConfig(max_batch=256)) as service:

            def caller():
                try:
                    for _ in range(2):
                        assert_batch_equal(service.execute(queries), serial)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=caller) for _ in range(callers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors[0]
        delta = service_delta(engine.stats, baseline)
        assert delta["service_admitted"] == callers * 2 * len(queries)
        assert delta["service_rounds"] >= 1
        assert delta["service_timeouts"] == 0
        assert delta["service_rejected"] == 0
