"""The benchmark's workloads: inputs made from the seed, the timed loop, checks.

``feataug-lr`` runs whole FeatAug scenarios, exactly what
``repro run --dataset student --method FeatAug --model LR`` does; it is
search-bound.  ``serve-append``
drives the query layer the way a feature-serving deployment would: two
closed-loop callers share one ``QueryService`` while the relevant table
grows between epochs.

Every workload repeats a fixed unit of work -- one scenario run, or one
serving session -- until the measured wall time reaches the requested
seconds, and reports medians over the repetitions.  Times are scaled by
the host speed probe taken on both sides of each timed stretch (see
:mod:`perfbench.probe`): a whole ``feataug-lr`` unit, and the set-up and
each epoch of a ``serve-append`` session.  A traced
invocation runs each unit twice, untraced and then traced, so that the
tracing overhead is measured on the same inputs.  The program only ever sees
the inputs generated here from the seed.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import FeatAugConfig, load_dataset
from repro.dataframe import DType, Table
from repro.experiments import run_method
from repro.query import (
    QueryPool,
    QueryService,
    QueryTemplate,
    engine_for,
    execute_query_naive,
)

from perfbench import layers, probe
from perfbench.stats import percentile
from perfbench.tracing import Tracer

#: Reference held-out AUC of each dataset seed.
REFERENCES_PATH = Path(__file__).with_name("references.json")

#: The dataset seeds a ``feataug-lr`` run visits, in an order set by its seed.
DATASET_SEEDS = tuple(range(32))

#: Scores are compared with the reference at this many decimals.
SCORE_DECIMALS = 6

#: Scale of the student dataset in the pipeline workloads (``repro run``'s
#: default): 250 sessions, about 7,500 relevant rows.
PIPELINE_SCALE = 0.25
PIPELINE_FEATURES = 12

#: Scale of the warm-up scenario run before timing starts, so that lazy
#: imports and first-call costs do not land in the first measured run.
WARMUP_SCALE = 0.05

#: Scale of the table behind the service: 2,000 sessions, 60,000 rows.
SERVE_SCALE = 2.0
SERVE_TEMPLATES: Tuple[Tuple[str, ...], ...] = (
    ("event_type",),
    ("level",),
    ("event_type", "level"),
    ("room", "elapsed_time"),
)
QUERIES_PER_TEMPLATE = 100
#: Zipf exponent of query popularity.  The 400 drawn queries (about 380 of
#: them distinct) overflow the engine's 128-entry result cache, and this
#: skew keeps a hot head that the cache does hold.
ZIPF_EXPONENT = 0.9
CALLERS = 2
QUERIES_PER_REQUEST = 8
ENTITY_ROWS = 64
EPOCHS_PER_SESSION = 4
REQUESTS_PER_CALLER = 32
APPEND_FRACTION = 0.01
CHECKS_PER_EPOCH = 4
#: Requests needed before the 99th latency percentile has ten samples
#: beyond it; a serving run continues until it has this many.
MIN_REQUESTS = 1000

#: A run whose repetitions keep failing stops after this many times the
#: requested seconds, so that it still ends in bounded time.
GIVE_UP_FACTOR = 3

#: A request that fails or is refused counts as slower than any served one.
FAILED_LATENCY_MS = 1e12


@dataclass
class Unit:
    """One repetition of a workload's unit of work."""

    #: Wall times of the unit's set-up and of the unit itself.
    setup_wall_s: float
    run_wall_s: float
    #: The same times as the end-to-end metrics report them: divided by the
    #: host slowdown (:func:`probe.slowdown`) where the workload scales them.
    setup_s: float
    run_s: float


@dataclass
class Outcome:
    """What one benchmark invocation measured."""

    attempted: int = 0
    failed: int = 0
    #: The untraced repetitions, and in a traced run the traced ones.
    units: List[Unit] = field(default_factory=list)
    traced_units: List[Unit] = field(default_factory=list)
    #: Held-out AUC of each pipeline run.
    scores: List[float] = field(default_factory=list)
    #: Request latencies of the untraced serving sessions.
    latencies_ms: List[float] = field(default_factory=list)
    #: Per-layer metrics; filled by traced runs only.
    layers: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    problems: List[str] = field(default_factory=list)

    def measured_s(self) -> float:
        """Wall time of every unit so far, traced or not."""
        return sum(unit.run_wall_s for unit in self.units + self.traced_units)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def fail_with_traceback(self, what: str) -> None:
        self.fail(f"{what}:\n{traceback.format_exc(limit=6)}")


# ----------------------------------------------------------------------
# Pipeline workload
# ----------------------------------------------------------------------
def load_references() -> Dict[int, float]:
    with open(REFERENCES_PATH) as handle:
        return {int(seed): auc for seed, auc in json.load(handle)["auc"].items()}


def pipeline_dataset_seeds(seed: int) -> List[int]:
    """The order in which one run visits the dataset seeds."""
    rng = np.random.default_rng([seed, 0])
    return [int(s) for s in rng.permutation(DATASET_SEEDS)]


def run_scenario(bundle, dataset_seed: int):
    """One ``repro run``: FeatAug with logistic regression, scored on the
    held-out split."""
    return run_method(
        bundle,
        "FeatAug",
        "LR",
        n_features=PIPELINE_FEATURES,
        config=FeatAugConfig(seed=dataset_seed),
        seed=dataset_seed,
    )


class PipelineWorkload:
    """Whole FeatAug scenario runs with logistic regression."""

    def run(self, seed: int, seconds: float, traced: bool) -> Outcome:
        references = load_references()
        order = pipeline_dataset_seeds(seed)
        outcome = Outcome()
        try:
            run_scenario(load_dataset("student", WARMUP_SCALE, order[0]), order[0])
        except Exception:
            outcome.attempted += 1
            outcome.fail_with_traceback(f"warm-up run on dataset seed {order[0]}")
        accumulator = _LayerAccumulator() if traced else None
        give_up = time.perf_counter() + GIVE_UP_FACTOR * seconds
        i = 0
        while outcome.measured_s() < seconds and time.perf_counter() < give_up:
            dataset_seed = order[i % len(order)]
            i += 1
            self._measure(outcome, dataset_seed, references, None)
            if traced:
                self._measure(outcome, dataset_seed, references, accumulator)
        if traced:
            accumulator.finish(outcome)
        return outcome

    def _measure(
        self,
        outcome: Outcome,
        dataset_seed: int,
        references: Dict[int, float],
        accumulator: Optional["_LayerAccumulator"],
    ) -> None:
        """One scenario run, checked and booked in *outcome*."""
        outcome.attempted += 1
        speed_before = probe.sample()
        try:
            setup_s, run_s, score, details = self._scenario(dataset_seed, accumulator)
        except Exception:  # one failed run must not hide the others
            outcome.fail_with_traceback(f"run on dataset seed {dataset_seed}")
            return
        slowdown = probe.slowdown(speed_before, probe.sample())
        unit = Unit(setup_s, run_s, setup_s / slowdown, run_s / slowdown)
        (outcome.units if accumulator is None else outcome.traced_units).append(unit)
        if accumulator is not None:
            accumulator.add_details(details)
        outcome.scores.append(score)
        expected = references[dataset_seed]
        if round(score, SCORE_DECIMALS) != round(expected, SCORE_DECIMALS):
            outcome.fail(
                f"AUC on dataset seed {dataset_seed} is {score!r}, reference {expected!r}"
            )

    @staticmethod
    def _scenario(
        dataset_seed: int, accumulator: Optional["_LayerAccumulator"]
    ) -> Tuple[float, float, float, Dict[str, float]]:
        """Set-up and run times, score and phase times of one scenario.  The
        dataset and the result are released on return, before the probe."""
        start = time.perf_counter()
        bundle = load_dataset("student", PIPELINE_SCALE, dataset_seed)
        setup_s = time.perf_counter() - start
        with _maybe(accumulator):
            start = time.perf_counter()
            result = run_scenario(bundle, dataset_seed)
            run_s = time.perf_counter() - start
        return setup_s, run_s, result.metric, dict(result.details)


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
@dataclass
class Request:
    query_ids: Tuple[int, ...]
    entities: Table


@dataclass
class ServeInputs:
    """Everything one serving session sends to the program."""

    #: ``requests[epoch][caller]``: that caller's requests, in order.
    requests: List[List[List[Request]]]
    #: Rows appended after each epoch.
    appends: List[Table]
    #: ``checks[epoch]``: ``(caller, request, position)`` of the served
    #: feature tables compared with the reference executor.
    checks: List[List[Tuple[int, int, int]]]


def serve_queries(seed: int, table: Table, agg_attrs: Sequence[str], keys: Sequence[str]):
    """The 400 queries the callers draw from, 100 per template."""
    queries = []
    for t, attrs in enumerate(SERVE_TEMPLATES):
        pool = QueryPool(QueryTemplate(None, agg_attrs, attrs, keys), table)
        queries.extend(
            pool.sample_random(seed=seed * len(SERVE_TEMPLATES) + t, n=QUERIES_PER_TEMPLATE)
        )
    return queries


def serve_inputs(
    seed: int, session: int, n_queries: int, table: Table, entity_ids: Sequence
) -> ServeInputs:
    """Requests, appended rows and check picks of one session."""
    rng = np.random.default_rng([seed, 1, session])
    popularity = np.arange(1, n_queries + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    popularity /= popularity.sum()
    by_rank = rng.permutation(n_queries)
    entity_ids = np.asarray(entity_ids, dtype=object)
    requests = []
    for _ in range(EPOCHS_PER_SESSION):
        epoch = []
        for _ in range(CALLERS):
            caller = []
            for _ in range(REQUESTS_PER_CALLER):
                picks = by_rank[rng.choice(n_queries, size=QUERIES_PER_REQUEST, p=popularity)]
                ids = entity_ids[rng.choice(len(entity_ids), size=ENTITY_ROWS, replace=False)]
                entities = Table.from_dict(
                    {"session_id": list(ids)}, dtypes={"session_id": DType.CATEGORICAL}
                )
                caller.append(Request(tuple(int(q) for q in picks), entities))
            epoch.append(caller)
        requests.append(epoch)
    n_rows = table.num_rows
    n_append = max(1, int(round(APPEND_FRACTION * n_rows)))
    schema = table.schema()
    appends = []
    for _ in range(EPOCHS_PER_SESSION):
        # Each column is resampled on its own, so appended rows are new
        # combinations of values the table already holds.
        data = {
            name: table.column(name).values[rng.integers(0, n_rows, size=n_append)]
            for name in table.column_names
        }
        appends.append(Table.from_dict(data, dtypes=schema))
    checks = [
        [
            (
                int(rng.integers(CALLERS)),
                int(rng.integers(REQUESTS_PER_CALLER)),
                int(rng.integers(QUERIES_PER_REQUEST)),
            )
            for _ in range(CHECKS_PER_EPOCH)
        ]
        for _ in range(EPOCHS_PER_SESSION)
    ]
    return ServeInputs(requests, appends, checks)


def same_table(served: Table, reference: Table) -> bool:
    """Column names and values identical: floats bit for bit, with NaN
    positions compared as positions."""
    if served.column_names != reference.column_names:
        return False
    for name in served.column_names:
        a = np.asarray(served.column(name).values)
        b = np.asarray(reference.column(name).values)
        if a.shape != b.shape or a.dtype != b.dtype:
            return False
        if a.dtype.kind == "f":
            nan = np.isnan(a)
            if not np.array_equal(nan, np.isnan(b)):
                return False
            if not np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)):
                return False
        elif a.tolist() != b.tolist():
            return False
    return True


class _Session:
    """Set-up of one serving session: a fresh table behind a fresh service."""

    def __init__(self, seed: int):
        bundle = load_dataset("student", SERVE_SCALE, seed)
        self.table = bundle.relevant
        self.keys = list(bundle.keys)
        self.entity_ids = list(bundle.train.column("session_id").values)
        self.service = QueryService(engine_for(self.table))
        try:
            self.queries = serve_queries(seed, self.table, bundle.agg_attrs, self.keys)
            # Warm-up: one request per template builds the group index and
            # the first masks, which every later request reuses.
            self.service.execute(
                [self.queries[t * QUERIES_PER_TEMPLATE] for t in range(len(SERVE_TEMPLATES))]
            )
        except BaseException:
            self.service.close()
            raise


class ServeWorkload:
    """Closed-loop feature serving over an append-only relevant table."""

    def run(self, seed: int, seconds: float, traced: bool) -> Outcome:
        outcome = Outcome()
        accumulator = _LayerAccumulator() if traced else None
        give_up = time.perf_counter() + GIVE_UP_FACTOR * seconds
        session = 0
        while time.perf_counter() < give_up:
            samples = len(accumulator.waits if traced else outcome.latencies_ms)
            if outcome.measured_s() >= seconds and samples >= MIN_REQUESTS:
                break
            unit = self._session(seed, session, outcome, outcome.latencies_ms, None)
            if unit is None:
                break  # the session could not run; the next one would not either
            outcome.units.append(unit)
            if traced:
                unit = self._session(seed, session, outcome, [], accumulator)
                if unit is None:
                    break
                outcome.traced_units.append(unit)
            session += 1
        if traced:
            accumulator.finish(outcome)
        return outcome

    def _session(
        self,
        seed: int,
        index: int,
        outcome: Outcome,
        latencies: List[float],
        accumulator: Optional["_LayerAccumulator"],
    ) -> Optional[Unit]:
        """One session, or ``None`` when it failed to run to its end."""
        try:
            return self._serve(seed, index, outcome, latencies, accumulator)
        except Exception:
            outcome.attempted += 1
            outcome.fail_with_traceback(f"serving session {index}")
            return None

    def _serve(
        self,
        seed: int,
        index: int,
        outcome: Outcome,
        latencies: List[float],
        accumulator: Optional["_LayerAccumulator"],
    ) -> Unit:
        """Set up, serve every epoch and close.

        The set-up and each epoch are scaled by the probes on their two
        sides, taken while the callers are idle.  A whole session lasts
        several host phases; an epoch lasts about as long as a
        ``feataug-lr`` unit.
        """
        speed = probe.sample()
        start = time.perf_counter()
        state = _Session(seed)
        setup_s = time.perf_counter() - start
        after = probe.sample()
        setup_scaled_s = setup_s / probe.slowdown(speed, after)
        speed = after
        engine = state.service.engine
        try:
            inputs = serve_inputs(seed, index, len(state.queries), state.table, state.entity_ids)
            before = engine.stats.as_dict()
            elapsed = scaled = 0.0
            for epoch in range(EPOCHS_PER_SESSION):
                with _maybe(accumulator):
                    epoch_s = self._epoch(state, inputs, epoch, outcome, latencies)
                after = probe.sample()
                elapsed += epoch_s
                scaled += epoch_s / probe.slowdown(speed, after)
                speed = after
            if accumulator is not None:
                accumulator.add_engine_counts(engine.stats.as_dict(), before)
        finally:
            state.service.close()
        return Unit(setup_s, elapsed, setup_scaled_s, scaled)

    def _epoch(
        self,
        state: _Session,
        inputs: ServeInputs,
        epoch: int,
        outcome: Outcome,
        latencies: List[float],
    ) -> float:
        """Serve one epoch, check a sample, then append; returns the epoch's
        wall time without the checks."""
        served: List[List[Optional[list]]] = [
            [None] * REQUESTS_PER_CALLER for _ in range(CALLERS)
        ]
        lock = threading.Lock()

        def caller(c: int) -> None:
            for j, request in enumerate(inputs.requests[epoch][c]):
                queries = [state.queries[q] for q in request.query_ids]
                begin = time.perf_counter()
                try:
                    tables = state.service.submit(queries).result()
                    for table in tables:
                        request.entities.left_join(table, on=state.keys)
                except Exception:  # a refused request is a failure, not a crash
                    latency_ms = FAILED_LATENCY_MS
                    with lock:
                        outcome.fail_with_traceback(f"request {j} of caller {c}")
                else:
                    latency_ms = (time.perf_counter() - begin) * 1000.0
                    served[c][j] = list(zip(queries, tables))
                with lock:
                    outcome.attempted += 1
                    latencies.append(latency_ms)

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CALLERS) as pool:
            for future in [pool.submit(caller, c) for c in range(CALLERS)]:
                future.result()
        serve_s = time.perf_counter() - start

        for c, j, position in inputs.checks[epoch]:
            outcome.attempted += 1
            if served[c][j] is None:
                outcome.fail(f"checked request {j} of caller {c} was not served")
                continue
            query, table = served[c][j][position]
            if not same_table(table, execute_query_naive(query, state.table)):
                outcome.fail(f"served features differ from the reference for {query.to_sql()}")

        start = time.perf_counter()
        state.table.append_rows(inputs.appends[epoch])
        return serve_s + time.perf_counter() - start


# ----------------------------------------------------------------------
# Per-layer accounting
# ----------------------------------------------------------------------
@contextmanager
def _maybe(accumulator: Optional["_LayerAccumulator"]) -> Iterator[None]:
    if accumulator is None:
        yield
    else:
        with accumulator.tracing():
            yield


class _LayerAccumulator:
    """The tracer's totals and the engines' counters over the traced
    repetitions of one invocation."""

    _ENGINE_SECONDS = {
        "query.mask_s": "seconds_masking",
        "query.index_s": "seconds_indexing",
        "query.group_s": "seconds_grouping",
        "query.sort_s": "seconds_sorting",
        "query.agg_s": "seconds_aggregating",
    }
    _ENGINE_COUNTERS = (
        "batches",
        "queries",
        "mask_hits",
        "mask_misses",
        "result_hits",
        "result_misses",
        "sort_hits",
        "sort_misses",
        "staleness_evictions",
        "service_admitted",
        "service_rounds",
        "service_coalesced",
        "service_deduped",
    ) + tuple(_ENGINE_SECONDS.values())

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.waits: List[float] = []
        self.counts: Dict[str, float] = {name: 0.0 for name in self._ENGINE_COUNTERS}
        self.bytes_cached: List[float] = []
        self.details: Dict[str, float] = {}

    @contextmanager
    def tracing(self) -> Iterator[None]:
        """Wrappers installed for the block; engines created inside it are
        booked when it ends."""
        engines: list = []
        with self.tracer.installed(lambda tracer: layers.install(tracer, engines, self.waits)):
            yield
        for engine in engines:
            self.add_engine_counts(engine.stats.as_dict(), {})

    def add_engine_counts(self, now: Dict[str, float], before: Dict[str, float]) -> None:
        for name in self._ENGINE_COUNTERS:
            self.counts[name] += now[name] - before.get(name, 0)
        self.bytes_cached.append(float(now["bytes_cached"]))

    def add_details(self, details: Dict[str, float]) -> None:
        for key, value in details.items():
            self.details[key] = self.details.get(key, 0.0) + value

    def finish(self, outcome: Outcome) -> None:
        """Set the outcome's per-layer metrics: per traced unit, except rates."""
        outcome.tracer = self.tracer
        t = self.tracer
        c = self.counts
        traced, untraced = outcome.traced_units, outcome.units
        n = max(len(traced), 1)

        def rate(hits: str, misses: str) -> float:
            total = c[hits] + c[misses]
            return c[hits] / total if total else 0.0

        def admitted_share(counter: str) -> float:
            return c[counter] / c["service_admitted"] if c["service_admitted"] else 0.0

        round_total = t.totals.get("service.round")
        out = {
            "hpo.suggest_s": t.self_seconds("hpo.suggest") / n,
            "hpo.suggest_calls": t.calls("hpo.suggest") / n,
            "hpo.observe_s": t.self_seconds("hpo.observe") / n,
            "ml.fit_s": t.self_seconds("ml.fit") / n,
            "ml.fit_calls": t.calls("ml.fit") / n,
            "ml.predict_s": t.self_seconds("ml.predict") / n,
            "core.proxy_s": t.self_seconds("core.proxy") / n,
            "core.proxy_calls": t.calls("core.proxy") / n,
            "core.qti_s": self.details.get("qti_seconds", 0.0) / n,
            "core.warmup_s": self.details.get("warmup_seconds", 0.0) / n,
            "core.generate_s": self.details.get("generate_seconds", 0.0) / n,
            "query.execute_s": t.self_seconds("query.execute") / n,
            "query.batches": c["batches"] / n,
            "query.queries": c["queries"] / n,
            "query.mask_hit_rate": rate("mask_hits", "mask_misses"),
            "query.result_hit_rate": rate("result_hits", "result_misses"),
            "query.sort_hit_rate": rate("sort_hits", "sort_misses"),
            "query.bytes_cached": statistics.fmean(self.bytes_cached) if self.bytes_cached else 0.0,
            "query.staleness_evictions": c["staleness_evictions"] / n,
            "dataframe.join_s": t.self_seconds("dataframe.join") / n,
            "dataframe.join_calls": t.calls("dataframe.join") / n,
            "dataframe.append_s": t.self_seconds("dataframe.append") / n,
            # The dispatcher's busy time: the whole round, engine work included.
            "service.round_s": round_total.inclusive_s / n if round_total else 0.0,
            "service.rounds": c["service_rounds"] / n,
            "service.wait_p50_ms": _ms(percentile(self.waits, 50)),
            "service.wait_p99_ms": _ms(percentile(self.waits, 99)),
            "service.coalesced_frac": admitted_share("service_coalesced"),
            "service.dedup_frac": admitted_share("service_deduped"),
            "trace.covered_frac": (
                t.covered_seconds() / sum(u.run_wall_s for u in traced) if traced else 0.0
            ),
            # The reported times, scaled where the workload scales them, so
            # that a host phase change between the two runs of a unit does
            # not read as tracing overhead.
            "trace.overhead_frac": (
                sum(u.run_s for u in traced) / sum(u.run_s for u in untraced) - 1.0
                if traced and untraced
                else 0.0
            ),
        }
        for metric, counter in self._ENGINE_SECONDS.items():
            out[metric] = c[counter] / n
        outcome.layers = out


def _ms(seconds: Optional[float]) -> float:
    return seconds * 1000.0 if seconds is not None else 0.0


WORKLOADS = {
    "feataug-lr": PipelineWorkload,
    "serve-append": ServeWorkload,
}
