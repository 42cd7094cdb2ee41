"""The FeatAug facade: the end-to-end workflow of Figure 2.

``FeatAug.augment`` takes the training table, the relevant table and either an
explicit query template (the WHERE-clause attributes) or a set of candidate
attributes.  It then:

1. splits the training table into a fit/validation pair used to score
   candidate features,
2. (optionally) runs Query Template Identification to pick the ``n_templates``
   most promising WHERE-clause attribute combinations,
3. runs the SQL Query Generation component on every selected template to
   produce ``queries_per_template`` queries each,
4. materialises every generated feature onto the *full* training table and
   returns a :class:`FeatAugResult` that can also re-apply the same queries to
   held-out tables (validation / test).

Steps 2 and 3 share one pool of forked worker processes
(:class:`_WorkerPool`): its processes claim the scorings of each beam layer
and then the template searches one at a time, with the results of a serial
run.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Dict, List, Sequence, Tuple

from repro.core.config import FeatAugConfig
from repro.core.evaluation import ModelEvaluator
from repro.core.proxies import make_proxy
from repro.core.sql_generation import GeneratedQuery, GenerationReport, SQLQueryGenerator
from repro.core.template_identification import QueryTemplateIdentifier, TemplateScore
from repro.dataframe.table import Table
from repro.ml.base import BaseEstimator
from repro.ml.model_zoo import make_model
from repro.ml.preprocessing import train_valid_test_split
from repro.query.augment import apply_queries, generated_feature_names
from repro.query.engine import EngineStats, engine_for
from repro.query.template import QueryTemplate

#: Fraction of the provided training table held out as the validation split
#: the search scores on (the paper's D_valid).
VALIDATION_FRACTION = 0.25


@dataclass
class FeatAugResult:
    """Everything produced by one :meth:`FeatAug.augment` call."""

    queries: List[GeneratedQuery]
    templates: List[TemplateScore]
    augmented_table: Table
    feature_names: List[str]
    relevant_table: Table
    feature_prefix: str = "feataug"
    #: Wall time of template identification, whose beam layers are scored
    #: in parallel processes.
    qti_seconds: float = 0.0
    #: Sums over the templates of each search's warm-up and generation
    #: times.  Templates are searched in parallel processes, so these are
    #: busy times, not the wall time of the phase.
    warmup_seconds: float = 0.0
    generate_seconds: float = 0.0
    #: Cache/timing counters of the shared query engine at the end of the run
    #: (this run's traffic only, see :meth:`EngineStats.delta_since`),
    #: including what the template searches booked in worker processes.
    engine_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """QTI wall time plus the summed search times (not wall time)."""
        return self.qti_seconds + self.warmup_seconds + self.generate_seconds

    def apply(self, table: Table) -> Table:
        """Materialise the selected queries as features on another table.

        Execution resolves the query engine from ``self.relevant_table``:
        engines are bound to one table by identity, so applying against a
        different (held-out) relevant table can never reuse stale masks from
        the training-time search.
        """
        return apply_queries(
            table, self.relevant_table, [g.query for g in self.queries], prefix=self.feature_prefix
        )

    def sql(self) -> List[str]:
        """SQL text of every selected query (for inspection / logging)."""
        return [g.query.to_sql() for g in self.queries]


class FeatAug:
    """Predicate-aware automatic feature augmentation (the paper's framework)."""

    def __init__(
        self,
        label: str,
        keys: Sequence[str],
        task: str = "binary",
        model: BaseEstimator | str = "LR",
        config: FeatAugConfig | None = None,
    ):
        self.label = label
        self.keys = list(keys)
        self.task = task
        self.config = config or FeatAugConfig()
        self.config.validate()
        if isinstance(model, str):
            self.model = make_model(model, task)
        else:
            self.model = model

    # ------------------------------------------------------------------
    def _build_evaluator(
        self, train_table: Table, relevant_table: Table, engine=None
    ) -> ModelEvaluator:
        fit_table, valid_table, _ = train_valid_test_split(
            train_table,
            ratios=(1.0 - VALIDATION_FRACTION, VALIDATION_FRACTION, 0.0),
            seed=self.config.seed,
        )
        base_features = [
            name for name in train_table.column_names if name != self.label and name not in self.keys
        ]
        return ModelEvaluator(
            fit_table,
            valid_table,
            label=self.label,
            base_features=base_features,
            model=self.model,
            task=self.task,
            relevant_table=relevant_table,
            engine=engine,
        )

    # ------------------------------------------------------------------
    def augment(
        self,
        train_table: Table,
        relevant_table: Table,
        candidate_attrs: Sequence[str] | None = None,
        predicate_attrs: Sequence[str] | None = None,
        agg_attrs: Sequence[str] | None = None,
        agg_funcs: Sequence[str] | None = None,
        n_features: int | None = None,
        feature_prefix: str = "feataug",
    ) -> FeatAugResult:
        """Run the full FeatAug workflow and return the augmented training table.

        Parameters
        ----------
        candidate_attrs:
            Attributes of the relevant table that *may* be useful in the WHERE
            clause; the Query Template Identification component picks the
            promising combinations.  Required unless ``predicate_attrs`` is
            given or template identification is disabled.
        predicate_attrs:
            An explicit WHERE-clause attribute combination.  When provided the
            template identification step is skipped (the user knows ``P``).
        agg_attrs:
            Attributes available for aggregation (defaults to every numeric
            column of the relevant table that is not a key).
        agg_funcs:
            Aggregation functions (defaults to the paper's 15-function set).
        n_features:
            Total number of features to generate; defaults to
            ``n_templates * queries_per_template``.

        Template identification and the template searches run in
        parallel: at the first beam layer one worker process per usable
        core beyond the first is forked, and these processes and this one
        claim each layer's scorings and then the selected templates'
        searches one at a time (see :class:`_WorkerPool`).  The results are
        those of running every task one after another here, which is what
        happens when there is one usable core, when the platform has no
        ``os.fork``, or when another thread is alive.  A failed scoring or search raises
        ``RuntimeError``, and no worker outlives the call.
        """
        proxy = make_proxy(self.config.proxy)
        # One shared execution engine for the whole run: template search, SQL
        # generation and final materialisation all hit the same group index
        # and predicate-mask cache.
        engine = engine_for(relevant_table)
        # Engines are shared per table across runs; report this run's traffic
        # only, not the engine's lifetime counters.
        stats_baseline = engine.stats.as_dict()
        evaluator = self._build_evaluator(train_table, relevant_table, engine=engine)
        agg_attrs = list(agg_attrs) if agg_attrs else self._default_agg_attrs(relevant_table)

        identifier = None
        if predicate_attrs is not None or not self.config.use_template_identification:
            attrs = list(predicate_attrs) if predicate_attrs is not None else list(candidate_attrs or [])
            if not attrs:
                raise ValueError("Provide predicate_attrs or candidate_attrs")
            template = QueryTemplate(agg_funcs, agg_attrs, attrs, self.keys)
            templates = [TemplateScore(template=template, score=float("nan"), layer=len(attrs))]
        else:
            if not candidate_attrs:
                raise ValueError("candidate_attrs is required when template identification is enabled")
            identifier = QueryTemplateIdentifier(
                relevant_table,
                evaluator,
                agg_attrs=agg_attrs,
                keys=self.keys,
                agg_funcs=agg_funcs,
                config=self.config,
                proxy=proxy,
                engine=engine,
            )

        def search_template(template: QueryTemplate, seed: int, n_queries: int) -> _TemplateSearch:
            generator = SQLQueryGenerator(
                template,
                relevant_table,
                evaluator,
                config=self.config,
                proxy=proxy,
                seed=seed,
                engine=engine,
            )
            return generator.generate(n_queries=n_queries), generator.report

        functions = [search_template] + ([identifier.score_template] if identifier else [])
        qti_seconds = 0.0
        with _WorkerPool(functions, engine.stats) as pool:
            if identifier is not None:
                start = time.perf_counter()
                templates = identifier.identify(
                    candidate_attrs, n_templates=self.config.n_templates, map_tasks=pool.map
                )
                qti_seconds = time.perf_counter() - start

            n_features = n_features or self.config.n_templates * self.config.queries_per_template
            queries_per_template = max(1, n_features // max(len(templates), 1))
            searches = pool.map(
                search_template,
                [
                    (scored.template, self.config.seed + 101 * (i + 1), queries_per_template)
                    for i, scored in enumerate(templates)
                ],
            )
            # The workers wind down while this process materialises the
            # features; leaving the block reaps them.
            pool.close()
            generated = [query for queries, _ in searches for query in queries]
            warmup_seconds = sum(report.warmup_seconds for _, report in searches)
            generate_seconds = sum(report.generate_seconds for _, report in searches)

            generated = self._dedupe(generated)
            # Keep only queries that beat the no-augmentation baseline on the
            # search validation split (always keeping at least one); adding
            # features that the search itself scored below the baseline only
            # injects noise into the downstream model.
            baseline_loss = evaluator.evaluate_baseline().loss
            helpful = [g for g in generated if g.loss <= baseline_loss + 1e-9]
            if not helpful and generated:
                helpful = generated[:1]
            generated = helpful[:n_features]
            queries = [g.query for g in generated]
            augmented = apply_queries(
                train_table, relevant_table, queries, prefix=feature_prefix, engine=engine
            )
            return FeatAugResult(
                queries=generated,
                templates=templates,
                augmented_table=augmented,
                feature_names=generated_feature_names(queries, prefix=feature_prefix),
                relevant_table=relevant_table,
                feature_prefix=feature_prefix,
                qti_seconds=qti_seconds,
                warmup_seconds=warmup_seconds,
                generate_seconds=generate_seconds,
                engine_stats=engine.stats.delta_since(stats_baseline),
            )

    # ------------------------------------------------------------------
    def _default_agg_attrs(self, relevant_table: Table) -> List[str]:
        attrs = [
            name
            for name in relevant_table.column_names
            if name not in self.keys and relevant_table.column(name).is_numeric_like
        ]
        if not attrs:
            raise ValueError("No numeric attributes available for aggregation; pass agg_attrs explicitly")
        return attrs

    @staticmethod
    def _dedupe(generated: Sequence[GeneratedQuery]) -> List[GeneratedQuery]:
        seen = set()
        unique: List[GeneratedQuery] = []
        for g in sorted(generated, key=lambda g: g.loss):
            signature = g.query.signature()
            if signature in seen:
                continue
            seen.add(signature)
            unique.append(g)
        return unique


#: What searching one template returns: its best queries and its report.
_TemplateSearch = Tuple[List[GeneratedQuery], GenerationReport]


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shard_count(n_tasks: int) -> int:
    """How many processes share *n_tasks* tasks: one per usable core, at
    most one per task, and only this one where ``os.fork`` is missing or
    unsafe.  A fork copies the locks other threads hold but not the
    threads, so with another Python thread alive a lock in the child could
    stay held for ever."""
    if n_tasks < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(n_tasks, _usable_cores())


#: One task index in a pool's claim queue; a negative index ends a claim loop.
_INDEX = struct.Struct("i")


@dataclass
class _Worker:
    """A forked worker of a :class:`_WorkerPool` and its two pipes."""

    pid: int
    commands: BinaryIO  # write end: pickled ``(function number, tasks)``
    results: BinaryIO  # read end: one pickled ``(outcome, payload, detail)`` per command


class _WorkerPool:
    """Runs the tasks of one :meth:`FeatAug.augment` call over forked
    worker processes: template identification's scorings and the template
    searches alike.

    The pool is given every function it will run before anything forks.
    At the first :meth:`map` of two tasks or more it forks
    ``_shard_count(len(tasks)) - 1`` workers and keeps them until it is
    closed, so a run forks once whatever the number of beam layers.  A
    worker inherits the functions and all they reach (the evaluator with
    its base matrices and split maps, the engine, the tables) copy-on-write,
    so only a function's number and the tasks' arguments are pickled on the
    way in.  Each task is an argument tuple whose first item is the
    :class:`QueryTemplate` it works on.

    ``map(fn, tasks)`` returns ``[fn(*task) for task in tasks]`` in task
    order.  The k processes (this one included) claim the task indices one
    at a time from a queue pipe they all read, so a process that finishes
    early takes the next task instead of idling while another works through
    a fixed share.  Each worker sends back its results and the engine
    counters it booked, which are merged into *stats* before ``map``
    returns.  Every task fixes its own seed, and the engine and evaluator
    only cache values, so the results are those of running the tasks one
    after another here, which is what happens when k is 1.

    A task that raises in a worker makes ``map`` raise ``RuntimeError``
    naming the template, with the worker's traceback; a worker that dies
    without a result makes it raise with its exit status.  Leaving the
    ``with`` block ends every worker (killing them when it is left by an
    exception) and reaps them.
    """

    def __init__(self, functions: Sequence[Callable[..., object]], stats: EngineStats):
        self._functions = list(functions)
        self._stats = stats
        self._workers: List[_Worker] | None = None  # None until the first fork decision
        self._queue: Tuple[int, int] | None = None  # (read end, write end) once forked

    def __enter__(self) -> "_WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for worker in list(self._workers or []):
            self._end(worker, kill=exc_type is not None)
        self._workers = []
        for fd in self._queue or ():
            os.close(fd)
        self._queue = None

    def close(self) -> None:
        """Let every worker exit once it is idle, without waiting for it
        (leaving the ``with`` block reaps it).  No ``map`` may follow."""
        for worker in self._workers or []:
            worker.commands.close()

    def map(self, fn: Callable[..., object], tasks: Sequence[tuple]) -> List:
        """``[fn(*task) for task in tasks]``, the tasks shared out over the
        pool's processes."""
        if self._workers is None and len(tasks) >= 2:
            self._workers = []
            n_workers = _shard_count(len(tasks)) - 1
            if n_workers:
                self._queue = os.pipe()
            for _ in range(n_workers):
                self._fork()
        workers = self._workers or []
        if not workers:
            return [fn(*task) for task in tasks]
        message = (self._functions.index(fn), list(tasks))
        for worker in workers:
            try:
                pickle.dump(message, worker.commands)
                worker.commands.flush()
            except OSError:  # the worker has gone: _receive reports how
                pass
        # Every index once, then one end marker for each process.
        claims = [_INDEX.pack(i) for i in range(len(tasks))]
        claims += [_INDEX.pack(-1)] * (len(workers) + 1)
        _write_all(self._queue[1], b"".join(claims))
        results: List = [None] * len(tasks)
        for i in _claims(self._queue[0]):
            results[i] = fn(*tasks[i])
        for worker in workers:
            for i, result in self._receive(worker, fn, tasks):
                results[i] = result
        return results

    def _fork(self) -> None:
        commands_read, commands_write = os.pipe()
        results_read, results_write = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Hold no end of an earlier worker's pipes: a command pipe with
            # a writer left here would never give that worker its EOF.
            for worker in self._workers:
                os.close(worker.commands.fileno())
                os.close(worker.results.fileno())
            os.close(commands_write)
            os.close(results_read)
            os.close(self._queue[1])
            _serve(self._functions, self._stats, commands_read, self._queue[0], results_write)
        os.close(commands_read)
        os.close(results_write)
        self._workers.append(
            _Worker(pid, os.fdopen(commands_write, "wb"), os.fdopen(results_read, "rb"))
        )

    def _receive(self, worker: _Worker, fn: Callable, tasks) -> list:
        """The ``(index, result)`` pairs *worker* sends back for the tasks
        it claimed."""
        try:
            outcome, payload, detail = pickle.load(worker.results)  # from this process's own fork
        except (EOFError, pickle.UnpicklingError):  # the worker ended mid-way
            status = self._end(worker, kill=False)
            how = (
                f"killed by signal {os.WTERMSIG(status)}"
                if os.WIFSIGNALED(status)
                else f"exit status {os.waitstatus_to_exitcode(status)}"
            )
            raise RuntimeError(
                f"the worker running {fn.__name__} (pid {worker.pid}) ended without a result: {how}"
            ) from None
        if outcome == "raised":
            attrs = list(tasks[payload][0].predicate_attrs)
            raise RuntimeError(
                f"{fn.__name__} of template {payload} (WHERE attributes {attrs}) "
                f"raised in worker pid {worker.pid}:\n{detail}"
            )
        self._stats.merge(detail)
        return payload

    def _end(self, worker: _Worker, kill: bool) -> int:
        """Close *worker*'s pipes -- which ends an idle worker -- kill it
        first if *kill*, reap it, drop it from the pool and return its wait
        status."""
        for pipe in (worker.commands, worker.results):
            try:
                pipe.close()
            except OSError:  # a flush into a pipe whose reader is gone
                pass
        if kill:
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _, status = os.waitpid(worker.pid, 0)
        self._workers.remove(worker)
        return status


def _write_all(fd: int, data: bytes) -> None:
    """Write all of *data* to the pipe *fd*.  Every write is a whole number
    of :data:`_INDEX` records, so no reader ever sees part of one."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _claims(queue: int):
    """The task indices this process claims from the pool's *queue* pipe,
    up to the first end marker.  A pipe read is atomic, so each index goes
    to exactly one process."""
    while True:
        (index,) = _INDEX.unpack(os.read(queue, _INDEX.size))
        if index < 0:
            return
        yield index


def _serve(
    functions: Sequence[Callable[..., object]],
    stats: EngineStats,
    commands: int,
    queue: int,
    results: int,
) -> None:
    """The body of a forked worker: for each pickled ``(function number,
    tasks)`` read from *commands*, run the tasks it claims from *queue* and
    write one pickled ``(outcome, payload, detail)`` to *results*; exit at
    the end of *commands*.

    ``("done", [(i, fn(*tasks[i])), ...], engine counter delta)`` on
    success, ``("raised", i, traceback text)`` when task *i* raised an
    ``Exception`` (the worker then claims the rest of the queue without
    running it, so the parent soon sees the failure); an interrupt or ``SystemExit`` ends the worker with exit
    status 1 instead.  The worker leaves through ``os._exit`` whatever
    happens: an exception escaping into the caller's frames would run the
    parent's code in the child, and a normal exit would run the parent's
    exit handlers and flush its buffered output a second time.
    """
    status = 1
    try:
        with os.fdopen(commands, "rb") as inbox, os.fdopen(results, "wb") as outbox:
            while True:
                try:
                    number, tasks = pickle.load(inbox)  # from the parent of this fork
                except EOFError:
                    break
                baseline = stats.as_dict()
                done, failure = [], None
                for i in _claims(queue):
                    if failure is not None:  # drain the queue: the map fails
                        continue
                    try:
                        done.append((i, functions[number](*tasks[i])))
                    except Exception:  # reported to the parent, which raises it
                        failure = ("raised", i, traceback.format_exc())
                message = failure or ("done", done, stats.delta_since(baseline))
                pickle.dump(message, outbox)
                outbox.flush()
        status = 0
    finally:
        os._exit(status)
