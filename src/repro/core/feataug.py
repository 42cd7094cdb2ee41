"""The FeatAug facade: the end-to-end workflow of Figure 2.

``FeatAug.augment`` takes the training table, the relevant table and either an
explicit query template (the WHERE-clause attributes) or a set of candidate
attributes.  It then:

1. splits the training table into a fit/validation pair used to score
   candidate features,
2. (optionally) runs Query Template Identification to pick the ``n_templates``
   most promising WHERE-clause attribute combinations,
3. runs the SQL Query Generation component on every selected template to
   produce ``queries_per_template`` queries each, the templates shared out
   over forked worker processes (:func:`_search_templates`),
4. materialises every generated feature onto the *full* training table and
   returns a :class:`FeatAugResult` that can also re-apply the same queries to
   held-out tables (validation / test).
"""

from __future__ import annotations

import os
import pickle
import signal
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
from repro.query.query import PredicateAwareQuery
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
        """QTI time plus the summed search times (not wall time)."""
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

        The selected templates are searched in parallel: after template
        identification, one worker process per usable core beyond the
        first is forked and each searches its share of the templates (see
        :func:`_search_templates`).  The results are those of searching the
        templates one after another here, which is what happens when there
        is one template or one usable core, when the platform has no
        ``os.fork``, or when another thread is alive.  A failed search
        raises ``RuntimeError``, and no worker outlives the call.
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

        templates: List[TemplateScore] = []
        qti_seconds = 0.0
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
            start = time.perf_counter()
            templates = identifier.identify(candidate_attrs, n_templates=self.config.n_templates)
            qti_seconds = time.perf_counter() - start

        n_features = n_features or self.config.n_templates * self.config.queries_per_template
        queries_per_template = max(1, n_features // max(len(templates), 1))

        def search(i: int) -> _TemplateSearch:
            generator = SQLQueryGenerator(
                templates[i].template,
                relevant_table,
                evaluator,
                config=self.config,
                proxy=proxy,
                seed=self.config.seed + 101 * (i + 1),
                engine=engine,
            )
            return generator.generate(n_queries=queries_per_template), generator.report

        searches = _search_templates(templates, search, engine.stats)
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


def _shard_count(n_templates: int) -> int:
    """How many processes search *n_templates* templates: one per usable
    core, at most one per template, and only this one where ``os.fork`` is
    missing or unsafe.  A fork copies the locks other threads hold but not
    the threads, so with another Python thread alive a lock in the child
    could stay held for ever."""
    if n_templates < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(n_templates, _usable_cores())


def _search_templates(
    templates: Sequence[TemplateScore],
    search: Callable[[int], _TemplateSearch],
    stats: EngineStats,
) -> List[_TemplateSearch]:
    """``search(i)`` for every template index *i*, in template order.

    The templates are dealt round robin into k shards (template *i* to
    shard ``i % k``, k from :func:`_shard_count`).  Shard 0 runs here; each
    other shard runs in a worker forked first, which inherits the
    evaluator, the warm engine and the tables copy-on-write and sends back
    its pickled results and the engine counters it booked, which are merged
    into *stats*.  Every search has its own seed, pool, optimisers and
    memos, and the shared engine and evaluator only cache values, so the
    results are those of the serial run.

    A worker whose search raises makes this raise ``RuntimeError`` naming
    the template, with the worker's traceback; one that dies without a
    result makes it raise with its exit status.  Every worker is killed and
    reaped before this returns or raises.
    """
    n_shards = _shard_count(len(templates))
    results: List[_TemplateSearch | None] = [None] * len(templates)
    workers: Dict[int, Tuple[range, BinaryIO]] = {}  # pid -> (shard, its pipe's read end)
    try:
        for first in range(1, n_shards):
            shard = range(first, len(templates), n_shards)
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _run_worker(shard, search, stats, write_end)
            workers[pid] = (shard, os.fdopen(read_end, "rb"))
            os.close(write_end)
        for i in range(0, len(templates), n_shards):
            results[i] = search(i)
        for pid in list(workers):
            shard, pipe = workers[pid]
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            pipe.close()
            if status != 0:
                how = (
                    f"killed by signal {os.WTERMSIG(status)}"
                    if os.WIFSIGNALED(status)
                    else f"exit status {os.waitstatus_to_exitcode(status)}"
                )
                raise RuntimeError(
                    f"the worker searching templates {list(shard)} (pid {pid}) "
                    f"ended without a result: {how}"
                )
            # The bytes come from this process's own fork.
            outcome, payload, detail = pickle.loads(data)
            if outcome == "raised":
                attrs = list(templates[payload].template.predicate_attrs)
                raise RuntimeError(
                    f"the search of template {payload} (WHERE attributes {attrs}) "
                    f"raised in worker pid {pid}:\n{detail}"
                )
            for i, found in payload:
                results[i] = found
            stats.merge(detail)
    finally:
        for pid, (_, pipe) in workers.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped by the system
                pass
    return results  # type: ignore[return-value]


def _run_worker(
    shard: range, search: Callable[[int], _TemplateSearch], stats: EngineStats, write_end: int
) -> None:
    """The body of a forked worker: search *shard*'s templates, write one
    pickled ``(outcome, payload, detail)`` to *write_end* and exit.

    ``("done", [(i, search(i)), ...], engine counter delta)`` on success,
    ``("raised", i, traceback text)`` when ``search(i)`` raised.  The worker
    leaves through ``os._exit`` whatever happens: an exception escaping
    into the caller's frames would run the parent's code in the child, and
    a normal exit would run the parent's exit handlers and flush its
    buffered output a second time.
    """
    status = 1
    try:
        baseline = stats.as_dict()
        current = shard[0]
        try:
            found = []
            for current in shard:
                found.append((current, search(current)))
            message = ("done", found, stats.delta_since(baseline))
        except BaseException:  # reported to the parent, which raises it
            message = ("raised", current, traceback.format_exc())
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(message))
        status = 0
    finally:
        os._exit(status)
