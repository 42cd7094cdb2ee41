"""The SQL Query Generation component (Section V, Figure 3).

Given a fixed query template the component searches the template's query pool
for queries whose generated feature minimises the downstream model's
validation loss.  The search runs in two phases:

* **Warm-up phase** -- TPE optimises the low-cost proxy (mutual information by
  default) for ``warmup_iterations`` rounds.  The ``warmup_top_k`` best
  proxy queries are then evaluated with the real model and injected as the
  initial history of the second TPE round.
* **Query-generation phase** -- TPE, warm-started with those real
  evaluations, optimises the actual validation loss for
  ``search_iterations`` rounds.

When ``use_warmup`` is disabled (the "NoWU" ablation) the warm-up is replaced
by an equal number of additional real-loss iterations, mirroring the paper's
budget-fair comparison (Section VII.D.1).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.config import FeatAugConfig
from repro.core.evaluation import ModelEvaluator
from repro.core.proxies import Proxy, make_proxy
from repro.dataframe.table import Table
from repro.hpo.random_search import RandomSearchOptimizer
from repro.hpo.tpe import TPEOptimizer
from repro.hpo.trial import Trial
from repro.query.engine import QueryEngine, resolve_engine
from repro.query.pool import QueryPool
from repro.query.query import PredicateAwareQuery
from repro.query.template import QueryTemplate


@dataclass
class GeneratedQuery:
    """One query produced by the search, with its evaluation scores."""

    query: PredicateAwareQuery
    loss: float
    metric: float
    proxy_score: float = float("nan")


@dataclass
class GenerationReport:
    """Timing and history of one SQL-generation run (used by the scaling figures)."""

    warmup_seconds: float = 0.0
    generate_seconds: float = 0.0
    #: logical evaluation counts: every suggested candidate counts, whether it
    #: was executed or answered from the deduplication memo, so the numbers
    #: stay comparable across batch sizes.
    n_proxy_evaluations: int = 0
    n_model_evaluations: int = 0
    #: candidates answered from the per-generator memo instead of being
    #: executed (duplicate proposals within a batch or across rounds).
    n_proxy_dedup_hits: int = 0
    n_model_dedup_hits: int = 0
    best_loss_history: List[float] = field(default_factory=list)


class SQLQueryGenerator:
    """Search one query pool for effective predicate-aware queries."""

    def __init__(
        self,
        template: QueryTemplate,
        relevant_table: Table,
        evaluator: ModelEvaluator,
        config: FeatAugConfig | None = None,
        proxy: Proxy | None = None,
        seed: int | None = None,
        engine: QueryEngine | None = None,
    ):
        self.config = config or FeatAugConfig()
        self.config.validate()
        self.template = template
        self.relevant_table = relevant_table
        self.evaluator = evaluator
        self.proxy = proxy or make_proxy(self.config.proxy)
        self.seed = self.config.seed if seed is None else seed
        self.pool = QueryPool(template, relevant_table)
        self.report = GenerationReport()
        # The shared execution engine: every candidate query of this search
        # (and of every other component touching the same relevant table)
        # reuses one group index and predicate-mask cache.
        self.engine = resolve_engine(relevant_table, engine)
        # Deduplication memos keyed by query signature.  Both objectives are
        # deterministic functions of the decoded query, so answering a repeat
        # proposal from the memo is value-neutral -- it only skips the
        # execute/join/train work the engine would largely re-serve from its
        # result cache anyway.
        self._proxy_memo: Dict[tuple, float] = {}
        self._loss_memo: Dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # Objectives
    # ------------------------------------------------------------------
    def _proxy_objective(self, params: Dict[str, object]) -> float:
        """Negative proxy score of the decoded query (TPE minimises)."""
        return self._proxy_objective_batch([params])[0]

    def _model_objective(self, params: Dict[str, object]) -> float:
        """Real validation loss of the decoded query."""
        return self._model_objective_batch([params])[0]

    def _proxy_objective_batch(self, params_batch: Sequence[Dict[str, object]]) -> List[float]:
        """Negative proxy scores for a whole suggestion batch.

        Unique unseen queries execute through one
        :meth:`ModelEvaluator.feature_vectors_for_queries` call -- i.e. a
        single ``QueryEngine.execute_batch`` -- so predicate masks, sort
        orders and fused group scans are shared across the candidates.  Their
        features are joined onto the train split only, the split the proxy
        scores on.
        """
        queries = [self.pool.decode(params) for params in params_batch]
        signatures = [query.signature() for query in queries]
        pending = self._pending_indices(signatures, self._proxy_memo)
        if pending:
            train_vecs, _ = self.evaluator.feature_vectors_for_queries(
                [queries[i] for i in pending], self.relevant_table, engine=self.engine, valid=False
            )
            for i, train_vec in zip(pending, train_vecs):
                score = self.proxy.score(
                    train_vec, self.evaluator.y_train, self.evaluator.task
                )
                self._proxy_memo[signatures[i]] = -score
        self.report.n_proxy_evaluations += len(params_batch)
        self.report.n_proxy_dedup_hits += len(params_batch) - len(pending)
        return [self._proxy_memo[signature] for signature in signatures]

    def _model_objective_batch(self, params_batch: Sequence[Dict[str, object]]) -> List[float]:
        """Real validation losses for a whole suggestion batch.

        Feature materialisation for the batch's unique unseen queries is one
        engine pass, and their models train through one
        :meth:`ModelEvaluator.evaluate_matrices` call: logistic regression
        fits them in lockstep, other models one after another.
        """
        queries = [self.pool.decode(params) for params in params_batch]
        signatures = [query.signature() for query in queries]
        pending = self._pending_indices(signatures, self._loss_memo)
        if pending:
            train_vecs, valid_vecs = self.evaluator.feature_vectors_for_queries(
                [queries[i] for i in pending], self.relevant_table, engine=self.engine
            )
            results = self.evaluator.evaluate_matrices(train_vecs, valid_vecs)
            for i, result in zip(pending, results):
                self._loss_memo[signatures[i]] = result.loss
        self.report.n_model_evaluations += len(params_batch)
        self.report.n_model_dedup_hits += len(params_batch) - len(pending)
        return [self._loss_memo[signature] for signature in signatures]

    @staticmethod
    def _pending_indices(signatures: Sequence[tuple], memo: Dict[tuple, float]) -> List[int]:
        """Positions that actually need evaluating: drops candidates already
        in the memo and in-batch repeats (first occurrence wins)."""
        pending: List[int] = []
        scheduled = set()
        for i, signature in enumerate(signatures):
            if signature in memo or signature in scheduled:
                continue
            scheduled.add(signature)
            pending.append(i)
        return pending

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _make_optimizer(self, seed_offset: int):
        """Instantiate the configured pool-search optimiser (TPE or random)."""
        if self.config.search_strategy == "random":
            return RandomSearchOptimizer(self.pool.space, seed=self.seed + seed_offset)
        return TPEOptimizer(
            self.pool.space,
            seed=self.seed + seed_offset,
            n_startup_trials=self.config.tpe_startup_trials,
        )

    def _run_batched(
        self,
        optimizer,
        objective_batch: Callable[[Sequence[Dict[str, object]]], List[float]],
        n_iterations: int,
        on_value: Callable[[float], None] | None = None,
    ) -> None:
        """Drive ``n_iterations`` logical evaluations through the ask/tell
        batch protocol.

        Each round asks for ``min(search_batch_size, remaining)`` suggestions,
        scores them with one batched-objective call (one fused engine batch
        for the unique unseen candidates) and tells the optimiser all results
        at once.  ``on_value`` fires once per logical evaluation, in suggestion
        order, after the batch is observed -- enough for running-best
        bookkeeping because the observed value sequence is exactly the
        sequential one at ``search_batch_size == 1``.
        """
        done = 0
        while done < n_iterations:
            n = min(self.config.search_batch_size, n_iterations - done)
            params_batch = optimizer.suggest_batch(n)
            values = objective_batch(params_batch)
            optimizer.observe_batch(params_batch, values)
            if on_value is not None:
                for value in values:
                    on_value(value)
            done += n

    def _warmup_trials(self) -> List[Trial]:
        """Run the proxy TPE round and evaluate its top-k queries for real."""
        proxy_optimizer = self._make_optimizer(seed_offset=1)
        self._run_batched(
            proxy_optimizer, self._proxy_objective_batch, self.config.warmup_iterations
        )
        top = proxy_optimizer.history.top_k(self.config.warmup_top_k, minimize=True)
        # The top-k transfer evaluations are one engine batch as well.
        losses = self._model_objective_batch([trial.params for trial in top])
        return [
            Trial(params=dict(trial.params), value=loss, metadata={"proxy": -trial.value})
            for trial, loss in zip(top, losses)
        ]

    def generate(self, n_queries: int = 1) -> List[GeneratedQuery]:
        """Run the two-phase search and return the *n_queries* best queries.

        Results are deduplicated by query signature and sorted by loss
        (ascending, i.e. best first).
        """
        optimizer = self._make_optimizer(seed_offset=2)
        extra_iterations = 0
        start = time.perf_counter()
        if self.config.use_warmup:
            warm_trials = self._warmup_trials()
            optimizer.warm_start(warm_trials)
        else:
            # Budget-fair ablation: spend the warm-up evaluations on the real
            # objective instead (warmup_top_k real evaluations were part of
            # the warm-up budget).
            extra_iterations = self.config.warmup_top_k
        self.report.warmup_seconds = time.perf_counter() - start

        start = time.perf_counter()
        n_iterations = self.config.search_iterations + extra_iterations
        # Running best, mirroring TrialHistory.best(minimize=True) so the
        # history has one entry per logical iteration regardless of the batch
        # size: minimum over finite values, falling back to the first trial's
        # value while no finite loss has been seen.
        first_value: float | None = None
        best_finite: float | None = None
        for trial in optimizer.history.trials:
            if first_value is None:
                first_value = trial.value
            if math.isfinite(trial.value):
                best_finite = trial.value if best_finite is None else min(best_finite, trial.value)

        def record(loss: float) -> None:
            nonlocal first_value, best_finite
            if first_value is None:
                first_value = loss
            if math.isfinite(loss):
                best_finite = loss if best_finite is None else min(best_finite, loss)
            self.report.best_loss_history.append(
                best_finite if best_finite is not None else first_value
            )

        self._run_batched(optimizer, self._model_objective_batch, n_iterations, on_value=record)
        self.report.generate_seconds = time.perf_counter() - start

        return self._collect_results(optimizer, n_queries)

    def _collect_results(self, optimizer: TPEOptimizer, n_queries: int) -> List[GeneratedQuery]:
        results: List[GeneratedQuery] = []
        seen = set()
        for trial in sorted(optimizer.history.trials, key=lambda t: t.value):
            query = self.pool.decode(trial.params)
            signature = query.signature()
            if signature in seen:
                continue
            seen.add(signature)
            metric = self._loss_to_metric(trial.value)
            results.append(
                GeneratedQuery(
                    query=query,
                    loss=trial.value,
                    metric=metric,
                    proxy_score=float(trial.metadata.get("proxy", float("nan"))),
                )
            )
            if len(results) >= n_queries:
                break
        return results

    def _loss_to_metric(self, loss: float) -> float:
        if self.evaluator.task == "regression":
            return loss
        return 1.0 - loss

    # ------------------------------------------------------------------
    # Proxy-only search (used by the template-identification component)
    # ------------------------------------------------------------------
    def best_proxy_score(self, n_iterations: int | None = None) -> float:
        """Best proxy value found by a short TPE run over this pool.

        This is the low-cost stand-in for the template's effectiveness used
        by Optimisation 1 of the Query Template Identification component.
        """
        n_iterations = n_iterations or self.config.template_proxy_iterations
        optimizer = self._make_optimizer(seed_offset=3)
        best = -np.inf

        def record(value: float) -> None:
            nonlocal best
            best = max(best, -value)

        self._run_batched(optimizer, self._proxy_objective_batch, n_iterations, on_value=record)
        return float(best)

    def best_real_score(self, n_iterations: int | None = None) -> float:
        """Best (negated loss) found by a short real-model TPE run.

        Used when Optimisation 1 is disabled, i.e. template effectiveness is
        measured by actually training the downstream model.
        """
        n_iterations = n_iterations or self.config.template_real_iterations
        optimizer = self._make_optimizer(seed_offset=4)
        best = -np.inf

        def record(loss: float) -> None:
            nonlocal best
            best = max(best, -loss)

        self._run_batched(optimizer, self._model_objective_batch, n_iterations, on_value=record)
        return float(best)
