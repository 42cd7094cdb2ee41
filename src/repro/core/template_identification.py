"""The Query Template Identification component (Section VI, Figure 4).

When the user cannot supply the WHERE-clause attribute combination ``P``, the
space of all subsets of the candidate attributes is explored as a tree: layer
``l`` holds the combinations of size ``l``.  Beam search expands only the
top-β nodes of each layer.  Two optimisations make this practical:

* **Optimisation 1 (low-cost proxy)** -- a node's effectiveness is estimated
  by a short TPE run optimising the proxy (mutual information) over the
  node's query pool instead of training the downstream model.
* **Optimisation 2 (performance predictor)** -- before evaluating a layer,
  a ridge predictor trained on already-evaluated nodes ranks the layer's
  candidates and only the top-β are evaluated.

The identifier returns the ``n`` highest-scoring templates over everything it
evaluated, together with a timing/count report used by the Figure 5 ablation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.config import FeatAugConfig
from repro.core.evaluation import ModelEvaluator
from repro.core.predictor import TemplatePerformancePredictor
from repro.core.proxies import Proxy, make_proxy
from repro.core.sql_generation import SQLQueryGenerator
from repro.dataframe.table import Table
from repro.query.engine import QueryEngine, resolve_engine
from repro.query.template import QueryTemplate


@dataclass
class TemplateScore:
    """A template evaluated during identification and its score (higher = better)."""

    template: QueryTemplate
    score: float
    layer: int


@dataclass
class IdentificationReport:
    """Bookkeeping used by the Figure 5 / scaling experiments."""

    seconds: float = 0.0
    n_evaluated_templates: int = 0
    n_predicted_templates: int = 0
    evaluated: List[TemplateScore] = field(default_factory=list)
    #: The shared query engine's cache/timing counters booked by the run
    #: (mask hit rate, group-index reuse, ...) for Fig. 5, including what
    #: scorings run in worker processes booked (see ``identify``).
    engine_stats: Dict[str, float] = field(default_factory=dict)


#: How a beam layer's scorings run: ``map_tasks(fn, tasks)`` returns
#: ``[fn(*task) for task in tasks]`` in task order, wherever it runs them.
MapTasks = Callable[[Callable[..., float], Sequence[tuple]], List[float]]


def map_in_process(fn: Callable[..., float], tasks: Sequence[tuple]) -> List[float]:
    """Run every task here, one after another."""
    return [fn(*task) for task in tasks]


class QueryTemplateIdentifier:
    """Beam search over WHERE-clause attribute combinations."""

    def __init__(
        self,
        relevant_table: Table,
        evaluator: ModelEvaluator,
        agg_attrs: Sequence[str],
        keys: Sequence[str],
        agg_funcs: Sequence[str] | None = None,
        config: FeatAugConfig | None = None,
        proxy: Proxy | None = None,
        engine: QueryEngine | None = None,
    ):
        self.config = config or FeatAugConfig()
        self.config.validate()
        self.relevant_table = relevant_table
        self.evaluator = evaluator
        self.agg_attrs = list(agg_attrs)
        self.keys = list(keys)
        self.agg_funcs = list(agg_funcs) if agg_funcs else None
        self.proxy = proxy or make_proxy(self.config.proxy)
        self.report = IdentificationReport()
        # One shared execution engine across every template's query pool: the
        # beam search executes thousands of queries against the same table,
        # all reusing the same group index and predicate-mask cache.
        self.engine = resolve_engine(relevant_table, engine)

    # ------------------------------------------------------------------
    def _make_template(self, predicate_attrs: Sequence[str]) -> QueryTemplate:
        return QueryTemplate(self.agg_funcs, self.agg_attrs, predicate_attrs, self.keys)

    def score_template(self, template: QueryTemplate, seed: int) -> float:
        """Effectiveness estimate of one template (higher = better), from
        a search seeded with *seed*."""
        generator = SQLQueryGenerator(
            template,
            self.relevant_table,
            self.evaluator,
            config=self.config,
            proxy=self.proxy,
            seed=seed,
            engine=self.engine,
        )
        if self.config.use_low_cost_proxy:
            return generator.best_proxy_score()
        return generator.best_real_score()

    def _score_layer(
        self,
        combos: Sequence[Tuple[str, ...]],
        depth: int,
        predictor: TemplatePerformancePredictor,
        evaluated: Dict[Tuple[str, ...], TemplateScore],
        map_tasks: MapTasks,
    ) -> List[Tuple[Tuple[str, ...], float]]:
        """Score one layer's attribute combinations through *map_tasks*.

        The seeds are fixed before the scorings run, as the serial order
        would draw them, and the scores are recorded and observed by the
        predictor in layer order, so where the scorings ran does not change
        any result.
        """
        templates = [self._make_template(combo) for combo in combos]
        first_seed = self.config.seed + len(self.report.evaluated)
        scores = map_tasks(
            self.score_template,
            [(template, first_seed + position) for position, template in enumerate(templates)],
        )
        for combo, template, score in zip(combos, templates, scores):
            record = TemplateScore(template=template, score=score, layer=depth)
            evaluated[combo] = record
            self.report.evaluated.append(record)
            predictor.observe(template, score)
        return list(zip(combos, scores))

    # ------------------------------------------------------------------
    def identify(
        self,
        candidate_attrs: Sequence[str],
        n_templates: int | None = None,
        map_tasks: MapTasks = map_in_process,
    ) -> List[TemplateScore]:
        """Run the beam search and return the top-n templates (best first).

        Each layer's scorings run through *map_tasks*; the default runs them
        here, and :meth:`FeatAug.augment` passes its worker pool's ``map``.
        """
        n_templates = n_templates or self.config.n_templates
        candidate_attrs = list(candidate_attrs)
        if not candidate_attrs:
            raise ValueError("Query template identification needs at least one candidate attribute")

        start = time.perf_counter()
        stats_baseline = self.engine.stats.as_dict()
        predictor = TemplatePerformancePredictor(candidate_attrs)
        evaluated: Dict[Tuple[str, ...], TemplateScore] = {}

        # Layer 1: evaluate every single-attribute template and train the predictor.
        frontier = self._score_layer(
            [(attr,) for attr in candidate_attrs], 1, predictor, evaluated, map_tasks
        )
        frontier.sort(key=lambda pair: -pair[1])
        beam = frontier[: self.config.beam_width]

        # Layers 2..max_depth: expand the beam, optionally pruning with the predictor.
        for depth in range(2, self.config.max_template_depth + 1):
            expansions: List[Tuple[str, ...]] = []
            for combo, _ in beam:
                for attr in candidate_attrs:
                    if attr in combo:
                        continue
                    new_combo = tuple(sorted(combo + (attr,)))
                    if new_combo not in evaluated and new_combo not in expansions:
                        expansions.append(new_combo)
            if not expansions:
                break

            if self.config.use_template_predictor and len(expansions) > self.config.beam_width:
                candidates = [self._make_template(combo) for combo in expansions]
                ranked = predictor.rank(candidates)
                self.report.n_predicted_templates += len(ranked)
                keep = {tuple(sorted(t.predicate_attrs)) for t, _ in ranked[: self.config.beam_width]}
                expansions = [combo for combo in expansions if combo in keep]

            layer_scores = self._score_layer(expansions, depth, predictor, evaluated, map_tasks)
            layer_scores.sort(key=lambda pair: -pair[1])
            beam = layer_scores[: self.config.beam_width]

        self.report.seconds = time.perf_counter() - start
        self.report.n_evaluated_templates = len(evaluated)
        self.report.engine_stats = self.engine.stats.delta_since(stats_baseline)

        ordered = sorted(evaluated.values(), key=lambda record: -record.score)
        return ordered[:n_templates]
