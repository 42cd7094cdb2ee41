"""Configuration of the FeatAug framework.

Default values follow the paper's experimental setup (Section VII.A and
VII.D.1) but scaled down so the laptop-scale reproduction finishes quickly:
the paper warms up with 200 proxy-TPE iterations and transfers the top-50
queries before 40 real-model TPE iterations; the defaults here use 40 / 10 /
15.  Benchmarks that want the paper's numbers simply pass a different config.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FeatAugConfig:
    """All knobs of the FeatAug search, grouped by component."""

    # ------------------------------------------------------------------
    # Output size (Section VII.A.3: 8 templates x 5 queries = 40 features)
    # ------------------------------------------------------------------
    n_templates: int = 8
    queries_per_template: int = 5

    # ------------------------------------------------------------------
    # SQL Query Generation component (Section V)
    # ------------------------------------------------------------------
    #: number of TPE iterations on the low-cost proxy task (paper: 200).
    warmup_iterations: int = 40
    #: number of top proxy queries evaluated with the real model and used to
    #: warm-start the second TPE round (paper: 50).
    warmup_top_k: int = 10
    #: number of real-model TPE iterations after the warm start (paper: 40).
    search_iterations: int = 15
    #: drop the warm-up phase entirely ("NoWU" ablation).  The paper replaces
    #: the warm-up with an equivalent number of extra real iterations so the
    #: comparison is budget-fair; we do the same.
    use_warmup: bool = True
    #: search strategy inside a query pool: "tpe" (the paper's choice) or
    #: "random" (pure random search, the strategy behind the Random baseline).
    search_strategy: str = "tpe"
    #: TPE gamma (fraction of trials considered "good").
    tpe_gamma: float = 0.15
    #: random trials before TPE starts modelling.
    tpe_startup_trials: int = 8
    #: candidates scored per TPE suggestion.
    tpe_candidates: int = 24
    #: suggestions proposed (and evaluated through one fused engine batch)
    #: per ask/tell round of every pool search -- warm-up proxy round, real
    #: search round and the template-identification scoring runs.  1 keeps
    #: the classic sequential loop; larger batches let the engine share
    #: masks / sort orders across candidates and dedup repeated proposals
    #: before paying for execution.
    search_batch_size: int = 1

    # ------------------------------------------------------------------
    # Query Template Identification component (Section VI)
    # ------------------------------------------------------------------
    #: run the component at all ("NoQTI" ablation uses the user template).
    use_template_identification: bool = True
    #: beam width (top-beta nodes expanded per layer).
    beam_width: int = 2
    #: maximum WHERE-clause attribute-combination size explored.
    max_template_depth: int = 3
    #: Optimisation 1: score templates with the low-cost proxy instead of
    #: training the downstream model.
    use_low_cost_proxy: bool = True
    #: Optimisation 2: prune layer candidates with the performance predictor.
    use_template_predictor: bool = True
    #: proxy-TPE iterations used to score one template during identification.
    template_proxy_iterations: int = 12
    #: real-model TPE iterations used per template when Opt-1 is disabled.
    template_real_iterations: int = 6

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    #: execution backend of the shared query engine ("numpy", "python",
    #: "sqlite", or any name registered via
    #: :func:`repro.query.register_backend`); ``None`` uses the process
    #: default (``$REPRO_ENGINE_BACKEND`` or "numpy").
    engine_backend: str | None = None
    #: global size-aware budget (bytes) shared by the engine's mask / result
    #: / sort-order caches; ``None`` = unbounded (entry-count limits only).
    engine_memory_budget: int | None = None
    #: delta-aware execution (:mod:`repro.query.delta`): on a relevant-table
    #: append the engine extends its cached masks / group indexes / additive
    #: results over the appended slice instead of flushing every cache;
    #: ``None`` uses the process default (``$REPRO_ENGINE_INCREMENTAL`` or
    #: off, which flushes on append -- always correct, never stale).
    engine_incremental: bool | None = None

    # ------------------------------------------------------------------
    # Proxy and evaluation
    # ------------------------------------------------------------------
    #: low-cost proxy: "mi", "spearman" or "lr" (Table VIII).
    proxy: str = "mi"
    #: fraction of the provided training table held out as the validation
    #: split used by the search (the paper's D_valid).
    validation_fraction: float = 0.25
    #: random seed for every stochastic component.
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.n_templates < 1:
            raise ValueError("n_templates must be >= 1")
        if self.queries_per_template < 1:
            raise ValueError("queries_per_template must be >= 1")
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_template_depth < 1:
            raise ValueError("max_template_depth must be >= 1")
        if self.proxy not in ("mi", "spearman", "lr"):
            raise ValueError(f"Unknown proxy {self.proxy!r}")
        if self.search_strategy not in ("tpe", "random"):
            raise ValueError(f"Unknown search strategy {self.search_strategy!r}")
        if self.search_batch_size < 1:
            raise ValueError("search_batch_size must be >= 1")
        # Delegate to the engine-config validation so the backend / cache
        # checks (and their error messages) have exactly one
        # implementation.  Always run it: even with every engine field left
        # ``None``, the resolved defaults read $REPRO_ENGINE_BACKEND /
        # $REPRO_ENGINE_INCREMENTAL, and a garbage environment value should fail
        # here -- where the run is configured -- rather than at the first
        # query's engine lookup deep inside the search.
        self.engine_config().validate()

    def engine_config(self):
        """The :class:`repro.query.engine.EngineConfig` the run's shared
        query engine is built with.

        Every component that resolves the run's engine (the FeatAug facade,
        the scaling sweeps' cold-engine resets) must go through this, or a
        partially-mirrored config would target a different engine in the
        per-(table, config) registry.
        """
        from repro.query.engine import EngineConfig

        return EngineConfig(
            backend=self.engine_backend,
            memory_budget_bytes=self.engine_memory_budget,
            incremental=self.engine_incremental,
        )

    def with_overrides(self, **kwargs) -> "FeatAugConfig":
        """Copy of this config with specific fields replaced."""
        data = {**self.__dict__, **kwargs}
        config = FeatAugConfig(**data)
        config.validate()
        return config
