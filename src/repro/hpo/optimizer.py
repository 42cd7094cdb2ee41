"""Optimiser interface: suggest / observe."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.hpo.space import SearchSpace
from repro.hpo.trial import Trial, TrialHistory


class Optimizer:
    """Base class for sequential model-based (and random) optimisers.

    The protocol is the classic ask/tell loop:

    >>> params = optimizer.suggest()
    >>> value = objective(params)
    >>> optimizer.observe(params, value)

    plus a batched variant for callers that can evaluate several candidates
    at once (the fused query engine amortises plan execution across a batch):

    >>> batch = optimizer.suggest_batch(8)
    >>> optimizer.observe_batch(batch, [objective(p) for p in batch])

    ``suggest_batch`` proposes *n* points without observing anything in
    between, so the whole batch is conditioned on the same history; a batch
    of size one must reproduce ``suggest()`` exactly.  Objective values are
    always *minimised*; callers that maximise a score (e.g. mutual
    information in the warm-up phase) negate it.
    """

    def __init__(self, space: SearchSpace, seed: int | None = None):
        self.space = space
        self.seed = seed
        self.history = TrialHistory()

    def suggest(self) -> Dict[str, object]:
        raise NotImplementedError

    def suggest_batch(self, n: int) -> List[Dict[str, object]]:
        """Propose *n* candidates from the current history.

        The default loops ``suggest()``; optimisers whose suggestion step
        conditions on the history (TPE) override this to fit their surrogate
        once per batch.  Either way the history is not updated until the
        caller reports values through :meth:`observe_batch`.
        """
        if n < 1:
            raise ValueError(f"batch size must be >= 1, got {n}")
        return [self.suggest() for _ in range(n)]

    def observe(self, params: Dict[str, object], value: float, **metadata) -> None:
        """Record an evaluated point."""
        self.space.validate(params)
        self.history.add(Trial(params=dict(params), value=float(value), metadata=metadata))

    def observe_batch(
        self,
        params_batch: Sequence[Dict[str, object]],
        values: Sequence[float],
        metadata: Sequence[Dict[str, object]] | None = None,
    ) -> None:
        """Record one value per suggestion, preserving suggestion order."""
        params_batch = list(params_batch)
        values = list(values)
        if len(params_batch) != len(values):
            raise ValueError(
                f"got {len(params_batch)} param sets but {len(values)} values"
            )
        if metadata is not None and len(metadata) != len(params_batch):
            raise ValueError(
                f"got {len(params_batch)} param sets but {len(metadata)} metadata dicts"
            )
        for i, (params, value) in enumerate(zip(params_batch, values)):
            self.observe(params, value, **(metadata[i] if metadata is not None else {}))

    def warm_start(self, trials) -> None:
        """Seed the optimiser's history with externally evaluated trials."""
        for trial in trials:
            self.history.add(Trial(params=dict(trial.params), value=float(trial.value), metadata=dict(trial.metadata)))
