"""Determinism contract of the batched ask/tell protocol.

Two guarantees back the batched search loop in ``core.sql_generation``:

* ``suggest_batch(1)`` driven sequentially is bit-identical to the classic
  ``suggest()``/``observe()`` loop for every optimiser;
* any batch size is deterministic under a fixed seed.
"""

import pytest

from repro.hpo.random_search import RandomSearchOptimizer
from repro.hpo.space import (
    CategoricalDimension,
    IntegerDimension,
    RealDimension,
    SearchSpace,
)
from repro.hpo.tpe import TPEOptimizer


@pytest.fixture
def space():
    return SearchSpace(
        [
            RealDimension("x", -10, 10),
            IntegerDimension("n", 0, 7),
            CategoricalDimension("c", ["a", "b", "target"]),
        ]
    )


def objective(params):
    bonus = -2.0 if params["c"] == "target" else 0.0
    return (params["x"] - 3) ** 2 + abs(params["n"] - 4) + bonus


def run_sequential(optimizer, n_iter):
    trajectory = []
    for _ in range(n_iter):
        params = optimizer.suggest()
        value = objective(params)
        optimizer.observe(params, value)
        trajectory.append((params, value))
    return trajectory


def run_batched(optimizer, n_iter, batch_size):
    trajectory = []
    done = 0
    while done < n_iter:
        n = min(batch_size, n_iter - done)
        batch = optimizer.suggest_batch(n)
        values = [objective(p) for p in batch]
        optimizer.observe_batch(batch, values)
        trajectory.extend(zip(batch, values))
        done += n
    return trajectory


class TestBatchOfOneBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_tpe_suggest_batch_one_replays_sequential(self, space, seed):
        sequential = TPEOptimizer(space, seed=seed, n_startup_trials=4, n_candidates=8)
        batched = TPEOptimizer(space, seed=seed, n_startup_trials=4, n_candidates=8)
        # Long enough to cross the startup boundary and exercise the
        # density-based proposals (plus exploration restarts).
        assert run_sequential(sequential, 30) == run_batched(batched, 30, batch_size=1)

    @pytest.mark.parametrize("seed", [0, 42])
    def test_random_search_suggest_batch_one_replays_sequential(self, space, seed):
        sequential = RandomSearchOptimizer(space, seed=seed)
        batched = RandomSearchOptimizer(space, seed=seed)
        assert run_sequential(sequential, 20) == run_batched(batched, 20, batch_size=1)


class TestBatchDeterminism:
    @pytest.mark.parametrize("batch_size", [2, 5, 16])
    def test_tpe_fixed_seed_is_reproducible(self, space, batch_size):
        first = run_batched(
            TPEOptimizer(space, seed=11, n_startup_trials=4, n_candidates=8), 24, batch_size
        )
        second = run_batched(
            TPEOptimizer(space, seed=11, n_startup_trials=4, n_candidates=8), 24, batch_size
        )
        assert first == second

    def test_random_search_fixed_seed_is_reproducible(self, space):
        first = run_batched(RandomSearchOptimizer(space, seed=5), 24, batch_size=6)
        second = run_batched(RandomSearchOptimizer(space, seed=5), 24, batch_size=6)
        assert first == second

    def test_batch_densities_fit_once(self, space):
        """A TPE batch past startup fits the good/bad split once, not per slot."""
        optimizer = TPEOptimizer(space, seed=3, n_startup_trials=2, n_candidates=4)
        run_batched(optimizer, 10, batch_size=5)
        calls = []
        original = optimizer._split_trials

        def counting_split():
            calls.append(1)
            return original()

        optimizer._split_trials = counting_split
        optimizer.suggest_batch(6)
        assert len(calls) == 1

    def test_suggest_batch_validates_size(self, space):
        optimizer = TPEOptimizer(space, seed=0)
        with pytest.raises(ValueError):
            optimizer.suggest_batch(0)
        with pytest.raises(ValueError):
            RandomSearchOptimizer(space, seed=0).suggest_batch(-1)

    def test_observe_batch_validates_lengths(self, space):
        optimizer = TPEOptimizer(space, seed=0)
        batch = optimizer.suggest_batch(3)
        with pytest.raises(ValueError):
            optimizer.observe_batch(batch, [1.0, 2.0])
