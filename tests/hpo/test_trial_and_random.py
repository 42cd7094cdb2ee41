"""Unit tests for trial bookkeeping and the random-search optimiser."""

import numpy as np
import pytest

from repro.hpo.random_search import RandomSearchOptimizer
from repro.hpo.space import CategoricalDimension, RealDimension, SearchSpace
from repro.hpo.trial import Trial, TrialHistory


@pytest.fixture
def space():
    return SearchSpace([RealDimension("x", -5, 5), CategoricalDimension("c", ["a", "b"])])


def ask_tell(optimizer, objective, n_iter):
    """Run the ask/tell loop for *n_iter* evaluations; return the best trial."""
    for _ in range(n_iter):
        params = optimizer.suggest()
        optimizer.observe(params, objective(params))
    return optimizer.history.best(minimize=True)


class TestTrialHistory:
    def test_add_and_len(self):
        history = TrialHistory()
        history.add(Trial({"x": 1}, 0.5))
        assert len(history) == 1

    def test_best_minimize(self):
        history = TrialHistory()
        for v in [0.9, 0.1, 0.5]:
            history.add(Trial({"x": v}, v))
        assert history.best().value == 0.1

    def test_best_maximize(self):
        history = TrialHistory()
        for v in [0.9, 0.1, 0.5]:
            history.add(Trial({"x": v}, v))
        assert history.best(minimize=False).value == 0.9

    def test_best_empty_raises(self):
        with pytest.raises(ValueError):
            TrialHistory().best()

    def test_top_k_sorted(self):
        history = TrialHistory()
        for v in [3.0, 1.0, 2.0]:
            history.add(Trial({"x": v}, v))
        assert [t.value for t in history.top_k(2)] == [1.0, 2.0]

    def test_values(self):
        history = TrialHistory()
        history.add(Trial({}, 1.0))
        history.add(Trial({}, 2.0))
        assert history.values() == [1.0, 2.0]

    def test_iteration_and_indexing(self):
        history = TrialHistory()
        history.add(Trial({"x": 0}, 0.0))
        assert list(history)[0] is history[0]


class TestRandomSearch:
    def test_suggestions_are_valid(self, space):
        optimizer = RandomSearchOptimizer(space, seed=0)
        for _ in range(20):
            space.validate(optimizer.suggest())

    def test_minimize_finds_decent_point(self, space):
        optimizer = RandomSearchOptimizer(space, seed=0)
        best = ask_tell(optimizer, lambda p: p["x"] ** 2, 60)
        assert best.value < 1.0

    def test_observe_validates(self, space):
        optimizer = RandomSearchOptimizer(space, seed=0)
        with pytest.raises(ValueError):
            optimizer.observe({"x": 100.0, "c": "a"}, 1.0)

    def test_deterministic_with_seed(self, space):
        a = RandomSearchOptimizer(space, seed=3).suggest()
        b = RandomSearchOptimizer(space, seed=3).suggest()
        assert a == b

    def test_history_recorded(self, space):
        optimizer = RandomSearchOptimizer(space, seed=0)
        ask_tell(optimizer, lambda p: 0.0, 5)
        assert len(optimizer.history) == 5

    def test_warm_start_appends_history(self, space):
        optimizer = RandomSearchOptimizer(space, seed=0)
        optimizer.warm_start([Trial({"x": 0.0, "c": "a"}, 0.1)])
        assert len(optimizer.history) == 1


class TestNonFiniteHistory:
    """TrialHistory accessors must be safe against NaN/inf objective values."""

    @staticmethod
    def _history(values):
        history = TrialHistory()
        for i, value in enumerate(values):
            history.add(Trial({"i": i}, value))
        return history

    def test_best_ignores_nan(self):
        history = self._history([float("nan"), 0.5, 0.3, float("nan")])
        assert history.best(minimize=True).value == 0.3

    def test_best_ignores_negative_infinity(self):
        """A -inf 'loss' from a failed candidate must not win the search."""
        history = self._history([0.4, float("-inf"), 0.2])
        assert history.best(minimize=True).value == 0.2
        assert history.best(minimize=False).value == 0.4

    def test_best_all_non_finite_returns_first_trial(self):
        history = self._history([float("nan"), float("inf")])
        assert history.best(minimize=True).params == {"i": 0}

    def test_best_empty_raises(self):
        with pytest.raises(ValueError):
            TrialHistory().best()

    def test_top_k_ranks_non_finite_last(self):
        history = self._history([float("nan"), 0.5, float("-inf"), 0.1, 0.3])
        top = history.top_k(5, minimize=True)
        assert [t.value for t in top[:3]] == [0.1, 0.3, 0.5]
        assert all(not np.isfinite(t.value) for t in top[3:])

    def test_top_k_failures_keep_insertion_order(self):
        history = self._history([float("nan"), float("inf"), 0.9, float("-inf")])
        tail = history.top_k(4, minimize=True)[1:]
        assert [t.params["i"] for t in tail] == [0, 1, 3]
