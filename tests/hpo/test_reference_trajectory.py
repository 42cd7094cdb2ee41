"""The vectorized TPE proposal replays the scalar reference draw for draw.

``TPEOptimizer`` draws every candidate first and scores them together;
``_reference_tpe`` draws and scores one candidate at a time with scalar pdfs
and ``Generator.choice`` sampling.  Both must consume the same random stream
and return the same ``(params, value)`` trajectory on any space.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from _reference_tpe import ReferenceCategoricalDensity, ReferenceTPEOptimizer
from repro.hpo.kde import CategoricalDensity
from repro.hpo.space import CategoricalDimension, IntegerDimension, RealDimension, SearchSpace
from repro.hpo.tpe import TPEOptimizer

# Pairwise unequal choices of mixed types (see _reference_tpe's docstring).
_CHOICE_POOL = [None, "a", "b", "SUM", "", 0, 7, 2.5, -1.25, ("k1",), ("k1", "k2")]


@st.composite
def dimensions(draw, name):
    kind = draw(st.sampled_from(["real", "integer", "categorical"]))
    if kind == "categorical":
        choices = draw(st.lists(st.sampled_from(_CHOICE_POOL), min_size=1, max_size=6, unique=True))
        return CategoricalDimension(name, choices)
    optional = draw(st.booleans())
    if kind == "real":
        low = draw(st.floats(-100, 100, allow_nan=False))
        width = draw(st.sampled_from([0.0, 1e-3, 1.0, 37.5]))
        return RealDimension(name, low, low + width, optional=optional)
    low = draw(st.integers(-5, 5))
    return IntegerDimension(name, low, low + draw(st.integers(0, 10)), optional=optional)


@st.composite
def search_spaces(draw):
    n = draw(st.integers(1, 5))
    return SearchSpace([draw(dimensions(f"d{i}")) for i in range(n)])


def _objective(space, params, step, non_finite):
    if step in non_finite:
        return non_finite[step]
    total = 0.0
    for weight, dim in enumerate(space.dimensions, start=1):
        value = params[dim.name]
        if isinstance(dim, CategoricalDimension):
            total += weight * 0.7 * dim.index_of(value)
        elif value is None:
            total += weight * 0.3
        else:
            total += weight * math.sin(float(value))
    return total


def _trajectory(optimizer, space, batch_sizes, non_finite):
    trajectory = []
    step = 0
    for size in batch_sizes:
        batch = optimizer.suggest_batch(size)
        values = []
        for params in batch:
            values.append(_objective(space, params, step, non_finite))
            step += 1
        optimizer.observe_batch(batch, values)
        # Types matter too (an int must stay an int); repr makes NaN comparable.
        trajectory.extend(
            ([(name, type(v).__name__, repr(v)) for name, v in params.items()], repr(value))
            for params, value in zip(batch, values)
        )
    return trajectory


class TestVectorizedProposalMatchesReference:
    @given(
        space=search_spaces(),
        seed=st.integers(0, 2**16),
        n_candidates=st.integers(1, 32),
        n_startup_trials=st.integers(1, 8),
        exploration_probability=st.sampled_from([0.0, 0.1, 0.5]),
        batch_sizes=st.lists(st.integers(1, 3), min_size=8, max_size=20),
        non_finite=st.dictionaries(
            st.integers(0, 50), st.sampled_from([math.nan, math.inf, -math.inf]), max_size=8
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_trajectory(
        self, space, seed, n_candidates, n_startup_trials, exploration_probability, batch_sizes, non_finite
    ):
        kwargs = dict(
            seed=seed,
            n_candidates=n_candidates,
            n_startup_trials=n_startup_trials,
            exploration_probability=exploration_probability,
        )
        vectorized = TPEOptimizer(space, **kwargs)
        reference = ReferenceTPEOptimizer(space, **kwargs)
        assert _trajectory(vectorized, space, batch_sizes, non_finite) == _trajectory(
            reference, space, batch_sizes, non_finite
        )
        assert vectorized._rng.bit_generator.state == reference._rng.bit_generator.state


class TestCategoricalSamplingMatchesChoice:
    @given(
        counts=st.lists(st.integers(0, 20), min_size=1, max_size=12),
        smoothing=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_index_and_generator_state(self, counts, smoothing, seed):
        choices = list(range(len(counts)))
        observations = [c for c, k in zip(choices, counts) for _ in range(k)]
        if smoothing == 0.0 and not observations:
            observations = [0]
        density = CategoricalDensity(choices, observations, smoothing=smoothing)
        p = ReferenceCategoricalDensity(choices, observations, smoothing=smoothing)._prob
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        for _ in range(50):
            assert density.sample(ours) == int(theirs.choice(len(p), p=p))
        assert ours.bit_generator.state == theirs.bit_generator.state
