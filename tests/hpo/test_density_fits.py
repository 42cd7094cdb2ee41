"""TPE's densities come from encoded trials and are reused while their group holds.

``TPEOptimizer`` encodes each trial's parameters once and fits a group's
densities from those encodings, and a group holding the same trials, in the
same order, as a recent fit reuses that fit.  Either way the densities must
be the ones a fresh fit from the raw ``trial.params`` builds, bit for bit.
"""

import math

from hypothesis import given, settings, strategies as st

from test_reference_trajectory import _trajectory, search_spaces
from repro.hpo.kde import CategoricalDensity, GaussianKDE
from repro.hpo.space import CategoricalDimension, RealDimension, SearchSpace
from repro.hpo.tpe import TPEOptimizer


class _RecordingTPE(TPEOptimizer):
    """Records every split, every group handed back by ``_fit_densities``
    and every group actually fitted."""

    def __init__(self, space, **kwargs):
        super().__init__(space, **kwargs)
        self.splits, self.returned, self.fitted = [], [], []

    def _split_trials(self):
        good, bad = super()._split_trials()
        self.splits.append((good, bad))
        return good, bad

    def _fit_densities(self, trials):
        densities = super()._fit_densities(trials)
        self.returned.append((list(trials), densities))
        return densities

    def _fit_group(self, trials):
        self.fitted.append(list(trials))
        return super()._fit_group(trials)


def _assert_fresh(space, trials, densities):
    """*densities* equal, bit for bit, a fit of the trials' raw params."""
    for dim in space.dimensions:
        observations = [t.params.get(dim.name) for t in trials]
        ours = densities[dim.name]
        if isinstance(dim, CategoricalDimension):
            fresh = CategoricalDensity(dim.choices, observations)
            assert ours._pdf_table.tobytes() == fresh._pdf_table.tobytes()
            assert ours.cdf == fresh.cdf
        else:
            fresh = GaussianKDE(dim.low, dim.high, observations)
            kde = ours._kde
            assert kde._mus.tobytes() == fresh._mus.tobytes()
            assert kde._sigmas.tobytes() == fresh._sigmas.tobytes()
            assert kde._norms.tobytes() == fresh._norms.tobytes()
            assert kde.none_weight == fresh.none_weight


def _same(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class TestDensitiesMatchAFreshFit:
    @given(
        space=search_spaces(),
        seed=st.integers(0, 2**16),
        n_startup_trials=st.integers(1, 8),
        batch_sizes=st.lists(st.integers(1, 3), min_size=8, max_size=20),
        non_finite=st.dictionaries(
            st.integers(0, 50), st.sampled_from([math.nan, math.inf, -math.inf]), max_size=8
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_reused_and_encoded_fits_equal_a_fresh_fit(
        self, space, seed, n_startup_trials, batch_sizes, non_finite
    ):
        optimizer = _RecordingTPE(
            space, seed=seed, n_candidates=4, n_startup_trials=n_startup_trials,
            exploration_probability=0.0,
        )
        _trajectory(optimizer, space, batch_sizes, non_finite)
        for trials, densities in optimizer.returned:
            _assert_fresh(space, trials, densities)
        # The encodings stay valid after the search: refit every group now.
        for trials, densities in optimizer.returned:
            _assert_fresh(space, trials, optimizer._fit_group(trials))


class TestGoodDensitiesRefitOnlyWhenTheGroupChanges:
    @staticmethod
    def _run(space, values, **kwargs):
        optimizer = _RecordingTPE(space, seed=0, exploration_probability=0.0, **kwargs)
        for value in values:
            (params,) = optimizer.suggest_batch(1)
            optimizer.observe(params, value)
        return optimizer

    def test_good_group_is_fitted_exactly_when_it_changes(self):
        space = SearchSpace(
            [RealDimension("x", 0.0, 10.0, optional=True), CategoricalDimension("c", ["a", "b", "c"])]
        )
        # Mostly bad values, so the good group often keeps its trials.
        values = [5.0 + math.sin(i) if i % 5 else -float(i) for i in range(60)]
        optimizer = self._run(space, values, n_startup_trials=5, n_candidates=4)
        assert optimizer.splits
        previous_good, previous_bad = None, None
        expected = []
        for good, bad in optimizer.splits:
            if previous_good is None or not _same(good, previous_good):
                expected.append(good)
            if previous_bad is None or not _same(bad, previous_bad):
                expected.append(bad)
            previous_good, previous_bad = good, bad
        assert len(expected) == len(optimizer.fitted)
        assert all(_same(a, b) for a, b in zip(expected, optimizer.fitted))
        good_fits = sum(
            1 for i, (good, _) in enumerate(optimizer.splits)
            if i == 0 or not _same(good, optimizer.splits[i - 1][0])
        )
        # The good group held its trials for some suggestions: those reused.
        assert good_fits < len(optimizer.splits)

    def test_non_finite_observation_reuses_both_groups(self):
        space = SearchSpace([RealDimension("x", 0.0, 1.0), CategoricalDimension("c", [0, 1])])
        values = [0.1 * i for i in range(12)] + [math.nan]
        optimizer = self._run(space, values, n_startup_trials=12, n_candidates=2)
        assert len(optimizer.splits) == 1
        assert len(optimizer.fitted) == 2
        # Observing NaN left the split as it was: the next suggestion fits nothing.
        optimizer.suggest_batch(1)
        assert len(optimizer.splits) == 2
        assert len(optimizer.fitted) == 2
        assert optimizer.returned[-1][1] is optimizer.returned[-3][1]
        assert optimizer.returned[-2][1] is optimizer.returned[-4][1]
