"""``sorted_quantiles`` is numpy's default quantile rule on sorted rows.

The trees' candidate thresholds, the MI proxy's bins, DeepFM's bin edges,
ARDA's noise threshold and the synthetic labels' rate threshold all read
their quantiles from it, so it must give the floats ``np.quantile`` gives:
the same lerp, the same weight rule at 0.5, the same bounds rule at the top
and the same NaN where an infinity meets ``inf - inf``.  A zero's sign may
differ (numpy's partition may put -0.0 and 0.0 in another order), so values
compare with ``==`` and NaN equal to NaN.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml._splitter import sorted_quantiles
from repro.ml.deepfm import _quantile_bins

_POOL = [-np.inf, -1e300, -2.5, -1e-300, -0.0, 0.0, 1e-300, 1.0, 3.0, 1e300, np.inf]


@st.composite
def samples(draw):
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "pool", "gaussian_with_extremes", "ties"]))
    if kind == "pool":
        return rng.choice(np.asarray(_POOL), size=n)
    if kind == "ties":
        return rng.integers(-3, 4, size=n).astype(float)
    values = rng.normal(size=n) * draw(st.sampled_from([1e-300, 1.0, 1e300]))
    if kind == "gaussian_with_extremes":
        hits = rng.random(n) < 0.1
        values[hits] = rng.choice(np.asarray(_POOL), size=int(hits.sum()))
    return values


levels = st.one_of(
    st.integers(1, 20).map(lambda k: np.linspace(0, 1, k + 1)[1:-1]),
    st.integers(1, 20).map(lambda k: np.linspace(0, 1, k + 1)),
    st.lists(st.floats(0, 1), min_size=1, max_size=8).map(np.asarray),
    st.floats(0, 1),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
)


def numpy_quantile(values, q):
    with np.errstate(invalid="ignore"):
        return np.quantile(values, q)


def assert_same_values(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.dtype == theirs.dtype == np.float64 and ours.shape == theirs.shape
    assert np.array_equal(ours, theirs, equal_nan=True)


@settings(max_examples=400, deadline=None)
@given(values=samples(), q=levels)
def test_equals_numpy_quantile(values, q):
    assert_same_values(sorted_quantiles(np.sort(values), q), numpy_quantile(values, q))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 5).flatmap(lambda k: st.lists(samples(), min_size=k, max_size=k)), q=levels)
def test_rows_of_a_matrix_are_quantiled_separately(rows, q):
    n = min(len(row) for row in rows)
    matrix = np.sort(np.stack([row[:n] for row in rows]), axis=1)
    stacked = sorted_quantiles(matrix, q)
    for row, ours in zip(matrix, stacked):
        assert_same_values(ours, numpy_quantile(row, q))


def test_scalar_level_gives_a_scalar():
    value = sorted_quantiles(np.asarray([1.0, 2.0, 4.0]), 0.75)
    assert type(value) is np.float64 and value == np.quantile([1.0, 2.0, 4.0], 0.75)


@pytest.mark.parametrize(
    "values,q,expected",
    [
        # Weight exactly 0.5 takes the upper form ``above - diff * (1 - w)``:
        # inf - inf * 0.5 is NaN where the lower form gives inf, and
        # 1 - inf * 0.5 is -inf where the lower form gives NaN.
        ([1.0, np.inf], 0.5, np.nan),
        ([-np.inf, 1.0], 0.5, -np.inf),
        # Weight above 0.5 between finite neighbours.
        ([0.0, 1.0, 10.0], 0.8, 6.4),
        # The top level reads the last value, an infinite one as NaN (weight n).
        ([1.0, 2.0], 1.0, 2.0),
        ([1.0, np.inf], 1.0, np.nan),
        ([5.0], 0.3, 5.0),
    ],
)
def test_pinned_values(values, q, expected):
    ours = sorted_quantiles(np.asarray(values), q)
    assert_same_values(ours, numpy_quantile(np.asarray(values), q))
    assert np.array_equal(ours, expected, equal_nan=True)


def _reference_bins(values, n_bins):
    """DeepFM's bin edges as they were computed with ``np.quantile``."""
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return np.asarray([0.0])
    distinct = np.unique(finite)
    if distinct.size <= n_bins:
        return distinct
    return np.unique(numpy_quantile(finite, np.linspace(0, 1, n_bins + 1)[1:-1]))


@pytest.mark.parametrize("n_bins", [1, 4, 16])
@pytest.mark.parametrize(
    "column",
    ["gaussian", "few", "with_nan", "all_nan", "with_inf", "ties"],
)
def test_deepfm_bin_edges_are_numpy_quantiles(column, n_bins):
    rng = np.random.default_rng(11)
    values = {
        "gaussian": rng.normal(size=300),
        "few": rng.integers(0, 3, size=300).astype(float),
        "with_nan": np.where(rng.random(300) < 0.3, np.nan, rng.normal(size=300)),
        "all_nan": np.full(20, np.nan),
        "with_inf": np.where(rng.random(300) < 0.1, np.inf, rng.normal(size=300)),
        "ties": np.round(rng.normal(size=300), 1),
    }[column]
    assert_same_values(_quantile_bins(values, n_bins), _reference_bins(values, n_bins))
