"""Unit tests for entropy and discretisation."""

import numpy as np
import pytest

from repro.stats.entropy import discretize, shannon_entropy


class TestDiscretize:
    def test_few_distinct_values_get_own_codes(self):
        codes = discretize(np.asarray([1.0, 2.0, 1.0, 2.0]), n_bins=10)
        assert len(np.unique(codes)) == 2

    def test_nan_gets_dedicated_bin(self):
        codes = discretize(np.asarray([1.0, np.nan, 2.0]), n_bins=5)
        assert codes[1] == 5

    def test_many_values_binned_to_limit(self):
        values = np.linspace(0, 1, 1000)
        codes = discretize(values, n_bins=8)
        assert len(np.unique(codes)) <= 8

    def test_all_nan(self):
        codes = discretize(np.asarray([np.nan, np.nan]), n_bins=4)
        assert set(codes) == {4}

    def test_bins_are_roughly_balanced(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=2000)
        codes = discretize(values, n_bins=10)
        _, counts = np.unique(codes, return_counts=True)
        assert counts.min() > 100  # quantile bins ~200 each

    @pytest.mark.parametrize("n_bins", [0, -1, -10])
    @pytest.mark.parametrize("values", [[1.0, 2.0, np.nan], [], [np.nan]])
    def test_bin_count_below_one_rejected(self, values, n_bins):
        with pytest.raises(ValueError, match="n_bins"):
            discretize(np.asarray(values), n_bins=n_bins)

    def test_one_bin_codes_every_finite_value_zero(self):
        codes = discretize(np.asarray([3.0, np.nan, -1.0, 7.0, np.inf]), n_bins=1)
        assert codes.tolist() == [0, 1, 0, 0, 0]

    def test_distinct_values_are_read_from_the_sorted_runs(self):
        # -0.0 and 0.0 are one value; infinities are values, NaN is not.
        values = np.asarray([np.inf, 0.0, -0.0, np.nan, -np.inf, 2.0, 0.0])
        assert discretize(values, n_bins=4).tolist() == [3, 1, 1, 4, 0, 2, 1]


class TestShannonEntropy:
    def test_empty_is_zero(self):
        assert shannon_entropy(np.asarray([])) == 0.0

    def test_constant_is_zero(self):
        assert shannon_entropy(np.asarray([3, 3, 3])) == 0.0

    def test_uniform_is_log_k(self):
        assert shannon_entropy(np.asarray([0, 1, 2, 3])) == pytest.approx(np.log(4))

    def test_entropy_is_nonnegative(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 5, size=100)
        assert shannon_entropy(codes) >= 0

    def test_entropy_bounded_by_log_support(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(0, 7, size=500)
        assert shannon_entropy(codes) <= np.log(7) + 1e-9
