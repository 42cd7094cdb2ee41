"""Unit tests for the 15 aggregation functions."""

import numpy as np
import pytest

from repro.dataframe.aggregates import (
    AGGREGATE_FUNCTIONS,
    CATEGORICAL_SAFE_AGGREGATES,
    aggregate,
    column_to_aggregable,
    normalise_aggregate_name,
)
from repro.dataframe.column import Column, DType

VALUES = np.asarray([1.0, 2.0, 2.0, 5.0, np.nan])


class TestIndividualAggregates:
    def test_sum(self):
        assert aggregate("SUM", VALUES) == 10.0

    def test_min(self):
        assert aggregate("MIN", VALUES) == 1.0

    def test_max(self):
        assert aggregate("MAX", VALUES) == 5.0

    def test_count_ignores_nan(self):
        assert aggregate("COUNT", VALUES) == 4.0

    def test_avg(self):
        assert aggregate("AVG", VALUES) == 2.5

    def test_count_distinct(self):
        assert aggregate("COUNT_DISTINCT", VALUES) == 3.0

    def test_var_population(self):
        expected = np.var([1, 2, 2, 5])
        assert aggregate("VAR", VALUES) == pytest.approx(expected)

    def test_var_sample(self):
        expected = np.var([1, 2, 2, 5], ddof=1)
        assert aggregate("VAR_SAMPLE", VALUES) == pytest.approx(expected)

    def test_std_population(self):
        assert aggregate("STD", VALUES) == pytest.approx(np.std([1, 2, 2, 5]))

    def test_std_sample(self):
        assert aggregate("STD_SAMPLE", VALUES) == pytest.approx(np.std([1, 2, 2, 5], ddof=1))

    def test_entropy_uniform(self):
        values = np.asarray([1.0, 2.0, 3.0, 4.0])
        assert aggregate("ENTROPY", values) == pytest.approx(np.log(4))

    def test_entropy_constant_is_zero(self):
        assert aggregate("ENTROPY", np.asarray([7.0, 7.0, 7.0])) == 0.0

    def test_kurtosis_of_constant_is_zero(self):
        assert aggregate("KURTOSIS", np.asarray([3.0, 3.0, 3.0])) == 0.0

    def test_kurtosis_of_constant_is_zero_despite_mean_rounding(self):
        """Constant groups whose accumulated mean is a few ulps off the value
        (twelve copies of 19.99 -> std ~3.6e-15) must still report 0.0: zero
        variance is decided on ``max == min``, not on the noisy std."""
        assert aggregate("KURTOSIS", np.full(12, 19.99)) == 0.0
        assert aggregate("KURTOSIS", np.full(50, 100.1)) == 0.0

    def test_kurtosis_matches_scipy(self):
        from scipy.stats import kurtosis

        values = np.asarray([1.0, 2.0, 4.0, 8.0, 16.0])
        assert aggregate("KURTOSIS", values) == pytest.approx(kurtosis(values, fisher=True, bias=True))

    def test_mode_most_frequent(self):
        assert aggregate("MODE", VALUES) == 2.0

    def test_mode_tie_prefers_smaller(self):
        assert aggregate("MODE", np.asarray([4.0, 4.0, 1.0, 1.0])) == 1.0

    def test_mode_tie_breaking_is_order_independent(self):
        """Ties break to the smallest value regardless of input order.

        The sort-based grouped kernel relies on this contract; a frequency
        dict keyed by first appearance would return 4.0 for the reversed
        input.
        """
        forward = np.asarray([1.0, 1.0, 4.0, 4.0])
        assert aggregate("MODE", forward) == 1.0
        assert aggregate("MODE", forward[::-1]) == 1.0

    def test_mode_tie_with_negative_values(self):
        assert aggregate("MODE", np.asarray([-3.0, -3.0, -8.0, -8.0, 5.0])) == -8.0

    def test_mode_three_way_tie(self):
        assert aggregate("MODE", np.asarray([7.5, 2.5, -1.5])) == -1.5

    def test_mad(self):
        values = np.asarray([1.0, 2.0, 3.0, 100.0])
        med = np.median(values)
        expected = np.median(np.abs(values - med))
        assert aggregate("MAD", values) == pytest.approx(expected)

    def test_median(self):
        assert aggregate("MEDIAN", VALUES) == 2.0


class TestEdgeCases:
    @pytest.mark.parametrize("name", sorted(AGGREGATE_FUNCTIONS))
    def test_empty_group(self, name):
        result = aggregate(name, np.asarray([], dtype=float))
        if name.startswith("COUNT"):
            assert result == 0.0
        else:
            assert np.isnan(result)

    @pytest.mark.parametrize("name", sorted(AGGREGATE_FUNCTIONS))
    def test_all_nan_group(self, name):
        result = aggregate(name, np.asarray([np.nan, np.nan]))
        if name.startswith("COUNT"):
            assert result == 0.0
        else:
            assert np.isnan(result)

    @pytest.mark.parametrize("name", sorted(AGGREGATE_FUNCTIONS))
    def test_single_value_group_is_finite_or_nan(self, name):
        result = aggregate(name, np.asarray([4.2]))
        assert isinstance(result, float)

    def test_unknown_function_raises(self):
        for name in ("FROBNICATE", "QUANTILE:0.25", "TOP_K_SHARE:3"):
            with pytest.raises(KeyError):
                aggregate(name, VALUES)
            with pytest.raises(KeyError):
                normalise_aggregate_name(name)


class TestHelpers:
    def test_normalise_name(self):
        assert normalise_aggregate_name("count distinct") == "COUNT_DISTINCT"
        assert normalise_aggregate_name(" avg ") == "AVG"

    def test_categorical_safe_set_subset_of_all(self):
        assert CATEGORICAL_SAFE_AGGREGATES <= set(AGGREGATE_FUNCTIONS)

    def test_column_to_aggregable_numeric_passthrough(self):
        column = Column("x", [1.0, 2.0])
        assert list(column_to_aggregable(column)) == [1.0, 2.0]

    def test_column_to_aggregable_categorical_codes(self):
        column = Column("x", ["a", "b", "a", None])
        codes = column_to_aggregable(column)
        assert codes[0] == codes[2]
        assert codes[0] != codes[1]
        assert np.isnan(codes[3])
