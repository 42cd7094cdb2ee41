"""Property-based tests for the table engine (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dataframe.aggregates import aggregate
from repro.dataframe.column import Column, DType
from repro.dataframe.groupby import group_by_aggregate, group_indices
from repro.dataframe.predicates import Equals, Range
from repro.dataframe.table import Table

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
float_lists = st.lists(finite_floats, min_size=1, max_size=60)
key_lists = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=60)


@st.composite
def keyed_table(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    keys = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n))
    values = draw(st.lists(finite_floats, min_size=n, max_size=n))
    return Table([Column("k", keys, dtype=DType.CATEGORICAL), Column("v", values, dtype=DType.NUMERIC)])


class TestPredicateProperties:
    @given(values=float_lists, threshold=finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_lower_and_upper_ranges_cover_rows_and_meet_at_the_bound(self, values, threshold):
        table = Table([Column("x", values, dtype=DType.NUMERIC)])
        at_least = Range("x", low=threshold).mask(table)
        at_most = Range("x", high=threshold).mask(table)
        assert np.all(at_least | at_most)
        np.testing.assert_array_equal(at_least & at_most, np.asarray(values) == threshold)

    @given(values=float_lists, low=finite_floats, high=finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_narrower_range_selects_subset(self, values, low, high):
        if low > high:
            low, high = high, low
        table = Table([Column("x", values, dtype=DType.NUMERIC)])
        wide = Range("x", low=low).mask(table)
        narrow = Range("x", low=low, high=high).mask(table)
        assert np.all(narrow <= wide)

    @given(keys=key_lists)
    @settings(max_examples=50, deadline=None)
    def test_equality_masks_are_disjoint_and_cover(self, keys):
        table = Table([Column("k", keys, dtype=DType.CATEGORICAL)])
        masks = [Equals("k", v).mask(table) for v in ["a", "b", "c", "d"]]
        total = np.sum(masks, axis=0)
        assert np.all(total == 1)


class TestGroupByProperties:
    @given(table=keyed_table())
    @settings(max_examples=50, deadline=None)
    def test_group_indices_partition_rows(self, table):
        groups = group_indices(table, ["k"])
        all_indices = np.concatenate(list(groups.values()))
        assert sorted(all_indices.tolist()) == list(range(table.num_rows))

    @given(table=keyed_table())
    @settings(max_examples=50, deadline=None)
    def test_sum_of_group_sums_equals_total(self, table):
        out = group_by_aggregate(table, ["k"], "v", "SUM")
        np.testing.assert_allclose(
            np.nansum(out.column("feature").values),
            table.column("v").values.sum(),
            rtol=1e-9,
            atol=1e-6,
        )

    @given(table=keyed_table())
    @settings(max_examples=50, deadline=None)
    def test_count_matches_group_sizes(self, table):
        out = group_by_aggregate(table, ["k"], "v", "COUNT")
        assert out.column("feature").values.sum() == table.num_rows

    @given(table=keyed_table())
    @settings(max_examples=50, deadline=None)
    def test_min_max_bound_avg(self, table):
        mins = group_by_aggregate(table, ["k"], "v", "MIN").column("feature").values
        maxs = group_by_aggregate(table, ["k"], "v", "MAX").column("feature").values
        avgs = group_by_aggregate(table, ["k"], "v", "AVG").column("feature").values
        assert np.all(mins <= avgs + 1e-9)
        assert np.all(avgs <= maxs + 1e-9)


class TestAggregateProperties:
    @given(values=float_lists)
    @settings(max_examples=80, deadline=None)
    def test_std_is_sqrt_var(self, values):
        arr = np.asarray(values)
        np.testing.assert_allclose(
            aggregate("STD", arr), np.sqrt(aggregate("VAR", arr)), rtol=1e-9, atol=1e-9
        )

    @given(values=float_lists)
    @settings(max_examples=80, deadline=None)
    def test_median_between_min_and_max(self, values):
        arr = np.asarray(values)
        assert aggregate("MIN", arr) <= aggregate("MEDIAN", arr) <= aggregate("MAX", arr)

    @given(values=float_lists)
    @settings(max_examples=80, deadline=None)
    def test_count_distinct_at_most_count(self, values):
        arr = np.asarray(values)
        assert aggregate("COUNT_DISTINCT", arr) <= aggregate("COUNT", arr)

    @given(values=float_lists)
    @settings(max_examples=80, deadline=None)
    def test_entropy_nonnegative_and_bounded(self, values):
        arr = np.asarray(values)
        entropy = aggregate("ENTROPY", arr)
        assert entropy >= 0.0
        assert entropy <= np.log(len(values)) + 1e-9


class TestJoinProperties:
    @given(table=keyed_table())
    @settings(max_examples=50, deadline=None)
    def test_left_join_with_aggregate_preserves_rows(self, table):
        feature = group_by_aggregate(table, ["k"], "v", "AVG")
        joined = table.left_join(feature, on="k")
        assert joined.num_rows == table.num_rows
        # Every key present in the table has a group, so no NaNs are introduced.
        assert not np.isnan(joined.column("feature").values).any()
