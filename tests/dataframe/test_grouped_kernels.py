"""Kernel-equivalence property suite for the vectorized grouped aggregates.

For every one of the 15 aggregation functions, ``GroupedAggregator`` must
reproduce the per-group Python reference
``[aggregate(name, values[codes == g]) for g in range(n_groups)]``
**bit-for-bit** on arbitrary finite floats -- across NaN-heavy inputs,
single-row groups, all-NaN groups, constant groups and groups no row
references at all (empty groups).  Bit-identity (rather than a float
tolerance) is possible because both paths honour the accumulation-order
contract of :mod:`repro.dataframe.aggregates`: the reference totals through
a strict left-to-right sum and ``np.bincount`` adds its weights one at a
time in row order, so every floating-point addition associates identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.aggregates import AGGREGATE_FUNCTIONS, aggregate
from repro.dataframe.column import renumber_codes_compact
from repro.dataframe.grouped_kernels import (
    GROUPED_KERNELS,
    SORT_BASED_KERNELS,
    GroupedAggregator,
)

nasty_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

def reference(name: str, codes: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """The per-group Python path the kernels must reproduce."""
    return np.asarray(
        [aggregate(name, values[codes == g]) for g in range(n_groups)], dtype=np.float64
    )


def assert_same_nan_placement(got: np.ndarray, want: np.ndarray, context: str) -> None:
    assert np.array_equal(np.isnan(got), np.isnan(want)), (
        f"{context}: NaN placement differs: {got} vs {want}"
    )


@st.composite
def grouped_inputs(draw, value_strategy, max_rows=80):
    """(codes, values, n_groups) with empty, single-row and all-NaN groups.

    ``n_groups`` may exceed the largest referenced code, so trailing empty
    groups are exercised; NaNs are injected row-wise with high probability so
    all-NaN groups occur regularly.
    """
    n = draw(st.integers(min_value=0, max_value=max_rows))
    n_groups = draw(st.integers(min_value=1, max_value=10))
    codes = np.asarray(
        draw(st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    values = np.asarray(
        draw(st.lists(st.one_of(st.just(float("nan")), value_strategy), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    return codes, values, n_groups


class TestKernelEquivalenceProperties:
    @pytest.mark.parametrize("name", sorted(GROUPED_KERNELS))
    @given(data=grouped_inputs(nasty_floats))
    @settings(max_examples=60, deadline=None)
    def test_kernels_bit_identical_on_arbitrary_floats(self, name, data):
        codes, values, n_groups = data
        got = GroupedAggregator(codes, values, n_groups).compute(name)
        want = reference(name, codes, values, n_groups)
        assert_same_nan_placement(got, want, name)
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite], want[finite]), f"{name}: {got} != {want}"

    @given(data=grouped_inputs(nasty_floats, max_rows=40))
    @settings(max_examples=25, deadline=None)
    def test_shared_intermediates_are_not_corrupted_across_kernels(self, data):
        """Evaluating all 15 kernels off one aggregator matches one-shot calls."""
        codes, values, n_groups = data
        aggregator = GroupedAggregator(codes, values, n_groups)
        shared = {name: aggregator.compute(name) for name in sorted(GROUPED_KERNELS)}
        for name, got in shared.items():
            lone = GroupedAggregator(codes, values, n_groups).compute(name)
            assert_same_nan_placement(got, lone, name)
            finite = ~np.isnan(lone)
            assert np.array_equal(got[finite], lone[finite]), f"{name} order-dependent"


@st.composite
def nan_bearing_grouped_inputs(draw, max_rows=60):
    """(codes, values, n_groups) where **every group carries NaN rows**.

    The generic strategy injects NaNs probabilistically; this one guarantees
    NaN-bearing groups (NaN rows interleaved at arbitrary positions between
    finite values, duplicated values included so MODE/ENTROPY runs straddle
    NaN gaps), pinning the lexsort-driven kernels' NaN placement explicitly.
    """
    n_groups = draw(st.integers(min_value=1, max_value=6))
    codes_list, values_list = [], []
    for g in range(n_groups):
        n = draw(st.integers(min_value=1, max_value=max_rows // n_groups + 1))
        finite = st.one_of(nasty_floats, st.sampled_from([0.0, -0.0, 1.5, -1.5]))
        group_values = draw(
            st.lists(st.one_of(st.just(float("nan")), finite), min_size=n, max_size=n)
        )
        # At least one NaN per group, at a drawn position.
        group_values.insert(draw(st.integers(0, n)), float("nan"))
        values_list.extend(group_values)
        codes_list.extend([g] * len(group_values))
    # Interleave groups: a drawn permutation keeps per-group row order
    # irrelevant to the test's point while exercising scattered codes.
    order = draw(st.permutations(range(len(codes_list))))
    codes = np.asarray([codes_list[i] for i in order], dtype=np.int64)
    values = np.asarray([values_list[i] for i in order], dtype=np.float64)
    return codes, values, n_groups


class TestNaNPlacementInSortDrivenKernels:
    """NaN semantics of the lexsort-driven family, pinned bit-for-bit.

    MEDIAN / MAD / MODE / ENTROPY (plus the rest of ``SORT_BASED_KERNELS``)
    strip NaNs *before* sorting, so a NaN row must never shift a segment
    boundary or split an equal-value run -- the per-group Python reference
    (which cleans each group independently) is the oracle.
    """

    @pytest.mark.parametrize("name", sorted(SORT_BASED_KERNELS))
    @given(data=nan_bearing_grouped_inputs())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_on_nan_bearing_groups(self, name, data):
        codes, values, n_groups = data
        got = GroupedAggregator(codes, values, n_groups).compute(name)
        want = reference(name, codes, values, n_groups)
        assert_same_nan_placement(got, want, name)
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite], want[finite]), f"{name}: {got} != {want}"

    @given(data=nan_bearing_grouped_inputs())
    @settings(max_examples=25, deadline=None)
    def test_provided_sorted_values_are_bit_neutral(self, data):
        """Constructor-provided sorted values (the engine's cached ones)
        must reproduce the locally-sorted results bit-for-bit on NaN-bearing
        groups -- they cover the NaN-stripped rows only."""
        codes, values, n_groups = data
        donor = GroupedAggregator(codes, values, n_groups)
        svals = donor.sorted_values()
        for name in sorted(SORT_BASED_KERNELS):
            got = GroupedAggregator(
                codes, values, n_groups, sorted_values=svals
            ).compute(name)
            want = reference(name, codes, values, n_groups)
            assert_same_nan_placement(got, want, name)
            finite = ~np.isnan(want)
            assert np.array_equal(got[finite], want[finite]), name

    @given(data=nan_bearing_grouped_inputs())
    @settings(max_examples=25, deadline=None)
    def test_sorted_cache_hook_is_bit_neutral(self, data):
        """The ``sorted_cache`` hook path (how the engine injects cached
        sorted values) is exercised exactly once and is bit-neutral."""
        codes, values, n_groups = data
        donor = GroupedAggregator(codes, values, n_groups)
        calls = []

        def cache(compute):
            calls.append(compute)
            return donor.sorted_values()

        aggregator = GroupedAggregator(codes, values, n_groups)
        aggregator.sorted_cache = cache
        for name in sorted(SORT_BASED_KERNELS):
            got = aggregator.compute(name)
            want = reference(name, codes, values, n_groups)
            assert_same_nan_placement(got, want, name)
            finite = ~np.isnan(want)
            assert np.array_equal(got[finite], want[finite]), name
        assert len(calls) == 1  # one shared sort across every sort-based kernel

    @given(data=nan_bearing_grouped_inputs())
    @settings(max_examples=25, deadline=None)
    def test_mad_order_cache_hook_is_bit_neutral(self, data):
        """MAD's deviation-order hook (the engine's (sort key, MEDIAN) cache
        entry) is consulted exactly once and is bit-neutral on NaN-bearing
        groups; a donor aggregator supplies the cached order."""
        codes, values, n_groups = data
        donor = GroupedAggregator(codes, values, n_groups)
        calls = []

        def mad_cache(compute):
            calls.append(compute)
            return donor.mad_sort_order()

        aggregator = GroupedAggregator(codes, values, n_groups)
        aggregator.mad_order_cache = mad_cache
        got = aggregator.compute("MAD")
        aggregator.compute("MAD")  # second evaluation reuses the memo
        want = reference("MAD", codes, values, n_groups)
        assert_same_nan_placement(got, want, "MAD")
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite], want[finite])
        assert len(calls) == 1

    def test_only_mad_resolves_the_deviation_order(self):
        """Every kernel except MAD must leave the deviation-order hook
        untouched -- the (sort key, MEDIAN) cache entry is MAD-only traffic."""
        codes = np.asarray([0, 1, 0, 1], dtype=np.int64)
        values = np.asarray([1.0, 2.0, np.nan, 4.0])
        aggregator = GroupedAggregator(codes, values, 2)
        aggregator.mad_order_cache = lambda compute: pytest.fail(
            "non-MAD kernel resolved the MAD deviation order"
        )
        for name in sorted(GROUPED_KERNELS - {"MAD"}):
            aggregator.compute(name)

    def test_sorted_values_cover_stripped_rows_only(self):
        codes = np.asarray([0, 0, 1, 1], dtype=np.int64)
        values = np.asarray([2.0, np.nan, 1.0, np.nan])
        assert GroupedAggregator(codes, values, 2).sorted_values().tolist() == [2.0, 1.0]

    def test_misaligned_provided_sorted_values_rejected(self):
        codes = np.asarray([0, 0, 1], dtype=np.int64)
        values = np.asarray([2.0, np.nan, 1.0])
        with pytest.raises(ValueError, match="sorted_values"):
            GroupedAggregator(codes, values, 2, sorted_values=np.arange(3.0))

    def test_misaligned_cached_sorted_values_rejected(self):
        codes = np.asarray([0, 0, 1], dtype=np.int64)
        values = np.asarray([2.0, np.nan, 1.0])
        aggregator = GroupedAggregator(codes, values, 2)
        aggregator.sorted_cache = lambda compute: np.arange(3.0)
        with pytest.raises(ValueError, match="cached sorted values"):
            aggregator.compute("MEDIAN")

    def test_accumulation_kernels_never_resolve_an_order(self):
        """SUM / AVG / VAR / STD stay pure bincount passes: the order cache
        must not be consulted (laziness is what keeps accumulation-only
        plans sort-free in the engine)."""
        codes = np.asarray([0, 1, 0, 1], dtype=np.int64)
        values = np.asarray([1.0, 2.0, np.nan, 4.0])
        aggregator = GroupedAggregator(codes, values, 2)
        aggregator.sorted_cache = lambda compute: pytest.fail(
            "accumulation kernel resolved the sorted values"
        )
        for name in sorted(GROUPED_KERNELS - SORT_BASED_KERNELS):
            aggregator.compute(name)


class TestEdgeCaseSemantics:
    @pytest.mark.parametrize("name", sorted(GROUPED_KERNELS))
    def test_empty_and_all_nan_groups(self, name):
        """Groups 0 (no rows) and 2 (all NaN) follow the empty-group contract."""
        codes = np.asarray([1, 1, 2, 2], dtype=np.int64)
        values = np.asarray([1.0, 3.0, np.nan, np.nan])
        got = GroupedAggregator(codes, values, 3).compute(name)
        want = reference(name, codes, values, 3)
        assert_same_nan_placement(got, want, name)
        for g in (0, 2):
            if name.startswith("COUNT"):
                assert got[g] == 0.0
            else:
                assert np.isnan(got[g])

    @pytest.mark.parametrize("name", sorted(GROUPED_KERNELS))
    def test_single_row_groups(self, name):
        codes = np.arange(5, dtype=np.int64)
        values = np.asarray([-2.5, 0.0, 0.25, 7.0, np.nan])
        got = GroupedAggregator(codes, values, 5).compute(name)
        want = reference(name, codes, values, 5)
        assert_same_nan_placement(got, want, name)
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite], want[finite])

    @pytest.mark.parametrize("name", sorted(GROUPED_KERNELS))
    def test_totally_empty_input(self, name):
        got = GroupedAggregator(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), 4
        ).compute(name)
        assert got.shape == (4,)
        if name.startswith("COUNT"):
            assert (got == 0.0).all()
        else:
            assert np.isnan(got).all()

    def test_kurtosis_constant_group_is_exactly_zero(self):
        """Constant groups are zero-variance by value range, not by noisy std.

        Twelve copies of 19.99 accumulate to a mean a few ulps off, which
        historically made the ``std == 0`` branch flip; both paths now return
        exactly 0.0.
        """
        codes = np.zeros(12, dtype=np.int64)
        values = np.full(12, 19.99)
        assert GroupedAggregator(codes, values, 1).compute("KURTOSIS")[0] == 0.0
        assert aggregate("KURTOSIS", values) == 0.0

    def test_mode_tie_breaks_to_smallest_per_group(self):
        codes = np.asarray([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int64)
        values = np.asarray([4.0, 4.0, 1.0, 1.0, -3.0, -3.0, -8.0, -8.0])
        got = GroupedAggregator(codes, values, 2).compute("MODE")
        assert got[0] == 1.0  # ties 4.0 vs 1.0 -> smaller wins
        assert got[1] == -8.0  # ties -3.0 vs -8.0 -> smaller wins

    def test_entropy_of_singleton_group_is_zero(self):
        got = GroupedAggregator(np.zeros(3, dtype=np.int64), np.full(3, 7.0), 1).compute("ENTROPY")
        assert got[0] == 0.0

    def test_median_even_group_matches_numpy(self):
        codes = np.zeros(4, dtype=np.int64)
        values = np.asarray([1.0, 9.0, 3.0, 5.0])
        assert GroupedAggregator(codes, values, 1).compute("MEDIAN")[0] == np.median(values)

    def test_counts_property_exposed(self):
        agg = GroupedAggregator(
            np.asarray([0, 0, 2], dtype=np.int64), np.asarray([1.0, np.nan, 2.0]), 3
        )
        assert list(agg.counts) == [1, 0, 1]

    def test_unknown_kernel_raises(self):
        agg = GroupedAggregator(np.zeros(1, dtype=np.int64), np.ones(1), 1)
        for name in ("FROBNICATE", "QUANTILE:0.25", "TOP_K_SHARE"):
            with pytest.raises(KeyError):
                agg.compute(name)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            GroupedAggregator(np.zeros(2, dtype=np.int64), np.ones(3), 1)

    def test_all_fifteen_aggregates_have_kernels(self):
        assert GROUPED_KERNELS == set(AGGREGATE_FUNCTIONS)
        assert len(GROUPED_KERNELS) == 15


def lexsorted_mad(codes: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """MAD through ``np.lexsort`` of the deviations: the per-group median of
    ``|x - group median|``, read off one (code, deviation) lexsort."""
    valid = ~np.isnan(values)
    codes, values = codes[valid], values[valid]
    counts = np.bincount(codes, minlength=n_groups)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)

    def segment_medians(sorted_values):
        result = np.full(n_groups, np.nan)
        for g in np.flatnonzero(counts):
            s, c = starts[g], counts[g]
            lo = sorted_values[s + (c - 1) // 2]
            if c % 2:
                result[g] = lo
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    result[g] = (lo + sorted_values[s + c // 2]) / 2.0
        return result

    medians = segment_medians(values[np.lexsort((values, codes))])
    with np.errstate(over="ignore", invalid="ignore"):
        deviations = np.abs(values - medians[codes])
    return segment_medians(deviations[np.lexsort((deviations, codes))])


#: Near the float64 limits ``|x - median|`` overflows to inf (and inf - inf
#: is NaN); symmetric pairs around a median give tied deviations.
MAX_FLOAT = np.finfo(np.float64).max
EXTREME_FLOATS = st.sampled_from(
    [MAX_FLOAT, -MAX_FLOAT, 1e308, -1e308, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 3.0]
)


@st.composite
def tied_deviation_inputs(draw):
    """(codes, values, n_groups) drawn from a small value pool, so values and
    deviations repeat within groups, with NaN rows and group counts past
    65,536 (the int64 path of the deviation order's group pass)."""
    pool = draw(
        st.lists(st.one_of(EXTREME_FLOATS, nasty_floats), min_size=1, max_size=5)
    )
    n = draw(st.integers(0, 60))
    n_groups = draw(st.sampled_from([1, 2, 3, 5, 1 << 16, (1 << 16) + 1, 70_000]))
    active = draw(st.integers(1, min(n_groups, 6)))
    first = draw(st.integers(0, n_groups - active))
    codes = np.asarray(
        draw(st.lists(st.integers(first, first + active - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    values = np.asarray(
        draw(
            st.lists(
                st.one_of(st.just(float("nan")), st.sampled_from(pool)),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.float64,
    )
    return codes, values, n_groups


class TestMADDeviationOrder:
    """MAD's deviation order is an argsort of the deviations plus a stable
    group pass, not a lexsort; its ties may come in another row order, but
    MAD reads only the deviation values at the median positions."""

    @given(data=tied_deviation_inputs())
    @settings(max_examples=200, deadline=None)
    def test_mad_bit_identical_to_lexsorted_deviations(self, data):
        codes, values, n_groups = data
        got = GroupedAggregator(codes, values, n_groups).compute("MAD")
        want = lexsorted_mad(codes, values, n_groups)
        assert_same_nan_placement(got, want, "MAD")
        assert np.array_equal(got, want, equal_nan=True), f"{got} != {want}"
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_overflowing_deviations_sort_as_inf_and_nan(self):
        # Group 0's median overflows to inf, so both deviations are inf;
        # group 1's median is inf - inf = NaN; group 2's median is MAX_FLOAT,
        # with one inf deviation and two tied zeros.
        values = np.asarray(
            [MAX_FLOAT, MAX_FLOAT, np.inf, -np.inf, -MAX_FLOAT, MAX_FLOAT, MAX_FLOAT]
        )
        codes = np.asarray([0, 0, 1, 1, 2, 2, 2], dtype=np.int64)
        got = GroupedAggregator(codes, values, 3).compute("MAD")
        want = lexsorted_mad(codes, values, 3)
        assert np.isinf(got[0])
        assert np.isnan(got[1])
        assert got[2] == 0.0
        assert np.array_equal(got, want, equal_nan=True)


def first_appearance_renumbering(codes):
    """Pure-Python :func:`renumber_codes_compact`: the distinct codes in
    first-appearance order, each row's new id and each group's first row."""
    ordered, first_rows, new_id = [], [], {}
    for row, code in enumerate(codes):
        if code not in new_id:
            new_id[code] = len(ordered)
            ordered.append(code)
            first_rows.append(row)
    return ordered, [new_id[code] for code in codes], first_rows


class TestRenumberCodesCompact:
    @given(st.lists(st.integers(0, 40), max_size=80), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_first_appearance_reference(self, codes, slack):
        ordered, renumbered, first_rows = first_appearance_renumbering(codes)
        array = np.asarray(codes, dtype=np.int64)
        bound = max(codes, default=-1) + 1
        for n_codes in (None, bound + slack):
            got = renumber_codes_compact(array, n_codes)
            assert [a.dtype for a in got] == [np.int64] * 3
            assert got[0].tolist() == ordered
            assert got[1].tolist() == renumbered
            assert got[2].tolist() == first_rows
