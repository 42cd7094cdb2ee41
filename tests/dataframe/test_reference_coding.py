"""Dictionary-coded categorical paths against the object-array references.

Every consumer of categorical codes -- grouping, joins, equality masks,
filter-local aggregable codes and the first-appearance renumbering -- is
compared with the function it replaced, kept in ``_reference_coding.py``.  Inputs mix ``None``, empty
tables, unorderable label types (``str`` with ``int``), labels that compare
equal across types (``1``, ``1.0``, ``True``), the string ``"None"``,
unhashable labels, join sides that share a dictionary and sides that do not,
and appends that add new labels.

Raw code numbering is not observable (the references number labels in
sorted order, the coded paths by first appearance), so the comparisons are
on partitions, labels up to equality, masks, join matches and gathered
tables.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.aggregates import column_to_aggregable
from repro.dataframe.column import Column, DType, renumber_codes_compact
from repro.dataframe.groupby import factorize_column
from repro.dataframe.predicates import Equals
from repro.dataframe.table import Table, _join_match

import _reference_coding as ref

#: Hashable labels: orderable strings, an int / str mix that np.unique
#: cannot sort, the string "None", and 1 / 1.0 / True, which compare equal.
HASHABLE = ["a", "b", "c", "None", 1, 2, 1.0, True, 0, False, 2.5]
ORDERABLE = ["a", "b", "c", "None", "zz"]

hashable_labels = st.sampled_from(HASHABLE + [None])
orderable_labels = st.sampled_from(ORDERABLE + [None])
unhashable_labels = st.sampled_from([[1], [2], ("t",), "a", None])


def column_of(labels, name: str = "k") -> Column:
    return Column(name, list(labels), dtype=DType.CATEGORICAL)


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Rows share a code under *a* exactly when they share one under *b*."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def assert_same_factorization(column: Column) -> None:
    codes, labels = factorize_column(column)
    ref_codes, ref_labels = ref.factorize_column(column)
    assert codes.dtype == np.int64
    assert same_partition(codes, ref_codes)
    for code, ref_code in zip(codes.tolist(), ref_codes.tolist()):
        label, ref_label = labels[code], ref_labels[ref_code]
        assert (label is None) == (ref_label is None)
        assert label == ref_label


def derived(column: Column, data) -> Column:
    """A column sharing *column*'s dictionary (a take of random rows)."""
    n = len(column)
    rows = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=12)) if n else []
    return column.take(np.asarray(rows, dtype=np.int64))


# ----------------------------------------------------------------------
# factorize_column
# ----------------------------------------------------------------------
class TestFactorizeColumn:
    @given(st.lists(hashable_labels, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, labels):
        assert_same_factorization(column_of(labels))

    @given(st.lists(orderable_labels, max_size=40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_derived_column_matches_reference(self, labels, data):
        assert_same_factorization(derived(column_of(labels), data))

    @given(st.lists(unhashable_labels, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_unhashable_labels_group_by_equality(self, labels):
        column = column_of(labels)
        codes, coded_labels = factorize_column(column)
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                assert (codes[i] == codes[j]) == (a == b)
        assert [coded_labels[c] for c in codes.tolist()] == labels
        try:
            ref_codes, _ = ref.factorize_column(column)
        except TypeError:
            return  # the reference cannot code this mix at all
        assert same_partition(codes, ref_codes)

    def test_empty_and_all_missing(self):
        assert_same_factorization(column_of([]))
        assert_same_factorization(column_of([None, None]))


# ----------------------------------------------------------------------
# renumber_codes_compact
# ----------------------------------------------------------------------
class TestRenumberCodesCompact:
    @given(st.lists(st.integers(0, 30), max_size=60), st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, codes, slack):
        codes = np.asarray(codes, dtype=np.int64)
        expected = ref.renumber_codes_compact(codes)
        bound = int(codes.max(initial=-1)) + 1
        for n_codes in (None, bound + slack):
            actual = renumber_codes_compact(codes, n_codes)
            for a, b in zip(actual, expected):
                assert a.dtype == np.int64
                assert a.tolist() == b.tolist()


# ----------------------------------------------------------------------
# Equals masks
# ----------------------------------------------------------------------
class TestMasks:
    @given(st.lists(hashable_labels, max_size=40), hashable_labels, st.data())
    @settings(max_examples=120, deadline=None)
    def test_equals_matches_reference(self, labels, value, data):
        table = Table([column_of(labels)])
        for view in (table, Table([derived(table.column("k"), data)])):
            mask = Equals("k", value).mask(view)
            assert mask.dtype == np.bool_
            assert mask.tolist() == ref.equals_mask(view.column("k"), value).tolist()

    @given(st.lists(unhashable_labels, max_size=30), unhashable_labels)
    @settings(max_examples=60, deadline=None)
    def test_equals_on_unhashable_labels_matches_reference(self, labels, value):
        table = Table([column_of(labels)])
        expected = ref.equals_mask(table.column("k"), value)
        assert Equals("k", value).mask(table).tolist() == expected.tolist()


# ----------------------------------------------------------------------
# column_to_aggregable(rows=)
# ----------------------------------------------------------------------
def assert_same_floats(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert a[~np.isnan(a)].tolist() == b[~np.isnan(b)].tolist()


class TestColumnToAggregable:
    @given(st.lists(hashable_labels, max_size=40), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, labels, data):
        column = column_of(labels)
        rows = np.asarray(
            sorted(data.draw(st.sets(st.integers(0, max(len(labels) - 1, 0)), max_size=40)))
            if labels
            else [],
            dtype=np.int64,
        )
        assert_same_floats(column_to_aggregable(column), ref.column_to_aggregable(column))
        assert_same_floats(
            column_to_aggregable(column, rows=rows), ref.column_to_aggregable(column, rows=rows)
        )

    def test_unhashable_labels_are_coded_by_equality(self):
        """The reference raises here; the coded path uses the scan fallback."""
        column = column_of([[1], None, [2], [1]])
        with pytest.raises(TypeError):
            ref.column_to_aggregable(column)
        assert_same_floats(column_to_aggregable(column), np.array([0.0, np.nan, 1.0, 0.0]))
        assert_same_floats(
            column_to_aggregable(column, rows=np.array([2, 3])),
            np.array([np.nan, np.nan, 0.0, 1.0]),
        )


# ----------------------------------------------------------------------
# _join_key_codes / _join_match
# ----------------------------------------------------------------------
def assert_same_join(left: Table, right: Table, on: List[str]) -> None:
    expected = ref.join_match(left, right, on)
    assert _join_match(left, right, on).tolist() == expected.tolist()
    joined = left.left_join(right, on=on)
    for name in right.column_names:
        if name in on:
            continue
        values = joined.column(name).values
        source = right.column(name).values
        gathered = [None if m < 0 else source[m] for m in expected.tolist()]
        if right.column(name).is_numeric_like:
            gathered = np.asarray([np.nan if v is None else v for v in gathered], dtype=np.float64)
            assert np.array_equal(values, gathered, equal_nan=True)
        else:
            assert values.tolist() == gathered


def keyed(labels, payload_name: str = "payload") -> Table:
    return Table(
        [
            column_of(labels),
            Column(payload_name, np.arange(len(labels), dtype=np.float64), dtype=DType.NUMERIC),
        ]
    )


class TestJoin:
    @given(st.lists(hashable_labels, max_size=25), st.lists(hashable_labels, max_size=25))
    @settings(max_examples=120, deadline=None)
    def test_sides_with_separate_dictionaries(self, left, right):
        assert_same_join(keyed(left, "lp"), keyed(right), ["k"])

    @given(st.lists(hashable_labels, min_size=1, max_size=30), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sides_sharing_one_dictionary(self, labels, data):
        source = keyed(labels)
        n = len(labels)
        left_rows = data.draw(st.lists(st.integers(0, n - 1), max_size=20))
        right_rows = data.draw(st.lists(st.integers(0, n - 1), max_size=20))
        left = source.take(np.asarray(left_rows, dtype=np.int64)).rename({"payload": "lp"})
        right = source.take(np.asarray(right_rows, dtype=np.int64))
        assert left.column("k").dictionary is right.column("k").dictionary
        assert_same_join(left, right, ["k"])

    @given(
        st.lists(st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 2.5])), max_size=20),
        st.lists(hashable_labels, max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_numeric_key_against_categorical_key(self, numbers, labels):
        numeric = Table(
            [
                Column("k", numbers, dtype=DType.NUMERIC),
                Column("np", np.arange(len(numbers), dtype=np.float64), dtype=DType.NUMERIC),
            ]
        )
        assert_same_join(numeric, keyed(labels), ["k"])
        assert_same_join(keyed(labels, "lp"), numeric, ["k"])

    @given(
        st.lists(st.tuples(orderable_labels, hashable_labels), max_size=20),
        st.lists(st.tuples(orderable_labels, hashable_labels), max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_multi_key(self, left_rows, right_rows):
        def table(rows, payload):
            return Table(
                [
                    column_of([a for a, _ in rows], "k1"),
                    column_of([b for _, b in rows], "k2"),
                    Column(payload, np.arange(len(rows), dtype=np.float64), dtype=DType.NUMERIC),
                ]
            )

        assert_same_join(table(left_rows, "lp"), table(right_rows, "rp"), ["k1", "k2"])

    @given(st.lists(unhashable_labels, max_size=15), st.lists(unhashable_labels, max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_unhashable_keys_match_by_equality(self, left, right):
        match = _join_match(keyed(left, "lp"), keyed(right), ["k"])
        for i, label in enumerate(left):
            hits = [j for j, other in enumerate(right) if other == label]
            assert match[i] == (hits[0] if hits else -1)


# ----------------------------------------------------------------------
# Appends that add new labels
# ----------------------------------------------------------------------
class TestAppends:
    @given(
        st.lists(hashable_labels, max_size=25),
        st.lists(hashable_labels, max_size=25),
        hashable_labels,
    )
    @settings(max_examples=100, deadline=None)
    def test_appended_column_matches_reference(self, head, tail, value):
        table = keyed(head)
        before = table.column("k")
        before.coding  # coded before the append, so the append extends it
        derived_before = Table([before.take(np.arange(len(head), dtype=np.int64))])
        table.append_rows(keyed(tail))
        column = table.column("k")
        assert column.codes[: len(head)].tolist() == before.codes.tolist()
        assert column.dictionary.shares_codes_with(before.dictionary)
        decoded = column.values.tolist()
        assert [v is None for v in decoded] == [v is None for v in head + tail]
        assert all(v == w for v, w in zip(decoded, head + tail))
        assert_same_factorization(column)
        mask = Equals("k", value).mask(table)
        assert mask.tolist() == ref.equals_mask(column, value).tolist()
        # A column derived before the append joins the appended table, and
        # the other way round.
        assert_same_join(derived_before, table, ["k"])
        assert_same_join(table.rename({"payload": "lp"}), keyed(head), ["k"])

    def test_uncoded_table_appends_stay_uncoded(self):
        table = keyed(["a", "b"])
        table.append_rows(keyed(["c"]))
        assert table.column("k")._coding is None
        assert table.column("k").values.tolist() == ["a", "b", "c"]
