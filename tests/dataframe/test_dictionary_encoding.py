"""Dictionary-encoded categorical columns: coding, sharing, labels, threads."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.dataframe.column import Column, DType, encode
from repro.dataframe.groupby import factorize_column, group_by_aggregate
from repro.dataframe.table import Table
from repro.query.executor import execute_query_naive
from repro.query.engine import QueryEngine
from repro.query.query import PredicateAtom, PredicateAwareQuery


def categorical(values, name: str = "k") -> Column:
    return Column(name, list(values), dtype=DType.CATEGORICAL)


class TestCoding:
    def test_codes_follow_first_appearance_and_none_is_minus_one(self):
        codes, dictionary = encode(["b", None, "a", "b"])
        assert codes.tolist() == [0, -1, 1, 0]
        assert dictionary.labels == ("b", "a")
        assert dictionary.code_of("a") == 1
        assert dictionary.code_of(None) == -1
        assert dictionary.code_of("zzz") == -1

    def test_coding_is_lazy_and_cached(self):
        column = categorical(["x", "y"])
        assert column._coding is None
        assert column.coding is column.coding
        assert column._coding is not None

    def test_numeric_columns_have_no_coding(self):
        with pytest.raises(TypeError):
            Column("x", [1.0], dtype=DType.NUMERIC).coding

    def test_derived_columns_share_the_dictionary(self):
        column = categorical(["a", "b", None, "c"])
        table = Table([column])
        derived = [
            column.take([3, 0]),
            column.filter([True, False, True, False]),
            column.rename("other"),
            column.copy(),
            table.take([2, 0]).column("k"),
        ]
        for other in derived:
            assert other.dictionary is column.dictionary
        assert column.take([3, 0]).to_list() == ["c", "a"]
        assert column.take([3, 0])._values is None  # decoded only on demand

    def test_unique_is_first_appearance_of_the_columns_own_rows(self):
        column = categorical(["c", "a", None, "c", "b"])
        assert column.unique() == ["c", "a", "b"]
        assert column.take([4, 1, 4]).unique() == ["b", "a"]
        assert column.is_missing().tolist() == [False, False, True, False, False]

    def test_concat_extends_without_renumbering(self):
        head = categorical(["a", "b"])
        head.coding
        merged = head.concat(categorical(["c", "a", None]))
        assert merged.codes.tolist() == [0, 1, 2, 0, -1]
        assert merged.dictionary.labels == ("a", "b", "c")
        assert merged.dictionary.shares_codes_with(head.dictionary)

    def test_branches_of_one_dictionary_do_not_share_codes(self):
        base = categorical(["a"])
        base.coding
        left = base.concat(categorical(["x"]))
        right = base.concat(categorical(["y"]))
        assert left.dictionary.shares_codes_with(base.dictionary)
        assert right.dictionary.shares_codes_with(base.dictionary)
        assert not left.dictionary.shares_codes_with(right.dictionary)
        joined = Table([left]).left_join(Table([right, Column("v", [1.0, 2.0])]), on="k")
        assert joined.column("v").values.tolist()[0] == 1.0
        assert np.isnan(joined.column("v").values[1])  # "x" is not "y"

    def test_unhashable_labels_use_the_scanning_fallback(self):
        column = categorical([[1], "a", [1], None, [2]])
        assert column.codes.tolist() == [0, 1, 0, -1, 2]
        assert column.dictionary.code_of([2]) == 2
        assert column.dictionary.code_of([3]) == -1
        assert column.take([4, 2]).to_list() == [[2], [1]]


class TestRepresentativeLabel:
    """Labels that compare equal across types share one code, and the group
    reports the first-appearing one -- also in the query engine's output."""

    def test_first_appearing_label_represents_the_group(self):
        column = categorical([True, 1, 1.0, "a", 1])
        codes, labels = factorize_column(column)
        assert codes.tolist() == [0, 0, 0, 1, 0]
        assert labels == [True, "a"] and type(labels[0]) is bool
        assert column.unique() == [True, "a"]

    def test_derived_rows_decode_to_the_representative(self):
        column = categorical([1.0, 1, True])
        assert column.values.tolist() == [1.0, 1, True]  # the raw values stay
        decoded = column.take([1, 2]).values.tolist()
        assert decoded == [1.0, 1.0] and all(type(v) is float for v in decoded)

    def test_group_keys_report_the_representative(self):
        table = Table(
            [
                categorical([1, True, 1.0, "b", True]),
                Column("v", [1.0, 2.0, 3.0, 4.0, 5.0]),
                categorical(["x"] * 5, name="f"),
            ]
        )
        out = group_by_aggregate(table, ["k"], "v", "SUM")
        keys = out.column("k").values.tolist()
        assert keys == [1, "b"] and type(keys[0]) is int
        assert out.column("feature").values.tolist() == [11.0, 4.0]
        query = PredicateAwareQuery("SUM", "v", ("k",), (PredicateAtom("eq", "f", value="x"),))
        served = QueryEngine(table).execute(query).column("k").values.tolist()
        reference = execute_query_naive(query, table).column("k").values.tolist()
        assert served == reference == [1, "b"]
        assert [type(v) for v in served] == [int, str]


@pytest.fixture
def fast_thread_switching():
    """Switch threads every few microseconds, so a race in lazy coding (which
    takes milliseconds) actually interleaves."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


class TestThreadSafety:
    def test_concurrent_first_readers_see_one_coding(self, fast_thread_switching):
        values = [f"label{i % 97}" for i in range(20000)]
        for _ in range(5):
            column = categorical(values)
            n_threads = 8
            barrier = threading.Barrier(n_threads)
            seen = [None] * n_threads

            def read(slot: int) -> None:
                barrier.wait()
                seen[slot] = column.coding

            threads = [threading.Thread(target=read, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            codes, dictionary = seen[0]
            assert all(pair is seen[0] for pair in seen)
            assert dictionary.label_array()[codes].tolist() == values

    def test_concurrent_decoding_of_a_coded_column(self, fast_thread_switching):
        column = categorical([f"v{i % 13}" for i in range(5000)] + [None])
        derived = column.take(np.arange(len(column))[::-1])
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        seen = [None] * n_threads

        def read(slot: int) -> None:
            barrier.wait()
            seen[slot] = derived.values.tolist()

        threads = [threading.Thread(target=read, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = column.to_list()[::-1]
        assert all(values == expected for values in seen)
