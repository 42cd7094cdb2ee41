"""Unit tests for query execution and training-table augmentation."""

import numpy as np
import pytest

from repro.dataframe.column import DType, parse_datetime
from repro.dataframe.table import Table
from repro.query.augment import apply_queries, augment_training_table, generated_feature_names
from repro.query.executor import execute_query, execute_query_naive
from repro.query.query import PredicateAtom, PredicateAwareQuery


def paper_query():
    """Example 4: AVG(pprice) WHERE department = electronics AND ts >= 2023-07-01."""
    return PredicateAwareQuery(
        agg_func="AVG",
        agg_attr="pprice",
        keys=("cname",),
        atoms=(
            PredicateAtom("eq", "department", value="electronics"),
            PredicateAtom(
                "range", "timestamp", low=parse_datetime("2023-07-01"), dtype=DType.DATETIME
            ),
        ),
        relation_name="User_Logs",
        feature_name="avgprice",
    )


class TestExecuteQuery:
    def test_example_4_result(self, logs_table):
        result = execute_query(paper_query(), logs_table)
        by_key = dict(zip(result.column("cname").values, result.column("avgprice").values))
        # alice: electronics purchases on/after 2023-07-01 -> 100, 400 -> 250
        assert by_key["alice"] == 250.0
        # carol: kindle 95 on 2023-07-29 -> 95
        assert by_key["carol"] == 95.0
        # bob has no matching rows -> not in the result
        assert "bob" not in by_key

    def test_no_predicate_query_covers_all_keys(self, logs_table):
        query = PredicateAwareQuery(agg_func="COUNT", agg_attr="pprice", keys=("cname",))
        result = execute_query(query, logs_table)
        assert result.num_rows == 3

    def test_empty_filter_returns_empty_table(self, logs_table):
        query = PredicateAwareQuery(
            agg_func="SUM",
            agg_attr="pprice",
            keys=("cname",),
            atoms=(PredicateAtom("eq", "department", value="does-not-exist"),),
        )
        result = execute_query(query, logs_table)
        assert result.num_rows == 0
        assert "feature" in result

    def test_feature_column_is_numeric(self, logs_table):
        result = execute_query(paper_query(), logs_table)
        assert result.column("avgprice").dtype is DType.NUMERIC


class TestEmptyFilterPath:
    """Regression tests for the empty-filter fast path.

    The naive executor used to materialise a second full-length all-False
    mask just to build the empty result; it now constructs the empty
    projection directly, so the full table is filtered exactly once.
    """

    def impossible_query(self):
        return PredicateAwareQuery(
            agg_func="SUM",
            agg_attr="pprice",
            keys=("cname",),
            atoms=(PredicateAtom("eq", "department", value="does-not-exist"),),
        )

    def test_naive_filters_the_table_only_once(self, logs_table, monkeypatch):
        calls = []
        original = Table.filter

        def counting_filter(self, mask):
            calls.append(len(self.column_names))
            return original(self, mask)

        monkeypatch.setattr(Table, "filter", counting_filter)
        result = execute_query_naive(self.impossible_query(), logs_table)
        assert result.num_rows == 0
        assert len(calls) == 1

    def test_empty_result_schema_and_dtypes(self, logs_table):
        for executor in (execute_query, execute_query_naive):
            result = executor(self.impossible_query(), logs_table)
            assert result.num_rows == 0
            assert result.column_names == ["cname", "feature"]
            assert result.column("cname").dtype is DType.CATEGORICAL
            assert result.column("feature").dtype is DType.NUMERIC

    def test_naive_matches_paper_example(self, logs_table):
        result = execute_query_naive(paper_query(), logs_table)
        by_key = dict(zip(result.column("cname").values, result.column("avgprice").values))
        assert by_key == {"alice": 250.0, "carol": 95.0}


class TestAugment:
    def test_example_7_augmented_training_table(self, user_table, logs_table):
        feature_table = execute_query(paper_query(), logs_table)
        augmented = augment_training_table(
            user_table, feature_table, keys=["cname"], feature_name="avgprice"
        )
        assert augmented.column_names == ["cname", "age", "gender", "label", "avgprice"]
        values = augmented.column("avgprice").values
        assert values[0] == 250.0  # alice
        assert np.isnan(values[1])  # bob has no match
        assert values[2] == 95.0  # carol
        assert np.isnan(values[3])  # dave not in logs at all

    def test_row_order_preserved(self, user_table, logs_table):
        feature_table = execute_query(paper_query(), logs_table)
        augmented = augment_training_table(user_table, feature_table, ["cname"], "avgprice")
        assert list(augmented.column("cname").values) == list(user_table.column("cname").values)

    def test_output_name_override(self, user_table, logs_table):
        feature_table = execute_query(paper_query(), logs_table)
        augmented = augment_training_table(
            user_table, feature_table, ["cname"], "avgprice", output_name="spend_recent"
        )
        assert "spend_recent" in augmented

    def test_apply_queries_adds_one_column_per_query(self, user_table, logs_table):
        queries = [
            paper_query(),
            PredicateAwareQuery(agg_func="COUNT", agg_attr="pprice", keys=("cname",)),
        ]
        augmented = apply_queries(user_table, logs_table, queries, prefix="f")
        assert "f_0" in augmented and "f_1" in augmented
        assert augmented.num_rows == user_table.num_rows

    def test_generated_feature_names(self):
        queries = [paper_query()] * 3
        assert generated_feature_names(queries, prefix="x") == ["x_0", "x_1", "x_2"]

    def test_apply_queries_empty_list_is_identity(self, user_table, logs_table):
        augmented = apply_queries(user_table, logs_table, [])
        assert augmented.column_names == user_table.column_names
