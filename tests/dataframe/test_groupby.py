"""Unit tests for the group-by aggregation engine."""

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.groupby import group_by_aggregate, group_indices
from repro.dataframe.table import Table


@pytest.fixture
def logs():
    return Table.from_dict(
        {
            "cname": ["alice", "alice", "bob", "bob", "bob", "carol"],
            "merchant": ["m1", "m2", "m1", "m1", "m2", "m1"],
            "price": [10.0, 20.0, 5.0, np.nan, 15.0, 7.0],
        }
    )


class TestGroupIndices:
    def test_group_count(self, logs):
        groups = group_indices(logs, ["cname"])
        assert len(groups) == 3

    def test_group_members(self, logs):
        groups = group_indices(logs, ["cname"])
        assert list(groups[("bob",)]) == [2, 3, 4]

    def test_multi_key_groups(self, logs):
        groups = group_indices(logs, ["cname", "merchant"])
        assert len(groups) == 5
        assert list(groups[("bob", "m1")]) == [2, 3]

    def test_numeric_key_normalisation(self):
        table = Table.from_dict({"k": [1, 1.0, 2], "v": [1.0, 2.0, 3.0]})
        groups = group_indices(table, ["k"])
        assert len(groups) == 2

    def test_requires_key(self, logs):
        with pytest.raises(ValueError):
            group_indices(logs, [])


class TestGroupByAggregate:
    def test_avg_per_group(self, logs):
        out = group_by_aggregate(logs, ["cname"], "price", "AVG")
        by_key = dict(zip(out.column("cname").values, out.column("feature").values))
        assert by_key["alice"] == 15.0
        assert by_key["bob"] == 10.0  # NaN ignored
        assert by_key["carol"] == 7.0

    def test_count_per_group_ignores_nan(self, logs):
        out = group_by_aggregate(logs, ["cname"], "price", "COUNT")
        by_key = dict(zip(out.column("cname").values, out.column("feature").values))
        assert by_key["bob"] == 2.0

    def test_output_name(self, logs):
        out = group_by_aggregate(logs, ["cname"], "price", "SUM", output_name="total")
        assert "total" in out

    def test_one_row_per_group(self, logs):
        out = group_by_aggregate(logs, ["cname"], "price", "MAX")
        assert out.num_rows == 3

    def test_multi_key_output_preserves_both_keys(self, logs):
        out = group_by_aggregate(logs, ["cname", "merchant"], "price", "SUM")
        assert set(out.column_names) == {"cname", "merchant", "feature"}
        assert out.num_rows == 5

    def test_categorical_aggregation_attribute(self, logs):
        out = group_by_aggregate(logs, ["cname"], "merchant", "COUNT_DISTINCT")
        by_key = dict(zip(out.column("cname").values, out.column("feature").values))
        assert by_key["bob"] == 2.0
        assert by_key["carol"] == 1.0

    def test_unknown_aggregate_raises(self, logs):
        with pytest.raises(KeyError):
            group_by_aggregate(logs, ["cname"], "price", "NOPE")

    def test_numeric_key_dtype_preserved(self):
        table = Table.from_dict({"k": [1, 1, 2], "v": [1.0, 3.0, 5.0]})
        out = group_by_aggregate(table, ["k"], "v", "AVG")
        assert out.column("k").dtype is DType.NUMERIC

    def test_sql_example_from_paper(self):
        """The SELECT cname, AVG(pprice) GROUP BY cname query from Example 2."""
        logs = Table.from_dict(
            {
                "cname": ["alice", "alice", "bob"],
                "pprice": [100.0, 200.0, 50.0],
            }
        )
        out = group_by_aggregate(logs, ["cname"], "pprice", "AVG", output_name="avgprice")
        by_key = dict(zip(out.column("cname").values, out.column("avgprice").values))
        assert by_key == {"alice": 150.0, "bob": 50.0}
