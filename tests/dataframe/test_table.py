"""Unit tests for repro.dataframe.table."""

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table


@pytest.fixture
def table():
    return Table(
        [
            Column("id", ["a", "b", "c", "d"], dtype=DType.CATEGORICAL),
            Column("x", [1.0, 2.0, 3.0, 4.0], dtype=DType.NUMERIC),
            Column("y", [10.0, None, 30.0, 40.0], dtype=DType.NUMERIC),
        ]
    )


class TestConstruction:
    def test_shape(self, table):
        assert table.shape == (4, 3)

    def test_from_dict(self):
        t = Table.from_dict({"a": [1, 2], "b": ["x", "y"]})
        assert t.column_names == ["a", "b"]
        assert t.column("b").dtype is DType.CATEGORICAL

    def test_from_dict_with_forced_dtypes(self):
        t = Table.from_dict({"a": [1, 2]}, dtypes={"a": DType.CATEGORICAL})
        assert t.column("a").dtype is DType.CATEGORICAL

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Table([Column("a", [1, 2]), Column("b", [1])])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Table([Column("a", [1]), Column("a", [2])])

    def test_non_column_rejected(self):
        with pytest.raises(TypeError):
            Table([[1, 2, 3]])


class TestAccessors:
    def test_contains(self, table):
        assert "x" in table
        assert "missing" not in table

    def test_missing_column_raises(self, table):
        with pytest.raises(KeyError):
            table.column("missing")

    def test_schema(self, table):
        assert table.schema()["id"] is DType.CATEGORICAL


class TestColumnOps:
    def test_select_order(self, table):
        selected = table.select(["y", "id"])
        assert selected.column_names == ["y", "id"]

    def test_rename(self, table):
        renamed = table.rename({"x": "x2"})
        assert "x2" in renamed and "x" not in renamed


class TestRowOps:
    def test_filter(self, table):
        mask = np.asarray([True, False, True, False])
        assert table.filter(mask).num_rows == 2

    def test_filter_wrong_length(self, table):
        with pytest.raises(ValueError):
            table.filter([True])

    def test_take_repeats(self, table):
        taken = table.take([0, 0, 3])
        assert list(taken.column("id").values) == ["a", "a", "d"]

    def test_head(self, table):
        assert table.head(2).num_rows == 2

    def test_sample_without_replacement(self, table):
        sampled = table.sample(3, seed=0)
        assert sampled.num_rows == 3

    def test_sample_with_replacement_can_exceed(self, table):
        sampled = table.sample(10, seed=0, replace=True)
        assert sampled.num_rows == 10


class TestJoin:
    def test_left_join_basic(self, table):
        right = Table.from_dict({"id": ["a", "c"], "feature": [100.0, 300.0]})
        joined = table.left_join(right, on="id")
        values = joined.column("feature").values
        assert values[0] == 100.0
        assert np.isnan(values[1])
        assert values[2] == 300.0

    def test_left_join_preserves_row_count(self, table):
        right = Table.from_dict({"id": ["a"], "feature": [1.0]})
        assert table.left_join(right, on="id").num_rows == table.num_rows

    def test_left_join_duplicate_right_keys_take_first(self, table):
        right = Table.from_dict({"id": ["a", "a"], "feature": [1.0, 2.0]})
        joined = table.left_join(right, on="id")
        assert joined.column("feature").values[0] == 1.0

    def test_left_join_name_collision_gets_suffix(self, table):
        right = Table.from_dict({"id": ["a"], "x": [99.0]})
        joined = table.left_join(right, on="id")
        assert "x_right" in joined
        assert joined.column("x").values[0] == 1.0

    def test_left_join_missing_key_raises(self, table):
        right = Table.from_dict({"other": ["a"], "f": [1.0]})
        with pytest.raises(KeyError):
            table.left_join(right, on="id")

    def test_left_join_numeric_keys(self):
        left = Table.from_dict({"k": [1.0, 2.0, 3.0]})
        right = Table.from_dict({"k": [2, 3], "v": [20.0, 30.0]})
        joined = left.left_join(right, on="k")
        assert np.isnan(joined.column("v").values[0])
        assert joined.column("v").values[2] == 30.0

    def test_left_join_categorical_column(self, table):
        right = Table.from_dict({"id": ["b"], "tag": ["vip"]})
        joined = table.left_join(right, on="id")
        assert joined.column("tag").values[1] == "vip"
        assert joined.column("tag").values[0] is None


class TestConcat:
    def test_concat_rows(self, table):
        combined = table.concat_rows(table)
        assert combined.num_rows == 8

    def test_concat_rows_schema_mismatch(self, table):
        with pytest.raises(ValueError):
            table.concat_rows(table.select(["id", "x"]))

    def test_concat_onto_empty(self, table):
        assert Table([]).concat_rows(table).num_rows == 4

    def test_copy_independent(self, table):
        duplicate = table.copy()
        duplicate.column("x").values[0] = 99.0
        assert table.column("x").values[0] == 1.0
