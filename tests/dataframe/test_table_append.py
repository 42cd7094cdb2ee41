"""The versioned append path of :class:`Table`.

``append_rows`` is the only sanctioned way to grow a relevant table in
place.  The pins here are what a :class:`~repro.query.engine.QueryEngine`
bound to the table relies on to flush its caches after an append
(``QueryEngine.sync_with_table``):

* every append bumps ``table.version`` (even an empty one -- the engine's
  cheap staleness probe must never miss a mutation),
* dtypes are preserved and enforced (a dtype flip would silently change
  aggregation semantics mid-stream),
* the old rows are prefix-stable: columns are **replaced**, never mutated,
  so previously shared Column objects (``select`` shares them) keep their
  pre-append data and cached views over the old arrays stay valid.
"""

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table


@pytest.fixture
def table() -> Table:
    return Table(
        [
            Column("user", ["a", "a", "b", None], dtype=DType.CATEGORICAL),
            Column("x", [1.0, float("nan"), 3.0, 4.0], dtype=DType.NUMERIC),
        ]
    )


class TestVersioning:
    def test_fresh_table_is_version_zero(self, table):
        assert table.version == 0

    def test_each_append_bumps_version(self, table):
        assert table.append_rows({"user": ["c"], "x": [5.0]}) == 1
        assert table.append_rows({"user": ["d"], "x": [6.0]}) == 2
        assert table.version == 2

    def test_empty_append_still_bumps_version(self, table):
        """An empty delta is a mutation event: version probes must see it
        (the refresh layer then no-ops on the zero-row delta)."""
        before = table.num_rows
        assert table.append_rows({"user": [], "x": []}) == 1
        assert table.num_rows == before
        assert table.version == 1


class TestAppendSemantics:
    def test_mapping_append_extends_rows_in_order(self, table):
        table.append_rows({"user": ["c", None], "x": [5.0, float("nan")]})
        assert table.num_rows == 6
        assert list(table.column("user").values) == ["a", "a", "b", None, "c", None]
        x = table.column("x").values
        assert x[4] == 5.0 and np.isnan(x[5])

    def test_row_dicts_append(self, table):
        table.append_rows([{"user": "c", "x": 5.0}, {"user": "d", "x": None}])
        assert table.num_rows == 6
        assert list(table.column("user").values)[-2:] == ["c", "d"]
        assert np.isnan(table.column("x").values[-1])

    def test_table_append_preserves_dtypes(self, table):
        delta = Table(
            [
                Column("user", ["z"], dtype=DType.CATEGORICAL),
                Column("x", [9.0], dtype=DType.NUMERIC),
            ]
        )
        table.append_rows(delta)
        assert table.schema() == {"user": DType.CATEGORICAL, "x": DType.NUMERIC}

    def test_new_categorical_labels_extend_first_appearance_coding(self, table):
        """New labels appear strictly after the old ones in unique()'s
        first-appearance order: appends extend a column's dictionary, so
        existing codes never change."""
        before = table.column("user").unique()
        table.append_rows({"user": ["zz", "a", "yy"], "x": [1.0, 2.0, 3.0]})
        assert table.column("user").unique() == before + ["zz", "yy"]

    def test_append_equals_rebuild(self, table):
        appended = Table(
            [
                Column("user", ["a", "a", "b", None, "c"], dtype=DType.CATEGORICAL),
                Column("x", [1.0, float("nan"), 3.0, 4.0, 5.0], dtype=DType.NUMERIC),
            ]
        )
        table.append_rows({"user": ["c"], "x": [5.0]})
        assert list(table.column("user").values) == list(appended.column("user").values)
        assert np.array_equal(
            table.column("x").values, appended.column("x").values, equal_nan=True
        )


class TestPrefixStability:
    def test_append_replaces_columns_never_mutates_arrays(self, table):
        old_column = table.column("x")
        old_values = old_column.values
        table.append_rows({"user": ["c"], "x": [5.0]})
        assert table.column("x") is not old_column
        assert len(old_values) == 4  # the shared pre-append array is untouched

    def test_prior_selection_keeps_pre_append_data(self, table):
        view = table.select(["x"])
        table.append_rows({"user": ["c"], "x": [5.0]})
        assert view.num_rows == 4
        assert table.num_rows == 5


class TestValidation:
    def test_missing_column_rejected(self, table):
        with pytest.raises(ValueError, match="missing columns"):
            table.append_rows({"user": ["c"]})

    def test_unknown_column_rejected(self, table):
        with pytest.raises(ValueError, match="unknown columns"):
            table.append_rows({"user": ["c"], "x": [1.0], "bogus": [0]})

    def test_dtype_mismatch_rejected(self, table):
        delta = Table(
            [
                Column("user", ["z"], dtype=DType.CATEGORICAL),
                Column("x", ["not-numeric"], dtype=DType.CATEGORICAL),
            ]
        )
        with pytest.raises(ValueError, match="dtype mismatch"):
            table.append_rows(delta)

    def test_failed_append_changes_nothing(self, table):
        with pytest.raises(ValueError):
            table.append_rows({"user": ["c"]})
        assert table.version == 0
        assert table.num_rows == 4

    def test_append_to_empty_table_rejected(self):
        with pytest.raises(ValueError, match="no columns"):
            Table([]).append_rows({"x": [1.0]})

    def test_non_mapping_rows_rejected(self, table):
        with pytest.raises(TypeError):
            table.append_rows([("c", 5.0)])
