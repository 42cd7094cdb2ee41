"""Unit tests for repro.dataframe.predicates."""

import numpy as np
import pytest

from repro.dataframe.column import DType
from repro.dataframe.predicates import And, Equals, Range
from repro.dataframe.table import Table


@pytest.fixture
def table():
    return Table.from_dict(
        {
            "dept": ["electronics", "household", "electronics", None, "media"],
            "price": [100.0, 5.0, None, 50.0, 12.0],
            "ts": ["2023-07-15", "2023-01-10", "2023-06-01", "2023-07-29", "2022-12-25"],
        },
        dtypes={"ts": DType.DATETIME},
    )


class TestEquals:
    def test_categorical_equality(self, table):
        mask = Equals("dept", "electronics").mask(table)
        assert list(mask) == [True, False, True, False, False]

    def test_missing_never_matches(self, table):
        assert not Equals("dept", None).mask(table)[3]  # None == None not matched

    def test_numeric_equality(self, table):
        mask = Equals("price", 5).mask(table)
        assert list(mask) == [False, True, False, False, False]

    def test_sql_rendering(self):
        assert Equals("dept", "elec'tro").to_sql() == "dept = 'elec''tro'"


class TestRange:
    def test_two_sided(self, table):
        mask = Range("price", low=10, high=60).mask(table)
        assert list(mask) == [False, False, False, True, True]

    def test_one_sided_low(self, table):
        mask = Range("price", low=50).mask(table)
        assert list(mask) == [True, False, False, True, False]

    def test_one_sided_high(self, table):
        mask = Range("price", high=12).mask(table)
        assert list(mask) == [False, True, False, False, True]

    def test_nan_excluded(self, table):
        mask = Range("price", low=0).mask(table)
        assert not mask[2]

    def test_datetime_range(self, table):
        from repro.dataframe.column import parse_datetime

        mask = Range("ts", low=parse_datetime("2023-07-01"), dtype=DType.DATETIME).mask(table)
        assert list(mask) == [True, False, False, True, False]

    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError):
            Range("price")

    def test_on_categorical_raises(self, table):
        with pytest.raises(TypeError):
            Range("dept", low=0).mask(table)

    def test_datetime_sql_rendering(self):
        from repro.dataframe.column import parse_datetime

        sql = Range("ts", low=parse_datetime("2023-07-01"), dtype=DType.DATETIME).to_sql()
        assert sql == "ts >= '2023-07-01'"


class TestCombinators:
    def test_and(self, table):
        predicate = And([Equals("dept", "electronics"), Range("price", low=50)])
        assert list(predicate.mask(table)) == [True, False, False, False, False]

    def test_and_operator_overload(self, table):
        predicate = Equals("dept", "electronics") & Range("price", low=50)
        assert predicate.mask(table).sum() == 1

    def test_empty_and_selects_all(self, table):
        assert And([]).mask(table).all()
        assert And([]).to_sql() == "TRUE"

    def test_and_sql(self):
        predicate = And([Equals("a", "x"), Range("b", low=1, high=2)])
        assert predicate.to_sql() == "a = 'x' AND b >= 1 AND b <= 2"
