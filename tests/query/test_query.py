"""Unit tests for PredicateAwareQuery."""

import pytest

from repro.dataframe.column import DType, parse_datetime
from repro.query.query import PredicateAwareQuery


def make_query(**overrides):
    defaults = dict(
        agg_func="AVG",
        agg_attr="pprice",
        keys=("cname",),
        predicates={
            "department": "electronics",
            "timestamp": (parse_datetime("2023-07-01"), None),
        },
        predicate_dtypes={"department": DType.CATEGORICAL, "timestamp": DType.DATETIME},
        relation_name="User_Logs",
    )
    defaults.update(overrides)
    return PredicateAwareQuery(**defaults)


class TestToSQL:
    def test_example_4_from_paper(self):
        sql = make_query().to_sql()
        assert "SELECT cname, AVG(pprice) AS feature" in sql
        assert "FROM User_Logs" in sql
        assert "department = 'electronics'" in sql
        assert "timestamp >= '2023-07-01'" in sql
        assert "GROUP BY cname" in sql

    def test_no_predicates_omits_where(self):
        query = make_query(predicates={}, predicate_dtypes={})
        assert "WHERE" not in query.to_sql()

    def test_none_constraints_omitted(self):
        query = make_query(
            predicates={"department": None, "timestamp": (None, None)},
        )
        assert "WHERE" not in query.to_sql()

    def test_two_sided_range(self):
        query = make_query(
            predicates={"timestamp": (0.0, 86400.0)},
            predicate_dtypes={"timestamp": DType.NUMERIC},
        )
        sql = query.to_sql()
        assert "timestamp >= 0" in sql and "timestamp <= 86400" in sql

    def test_multiple_keys_in_group_by(self):
        query = make_query(keys=("user_id", "merchant_id"), predicates={}, predicate_dtypes={})
        assert "GROUP BY user_id, merchant_id" in query.to_sql()

    def test_equality_predicate(self):
        query = make_query(predicates={"department": "toys"})
        assert "WHERE department = 'toys'\n" in query.to_sql()

    def test_aggregate_name_is_canonical(self):
        assert "SELECT cname, AVG(pprice) AS feature" in make_query(agg_func="avg").to_sql()
        assert "COUNT(DISTINCT pprice) AS feature" in make_query(agg_func="count distinct").to_sql()


class TestPredicateConstruction:
    def test_has_predicates_true(self):
        assert make_query().has_predicates()

    def test_has_predicates_false_when_all_none(self):
        query = make_query(predicates={"department": None, "timestamp": (None, None)})
        assert not query.has_predicates()

    def test_build_predicate_masks_table(self, logs_table):
        query = make_query(relation_name="User_Logs")
        mask = query.build_predicate().mask(logs_table)
        # electronics AND timestamp >= 2023-07-01: rows 0, 2, 5
        assert list(mask) == [True, False, True, False, False, True, False, False, False]

    def test_signature_stable_under_dict_order(self):
        a = make_query(predicates={"department": "x", "timestamp": (1.0, 2.0)})
        b = make_query(predicates={"timestamp": (1.0, 2.0), "department": "x"})
        assert a.signature() == b.signature()

    def test_signature_differs_for_different_agg(self):
        assert make_query().signature() != make_query(agg_func="SUM").signature()

    def test_describe_readable(self):
        text = make_query().describe()
        assert "AVG(pprice)" in text
        assert "department=electronics" in text

    def test_describe_no_predicates(self):
        query = make_query(predicates={}, predicate_dtypes={})
        assert "no predicate" in query.describe()
