"""Unit tests for query templates."""

import numpy as np
import pytest

from repro.dataframe.aggregates import DEFAULT_AGGREGATES
from repro.query.template import QueryTemplate


class TestQueryTemplate:
    def test_example_5_from_paper(self):
        template = QueryTemplate(
            ["SUM", "AVG", "MAX"], ["pprice"], ["department", "timestamp"], ["cname"]
        )
        assert template.agg_funcs == ("SUM", "AVG", "MAX")
        assert template.agg_attrs == ("pprice",)
        assert template.predicate_attrs == ("department", "timestamp")
        assert template.keys == ("cname",)

    def test_default_aggregates_used_when_none(self):
        template = QueryTemplate(None, ["x"], [], ["k"])
        assert list(template.agg_funcs) == DEFAULT_AGGREGATES

    def test_agg_names_normalised(self):
        template = QueryTemplate(["count distinct", "avg"], ["x"], [], ["k"])
        assert template.agg_funcs == ("COUNT_DISTINCT", "AVG")

    def test_requires_agg_attr(self):
        with pytest.raises(ValueError):
            QueryTemplate(["SUM"], [], [], ["k"])

    def test_requires_key(self):
        with pytest.raises(ValueError):
            QueryTemplate(["SUM"], ["x"], [], [])

    def test_validate_against_table(self, logs_table):
        template = QueryTemplate(["SUM"], ["pprice"], ["department"], ["cname"])
        template.validate_against(logs_table)  # should not raise

    def test_validate_against_missing_column(self, logs_table):
        template = QueryTemplate(["SUM"], ["nonexistent"], [], ["cname"])
        with pytest.raises(KeyError):
            template.validate_against(logs_table)

    def test_one_hot_encoding(self):
        template = QueryTemplate(["SUM"], ["x"], ["a", "c"], ["k"])
        encoding = template.encode(["a", "b", "c", "d"])
        assert list(encoding) == [1.0, 0.0, 1.0, 0.0]

    def test_encoding_example_from_paper(self):
        """Section VI.C.2: {A, C, E, F} over universe A..F -> [1,0,1,0,1,1]."""
        template = QueryTemplate(["SUM"], ["x"], ["A", "C", "E", "F"], ["k"])
        assert list(template.encode(list("ABCDEF"))) == [1, 0, 1, 0, 1, 1]

    def test_hashable_and_frozen(self):
        template = QueryTemplate(["SUM"], ["x"], ["a"], ["k"])
        assert hash(template) == hash(QueryTemplate(["SUM"], ["x"], ["a"], ["k"]))

