"""Unit tests for query templates."""

import numpy as np
import pytest

from repro.dataframe.aggregates import DEFAULT_AGGREGATES
from repro.query.template import QueryTemplate, enumerate_attribute_combinations


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

    def test_describe_mentions_parts(self):
        text = QueryTemplate(["SUM"], ["x"], ["a"], ["k"]).describe()
        assert "SUM" in text and "x" in text and "a" in text and "k" in text

    def test_hashable_and_frozen(self):
        template = QueryTemplate(["SUM"], ["x"], ["a"], ["k"])
        assert hash(template) == hash(QueryTemplate(["SUM"], ["x"], ["a"], ["k"]))


class TestEnumerateCombinations:
    def test_counts_all_nonempty_subsets(self):
        combos = enumerate_attribute_combinations(["a", "b", "c"])
        assert len(combos) == 7

    def test_max_size_limits(self):
        combos = enumerate_attribute_combinations(["a", "b", "c", "d"], max_size=2)
        assert all(len(c) <= 2 for c in combos)
        assert len(combos) == 4 + 6

    def test_empty_input(self):
        assert enumerate_attribute_combinations([]) == []

    def test_subset_count_matches_paper_formula(self):
        """|S_attr| = 2^|attr| (including the empty set which we exclude)."""
        attrs = list("abcde")
        assert len(enumerate_attribute_combinations(attrs)) == 2 ** len(attrs) - 1
