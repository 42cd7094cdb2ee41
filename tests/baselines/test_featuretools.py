"""Unit tests for the Featuretools-style baseline."""

import numpy as np
import pytest

from repro.baselines.featuretools import FeaturetoolsGenerator
from repro.dataframe.aggregates import CATEGORICAL_SAFE_AGGREGATES


class TestCandidateQueries:
    def test_cross_product_size_numeric_only(self, logs_table):
        generator = FeaturetoolsGenerator(keys=["cname"], agg_funcs=["SUM", "AVG", "MAX"])
        queries = generator.candidate_queries(logs_table, agg_attrs=["pprice"])
        assert len(queries) == 3

    def test_categorical_attrs_limited_to_safe_aggregates(self, logs_table):
        generator = FeaturetoolsGenerator(keys=["cname"])
        queries = generator.candidate_queries(logs_table, agg_attrs=["department"])
        # The default function list keeps exactly its categorical-safe members.
        expected = [f for f in generator.agg_funcs if f in CATEGORICAL_SAFE_AGGREGATES]
        assert len(queries) == len(expected)
        assert all(q.agg_func in CATEGORICAL_SAFE_AGGREGATES for q in queries)

    def test_safety_check_reads_the_canonical_name(self, logs_table):
        generator = FeaturetoolsGenerator(
            keys=["cname"], agg_funcs=["SUM", "count distinct"]
        )
        queries = generator.candidate_queries(logs_table, agg_attrs=["department"])
        assert [q.agg_func for q in queries] == ["count distinct"]

    def test_no_predicates_generated(self, logs_table):
        generator = FeaturetoolsGenerator(keys=["cname"], agg_funcs=["SUM"])
        for query in generator.candidate_queries(logs_table):
            assert not query.atoms
            assert "WHERE" not in query.to_sql()

    def test_max_features_cap(self, logs_table):
        generator = FeaturetoolsGenerator(keys=["cname"], max_features=5)
        assert len(generator.candidate_queries(logs_table)) == 5

    def test_key_columns_excluded_from_aggregation(self, logs_table):
        generator = FeaturetoolsGenerator(keys=["cname"], agg_funcs=["COUNT"])
        attrs = {q.agg_attr for q in generator.candidate_queries(logs_table)}
        assert "cname" not in attrs


class TestGenerate:
    def test_features_materialised_on_training_table(self, user_table, logs_table):
        generator = FeaturetoolsGenerator(keys=["cname"], agg_funcs=["SUM", "AVG", "COUNT"])
        augmented, features = generator.generate(user_table, logs_table, agg_attrs=["pprice"])
        assert augmented.num_rows == user_table.num_rows
        assert len(features) >= 2
        for feature in features:
            assert feature.name in augmented

    def test_constant_features_dropped(self, user_table, logs_table):
        # MIN of a constant column would be constant across users -> dropped.
        from repro.dataframe.column import Column
        from repro.dataframe.table import Table

        constant_logs = Table(
            [logs_table.column(name) for name in logs_table.column_names]
            + [Column("const_col", [1.0] * logs_table.num_rows)]
        )
        generator = FeaturetoolsGenerator(keys=["cname"], agg_funcs=["MIN"])
        augmented, features = generator.generate(user_table, constant_logs, agg_attrs=["const_col"])
        assert features == []

    def test_feature_values_match_manual_aggregation(self, user_table, logs_table):
        generator = FeaturetoolsGenerator(keys=["cname"], agg_funcs=["SUM"])
        augmented, features = generator.generate(user_table, logs_table, agg_attrs=["pprice"])
        name = features[0].name
        values = dict(zip(augmented.column("cname").values, augmented.column(name).values))
        assert values["alice"] == pytest.approx(505.0)
        assert values["bob"] == pytest.approx(18.0)
        assert np.isnan(values["dave"])

    def test_prefix_applied(self, user_table, logs_table):
        generator = FeaturetoolsGenerator(keys=["cname"], agg_funcs=["SUM"])
        _, features = generator.generate(user_table, logs_table, agg_attrs=["pprice"], prefix="deep")
        assert all(f.name.startswith("deep_") for f in features)
