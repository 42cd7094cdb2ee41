"""Unit tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import DATASET_NAMES, load_dataset
from repro.dataframe.groupby import group_indices
from repro.stats.mutual_information import mutual_information

SMALL_SCALE = 0.08


@pytest.fixture(scope="module")
def bundles():
    return {name: load_dataset(name, scale=SMALL_SCALE, seed=0) for name in DATASET_NAMES}


class TestRegistry:
    def test_all_names_load(self, bundles):
        assert set(bundles) == set(DATASET_NAMES)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            load_dataset("imagenet")

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            load_dataset("tmall", scale=0.0)

    def test_scale_changes_size(self):
        small = load_dataset("student", scale=0.1, seed=0)
        large = load_dataset("student", scale=0.2, seed=0)
        assert large.train.num_rows > small.train.num_rows

    def test_reproducible_given_seed(self):
        a = load_dataset("tmall", scale=SMALL_SCALE, seed=3)
        b = load_dataset("tmall", scale=SMALL_SCALE, seed=3)
        assert list(a.train.column(a.label_col).values) == list(b.train.column(b.label_col).values)

    def test_different_seeds_differ(self):
        a = load_dataset("tmall", scale=SMALL_SCALE, seed=1)
        b = load_dataset("tmall", scale=SMALL_SCALE, seed=2)
        assert list(a.train.column(a.label_col).values) != list(b.train.column(b.label_col).values)


class TestBundleStructure:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_label_column_exists(self, bundles, name):
        bundle = bundles[name]
        assert bundle.label_col in bundle.train

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_keys_exist_in_both_tables(self, bundles, name):
        bundle = bundles[name]
        for key in bundle.keys:
            assert key in bundle.train
            assert key in bundle.relevant

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_candidate_and_agg_attrs_exist(self, bundles, name):
        bundle = bundles[name]
        for attr in bundle.candidate_attrs + bundle.agg_attrs:
            assert attr in bundle.relevant

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_no_label_leakage_into_relevant_table(self, bundles, name):
        bundle = bundles[name]
        assert bundle.label_col not in bundle.relevant.column_names

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_summary_fields(self, bundles, name):
        summary = bundles[name].summary()
        assert summary["n_train_rows"] > 0
        assert summary["n_relevant_rows"] > 0
        assert summary["task"] in ("binary", "multiclass", "regression")

    @pytest.mark.parametrize("name", ["tmall", "instacart", "student", "merchant"])
    def test_one_to_many_cardinality(self, bundles, name):
        bundle = bundles[name]
        assert bundle.relationship == "one-to-many"
        groups = group_indices(bundle.relevant, bundle.keys)
        assert max(rows.size for rows in groups.values()) > 1

    @pytest.mark.parametrize("name", ["covtype", "household"])
    def test_one_to_one_cardinality(self, bundles, name):
        bundle = bundles[name]
        groups = group_indices(bundle.relevant, bundle.keys)
        assert max(rows.size for rows in groups.values()) == 1

    @pytest.mark.parametrize("name", ["tmall", "instacart", "student"])
    def test_binary_labels(self, bundles, name):
        bundle = bundles[name]
        labels = set(np.unique(bundle.train.column(bundle.label_col).values))
        assert labels <= {0.0, 1.0}
        assert len(labels) == 2

    def test_merchant_is_regression(self, bundles):
        labels = bundles["merchant"].train.column("label").values
        assert len(np.unique(labels)) > 20

    @pytest.mark.parametrize("name", ["covtype", "household"])
    def test_multiclass_labels(self, bundles, name):
        labels = np.unique(bundles[name].train.column("label").values)
        assert len(labels) >= 3


class TestPlantedSignal:
    """The datasets must reward predicate-aware aggregation over plain aggregation."""

    def test_student_predicate_feature_beats_unrestricted(self):
        bundle = load_dataset("student", scale=0.3, seed=0)
        from repro.query.executor import execute_query
        from repro.query.query import PredicateAtom, PredicateAwareQuery
        from repro.dataframe.column import DType
        from repro.query.augment import augment_training_table

        restricted = PredicateAwareQuery(
            agg_func="SUM", agg_attr="hover_duration", keys=tuple(bundle.keys),
            atoms=(
                PredicateAtom("eq", "event_type", value="notebook_click"),
                PredicateAtom("range", "level", low=13.0, dtype=DType.NUMERIC),
            ),
        )
        unrestricted = PredicateAwareQuery(
            agg_func="SUM", agg_attr="hover_duration", keys=tuple(bundle.keys)
        )
        label = bundle.train.column(bundle.label_col).values

        def mi_of(query):
            feature_table = execute_query(query, bundle.relevant)
            joined = augment_training_table(bundle.train, feature_table, bundle.keys, "feature", "f")
            return mutual_information(joined.column("f").values, label)

        assert mi_of(restricted) > mi_of(unrestricted) + 0.05
