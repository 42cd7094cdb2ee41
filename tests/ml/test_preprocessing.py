"""Unit tests for preprocessing: encoders, imputer, vectoriser, splits."""

import warnings

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.ml.preprocessing import (
    LabelEncoder,
    OneHotEncoder,
    SimpleImputer,
    TableVectorizer,
    mean_impute,
    train_valid_test_split,
)


class TestLabelEncoder:
    def test_contiguous_codes(self):
        codes = LabelEncoder().fit_transform(["a", "b", "a", "c"])
        assert list(codes) == [0.0, 1.0, 0.0, 2.0]

    def test_unknown_maps_to_minus_one(self):
        encoder = LabelEncoder().fit(["a", "b"])
        assert encoder.transform(["c"])[0] == -1.0

    def test_missing_values_get_a_code(self):
        codes = LabelEncoder().fit_transform(["a", None, "a"])
        assert codes[1] != codes[0]

    def test_missing_values_share_one_code(self):
        codes = LabelEncoder().fit_transform([None, "a", float("nan"), np.nan])
        assert codes[0] == codes[2] == codes[3] != codes[1]

    def test_missing_is_not_the_string_missing(self):
        encoder = LabelEncoder().fit([None, "__missing__"])
        assert len(encoder.classes_) == 2
        assert list(encoder.transform([None, "__missing__"])) == [0.0, 1.0]


class TestOneHotEncoder:
    def test_shape(self):
        out = OneHotEncoder().fit_transform(["a", "b", "a"])
        assert out.shape == (3, 2)

    def test_rows_sum_to_one_for_known(self):
        out = OneHotEncoder().fit_transform(["a", "b", "c", "a"])
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_unknown_category_is_all_zero(self):
        encoder = OneHotEncoder().fit(["a", "b"])
        assert encoder.transform(["z"]).sum() == 0.0

    def test_max_categories_keeps_most_frequent(self):
        values = ["a"] * 5 + ["b"] * 3 + ["c"]
        encoder = OneHotEncoder(max_categories=2).fit(values)
        assert set(encoder.categories_) == {"a", "b"}


class TestSimpleImputer:
    def test_mean_imputation(self):
        X = np.asarray([[1.0], [np.nan], [3.0]])
        out = SimpleImputer().fit_transform(X)
        assert out[1, 0] == 2.0

    def test_all_nan_column_uses_fill_value(self):
        X = np.asarray([[np.nan], [np.nan]])
        out = SimpleImputer(fill_value=-1.0).fit_transform(X)
        assert np.all(out == -1.0)

    def test_all_nan_column_fits_without_warnings(self):
        X = np.asarray([[1.0, np.nan, 2.0], [np.nan, np.nan, 5.0], [4.0, np.nan, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            imputer = SimpleImputer(fill_value=-1.0).fit(X)
        # Columns with a value keep np.nanmean's statistic exactly.
        assert imputer.statistics_[0] == np.nanmean(X[:, 0])
        assert imputer.statistics_[2] == np.nanmean(X[:, 2])
        assert imputer.statistics_[1] == -1.0

    def test_table_without_rows_fits_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            imputer = SimpleImputer(fill_value=7.0).fit(np.empty((0, 2)))
        assert np.array_equal(imputer.statistics_, [7.0, 7.0])


class TestMeanImpute:
    def test_fills_every_matrix_with_the_training_mean(self):
        train = np.asarray([[1.0, np.nan], [np.nan, np.nan], [4.0, np.nan]])
        valid = np.asarray([[np.nan, np.nan], [7.0, 3.0]])
        filled_train, filled_valid = mean_impute(train, valid)
        assert filled_train.tolist() == [[1.0, 0.0], [2.5, 0.0], [4.0, 0.0]]
        assert filled_valid.tolist() == [[2.5, 0.0], [7.0, 3.0]]
        assert np.isnan(train[1, 0]) and np.isnan(valid[0, 0])  # inputs untouched

    def test_mean_of_the_present_values_not_nanmean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(997, 3)) * 1e3
        X[rng.random(X.shape) < 0.3] = np.nan
        (filled,) = mean_impute(X)
        for j in range(X.shape[1]):
            column = X[:, j]
            want = float(column[~np.isnan(column)].mean())
            assert np.all(filled[np.isnan(column), j] == want)


class TestTableVectorizer:
    @pytest.fixture
    def table(self):
        return Table(
            [
                Column("num", [1.0, 2.0, None, 4.0], dtype=DType.NUMERIC),
                Column("small_cat", ["a", "b", "a", "b"], dtype=DType.CATEGORICAL),
                Column("big_cat", [f"v{i}" for i in range(4)], dtype=DType.CATEGORICAL),
            ]
        )

    def test_output_shape(self, table):
        vec = TableVectorizer(["num", "small_cat"], one_hot_max_cardinality=5)
        X = vec.fit_transform(table)
        assert X.shape == (4, 3)  # 1 numeric + 2 one-hot

    def test_high_cardinality_label_encoded(self, table):
        vec = TableVectorizer(["big_cat"], one_hot_max_cardinality=2)
        X = vec.fit_transform(table)
        assert X.shape == (4, 1)

    def test_missing_numeric_imputed(self, table):
        vec = TableVectorizer(["num"])
        X = vec.fit_transform(table)
        assert not np.isnan(X).any()

    def test_transform_before_fit_raises(self, table):
        with pytest.raises(RuntimeError):
            TableVectorizer(["num"]).transform(table)

    def test_consistent_layout_on_new_table(self, table):
        vec = TableVectorizer(["num", "small_cat"]).fit(table)
        other = Table(
            [
                Column("num", [9.0], dtype=DType.NUMERIC),
                Column("small_cat", ["zzz"], dtype=DType.CATEGORICAL),
            ]
        )
        X = vec.transform(other)
        assert X.shape[1] == len(vec.output_names_)

    def test_output_names(self, table):
        vec = TableVectorizer(["num", "small_cat"]).fit(table)
        assert vec.output_names_[0] == "num"
        assert any(name.startswith("small_cat=") for name in vec.output_names_)


class TestSplit:
    def test_sizes(self):
        table = Table.from_dict({"x": list(range(100))})
        train, valid, test = train_valid_test_split(table, (0.6, 0.2, 0.2), seed=0)
        assert train.num_rows == 60
        assert valid.num_rows == 20
        assert test.num_rows == 20

    def test_disjoint_and_complete(self):
        table = Table.from_dict({"x": list(range(50))})
        train, valid, test = train_valid_test_split(table, seed=1)
        values = (
            list(train.column("x").values)
            + list(valid.column("x").values)
            + list(test.column("x").values)
        )
        assert sorted(values) == [float(i) for i in range(50)]

    def test_invalid_ratios(self):
        table = Table.from_dict({"x": [1, 2, 3]})
        with pytest.raises(ValueError):
            train_valid_test_split(table, (0.5, 0.2, 0.2))

    def test_deterministic_with_seed(self):
        table = Table.from_dict({"x": list(range(30))})
        a = train_valid_test_split(table, seed=7)[0]
        b = train_valid_test_split(table, seed=7)[0]
        assert list(a.column("x").values) == list(b.column("x").values)
