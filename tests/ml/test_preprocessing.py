"""Unit tests for preprocessing: encoders, scaler, imputer, vectoriser, splits."""

import warnings

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.ml.preprocessing import (
    LabelEncoder,
    OneHotEncoder,
    SimpleImputer,
    StandardScaler,
    TableVectorizer,
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

    def test_inverse_transform(self):
        encoder = LabelEncoder().fit(["x", "y"])
        assert encoder.inverse_transform([1, 0]) == ["y", "x"]


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


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5, 3, size=(200, 3))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1, atol=1e-9)

    def test_constant_column_not_divided_by_zero(self):
        X = np.ones((10, 1))
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))


class TestSimpleImputer:
    def test_mean_imputation(self):
        X = np.asarray([[1.0], [np.nan], [3.0]])
        out = SimpleImputer().fit_transform(X)
        assert out[1, 0] == 2.0

    def test_median_imputation(self):
        X = np.asarray([[1.0], [np.nan], [100.0], [3.0]])
        out = SimpleImputer(strategy="median").fit_transform(X)
        assert out[1, 0] == 3.0

    def test_constant_imputation(self):
        X = np.asarray([[np.nan], [np.nan]])
        out = SimpleImputer(strategy="constant", fill_value=-1.0).fit_transform(X)
        assert np.all(out == -1.0)

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            SimpleImputer(strategy="magic")

    def test_all_nan_column_uses_fill_value(self):
        X = np.asarray([[np.nan], [np.nan]])
        out = SimpleImputer(strategy="mean", fill_value=0.0).fit_transform(X)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("strategy", ["mean", "median"])
    def test_all_nan_column_fits_without_warnings(self, strategy):
        X = np.asarray([[1.0, np.nan, 2.0], [np.nan, np.nan, 5.0], [4.0, np.nan, np.nan]])
        reduce = np.nanmedian if strategy == "median" else np.nanmean
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            imputer = SimpleImputer(strategy=strategy, fill_value=-1.0).fit(X)
        # Columns with a value keep the nan-reduction's statistic exactly.
        assert imputer.statistics_[0] == reduce(X[:, 0])
        assert imputer.statistics_[2] == reduce(X[:, 2])
        assert imputer.statistics_[1] == -1.0

    def test_table_without_rows_fits_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            imputer = SimpleImputer(fill_value=7.0).fit(np.empty((0, 2)))
        assert np.array_equal(imputer.statistics_, [7.0, 7.0])


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
