"""Candidate scoring on the key domain is the left join, bit for bit.

``ModelEvaluator.feature_vectors_for_queries`` reads each query's values per
group of the engine's ``GroupIndex`` and gathers them through each split
row's group code, built once per (split, index).  These tests pin that the
vectors are the bytes ``augment_training_table`` joins onto the split from
``execute_batch``'s result table, over the key shapes the join handles, and
that an append which adds a group is seen by the next call.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import ModelEvaluator
from repro.dataframe.aggregates import DEFAULT_AGGREGATES
from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.ml.linear import LogisticRegression
from repro.query.augment import augment_training_table
from repro.query.engine import GroupIndex, QueryEngine
from repro.query.query import PredicateAtom, PredicateAwareQuery

NAN = float("nan")
DAY = 86400.0
BASE = 1.7e9  # a timestamp in 2023

#: Relevant-table key values per key kind; the splits draw from a superset,
#: so some split rows match no group.
RELEVANT_NUMERIC = [0.0, 1.0, 2.0, 3.0, NAN]
SPLIT_NUMERIC = RELEVANT_NUMERIC + [4.0, 5.0]
RELEVANT_CATEGORICAL = ["a", "b", "c", "d", None]
SPLIT_CATEGORICAL = RELEVANT_CATEGORICAL + ["e", "f"]

KEY_KINDS = {
    # kind: [(key name, dtype, relevant values, split values)]
    "numeric": [("k_num", DType.NUMERIC, RELEVANT_NUMERIC, SPLIT_NUMERIC)],
    "datetime": [
        (
            "k_time",
            DType.DATETIME,
            [BASE + DAY * v for v in RELEVANT_NUMERIC],
            [BASE + DAY * v for v in SPLIT_NUMERIC],
        )
    ],
    "categorical": [("k_cat", DType.CATEGORICAL, RELEVANT_CATEGORICAL, SPLIT_CATEGORICAL)],
    "two columns": [
        ("k_num", DType.NUMERIC, RELEVANT_NUMERIC, SPLIT_NUMERIC),
        ("k_cat", DType.CATEGORICAL, RELEVANT_CATEGORICAL, SPLIT_CATEGORICAL),
    ],
}


def key_column(name, dtype, values):
    if dtype is DType.CATEGORICAL:
        return Column(name, list(values), dtype=dtype)
    return Column(name, np.asarray(values, dtype=np.float64), dtype=dtype)


def make_evaluator(train, valid, relevant, engine=None):
    return ModelEvaluator(
        train,
        valid,
        label="label",
        base_features=[],
        model=LogisticRegression(),
        task="binary",
        relevant_table=relevant,
        engine=engine,
    )


@st.composite
def scoring_cases(draw):
    kind = draw(st.sampled_from(sorted(KEY_KINDS)))
    spec = KEY_KINDS[kind]
    n_relevant = draw(st.integers(min_value=1, max_value=30))

    def picks(values, n):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    relevant = Table(
        [key_column(name, dtype, picks(rel, n_relevant)) for name, dtype, rel, _ in spec]
        + [
            Column("cat", picks(["x", "y"], n_relevant), dtype=DType.CATEGORICAL),
            Column(
                "val",
                np.asarray(
                    draw(
                        st.lists(
                            st.one_of(st.just(NAN), st.floats(-5, 5)),
                            min_size=n_relevant,
                            max_size=n_relevant,
                        )
                    ),
                    dtype=np.float64,
                ),
                dtype=DType.NUMERIC,
            ),
        ]
    )

    def split(n):
        return Table(
            [key_column(name, dtype, picks(values, n)) for name, dtype, _, values in spec]
            + [Column("label", np.asarray(picks([0.0, 1.0], n)), dtype=DType.NUMERIC)]
        )

    train = split(draw(st.integers(min_value=0, max_value=20)))
    valid = split(draw(st.integers(min_value=0, max_value=20)))
    keys = tuple(name for name, *_ in spec)
    where = st.sampled_from(
        [
            (),
            (PredicateAtom("eq", "cat", value="x"),),
            (PredicateAtom("eq", "cat", value="z"),),  # matches no row
            (PredicateAtom("range", "val", low=-1.0, high=1.0, dtype=DType.NUMERIC),),
        ]
    )
    queries = [
        PredicateAwareQuery(func, "val", keys, atoms)
        for func, atoms in draw(
            st.lists(st.tuples(st.sampled_from(DEFAULT_AGGREGATES), where), min_size=1, max_size=5)
        )
    ]
    return relevant, train, valid, queries


def joined_bytes(split, table, query):
    joined = augment_training_table(split, table, query.keys, query.feature_name, "f")
    return joined.column("f").values.tobytes()


class TestKeyDomainEquivalence:
    @given(case=scoring_cases())
    @settings(max_examples=120, deadline=None)
    def test_vectors_are_the_left_joined_feature(self, case):
        relevant, train, valid, queries = case
        evaluator = make_evaluator(train, valid, relevant, QueryEngine(relevant))
        train_vecs, valid_vecs = evaluator.feature_vectors_for_queries(queries)
        # The oracle runs on an engine of its own, so its tables are not
        # built from the results the evaluator read.
        tables = QueryEngine(relevant).execute_batch(queries)
        for query, table, train_vec, valid_vec in zip(queries, tables, train_vecs, valid_vecs):
            assert train_vec.tobytes() == joined_bytes(train, table, query)
            assert valid_vec.tobytes() == joined_bytes(valid, table, query)

    @pytest.mark.parametrize("kind", sorted(KEY_KINDS))
    def test_missing_and_unmatched_keys(self, kind):
        """Missing keys match the missing-key group; keys outside the
        relevant table, and groups an empty filter drops, read NaN."""
        spec = KEY_KINDS[kind]
        relevant = Table(
            [key_column(name, dtype, rel) for name, dtype, rel, _ in spec]
            + [
                Column("cat", ["x", "y", "x", "y", "x"], dtype=DType.CATEGORICAL),
                Column("val", np.arange(5, dtype=np.float64), dtype=DType.NUMERIC),
            ]
        )
        train = Table(
            [key_column(name, dtype, values) for name, dtype, _, values in spec]
            + [Column("label", np.zeros(7), dtype=DType.NUMERIC)]
        )
        keys = tuple(name for name, *_ in spec)
        queries = [
            PredicateAwareQuery("SUM", "val", keys),
            PredicateAwareQuery("SUM", "val", keys, (PredicateAtom("eq", "cat", value="x"),)),
            PredicateAwareQuery("SUM", "val", keys, (PredicateAtom("eq", "cat", value="z"),)),
        ]
        evaluator = make_evaluator(train, train, relevant)
        (every, only_x, none), _ = evaluator.feature_vectors_for_queries(queries, valid=False)
        # Row i of the split has the key of relevant row i for i < 5 (the
        # fifth is the missing key); rows 5 and 6 match no group.
        np.testing.assert_array_equal(every, [0.0, 1.0, 2.0, 3.0, 4.0, NAN, NAN])
        np.testing.assert_array_equal(only_x, [0.0, NAN, 2.0, NAN, 4.0, NAN, NAN])
        assert np.isnan(none).all()


class TestAppendRebuildsTheMap:
    def test_a_new_group_is_read_after_an_append(self):
        relevant = Table(
            [
                Column("k", ["a", "b", "a"], dtype=DType.CATEGORICAL),
                Column("val", np.asarray([1.0, 2.0, 3.0]), dtype=DType.NUMERIC),
            ]
        )
        train = Table(
            [
                Column("k", ["a", "c", "b"], dtype=DType.CATEGORICAL),
                Column("label", np.asarray([0.0, 1.0, 0.0]), dtype=DType.NUMERIC),
            ]
        )
        evaluator = make_evaluator(train, train, relevant)
        query = PredicateAwareQuery("SUM", "val", ("k",))
        (before,), _ = evaluator.feature_vectors_for_queries([query], valid=False)
        np.testing.assert_array_equal(before, [4.0, NAN, 2.0])
        ((old_index, _),) = evaluator._row_groups.values()

        relevant.append_rows({"k": ["c", "a"], "val": [5.0, 10.0]})
        (after,), _ = evaluator.feature_vectors_for_queries([query], valid=False)
        np.testing.assert_array_equal(after, [14.0, 5.0, 2.0])
        ((new_index, codes),) = evaluator._row_groups.values()
        assert new_index is not old_index and new_index.n_groups == 3
        assert codes.tolist() == [0, 2, 1]
        table = QueryEngine(relevant).execute(query)
        assert after.tobytes() == joined_bytes(train, table, query)


class TestRowGroups:
    """``GroupIndex.row_groups``: each row's group by the join's matching."""

    def test_first_appearance_codes_and_no_match(self):
        right = Table.from_dict({"id": ["c", "a", "c"], "v": [1.0, 2.0, 3.0]})
        left = Table.from_dict({"id": ["a", "b", "c", None]})
        assert GroupIndex(right, ["id"]).row_groups(left).tolist() == [1, 2, 0, 2]

    def test_multi_column_keys(self):
        right = Table.from_dict({"k2": [1.0, 2.0], "k1": ["b", "a"]})
        left = Table.from_dict({"k1": ["a", "a", "b"], "k2": [1.0, 2.0, 1.0]})
        assert GroupIndex(right, ["k1", "k2"]).row_groups(left).tolist() == [2, 1, 0]

    def test_missing_key_column_raises(self):
        right = Table.from_dict({"id": ["a"], "v": [1.0]})
        with pytest.raises(KeyError):
            GroupIndex(right, ["id"]).row_groups(Table.from_dict({"other": ["a"]}))
