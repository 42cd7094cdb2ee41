"""Property-based tests for the query layer and the HPO substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.hpo.kde import CategoricalDensity, GaussianKDE
from repro.hpo.space import CategoricalDimension, RealDimension, SearchSpace
from repro.query.executor import execute_query
from repro.query.pool import QueryPool
from repro.query.template import QueryTemplate

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def relevant_table(draw):
    n = draw(st.integers(min_value=5, max_value=40))
    keys = draw(st.lists(st.sampled_from(["u1", "u2", "u3", "u4"]), min_size=n, max_size=n))
    cats = draw(st.lists(st.sampled_from(["red", "green", "blue"]), min_size=n, max_size=n))
    values = draw(st.lists(finite_floats, min_size=n, max_size=n))
    return Table(
        [
            Column("uid", keys, dtype=DType.CATEGORICAL),
            Column("colour", cats, dtype=DType.CATEGORICAL),
            Column("amount", values, dtype=DType.NUMERIC),
        ]
    )


class TestQueryPoolProperties:
    @given(table=relevant_table(), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_every_sampled_query_is_executable(self, table, seed):
        template = QueryTemplate(["SUM", "AVG", "COUNT"], ["amount"], ["colour", "amount"], ["uid"])
        pool = QueryPool(template, table)
        for query in pool.sample_random(seed=seed, n=5):
            result = execute_query(query, table)
            assert result.num_rows <= len(set(table.column("uid").values))
            assert "feature" in result

    @given(table=relevant_table(), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_decoded_query_feature_rows_unique_per_key(self, table, seed):
        template = QueryTemplate(["SUM"], ["amount"], ["colour"], ["uid"])
        pool = QueryPool(template, table)
        query = pool.sample_random(seed=seed, n=1)[0]
        result = execute_query(query, table)
        keys = list(result.column("uid").values)
        assert len(keys) == len(set(keys))


class TestDensityProperties:
    @given(
        observations=st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=0, max_size=30),
        value=st.floats(min_value=0, max_value=1, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_kde_pdf_positive(self, observations, value):
        kde = GaussianKDE(0.0, 1.0, observations)
        assert kde.pdf([value])[0] > 0

    @given(
        observations=st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_categorical_density_normalised(self, observations):
        density = CategoricalDensity(["a", "b", "c"], observations)
        np.testing.assert_allclose(sum(density.pdf([c])[0] for c in ["a", "b", "c"]), 1.0, rtol=1e-9)


class TestSearchSpaceProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_samples_always_validate(self, seed):
        space = SearchSpace(
            [
                CategoricalDimension("agg", ["SUM", "AVG", None]),
                RealDimension("low", -5, 5, optional=True),
                RealDimension("high", -5, 5, optional=True),
            ]
        )
        rng = np.random.default_rng(seed)
        space.validate(space.sample(rng))
