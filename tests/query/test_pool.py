"""Unit tests for QueryPool (template -> search space -> query decoding)."""

import numpy as np
import pytest

from repro.dataframe.column import DType
from repro.dataframe.table import Table
from repro.hpo.space import CategoricalDimension, RealDimension
from repro.query.pool import QueryPool
from repro.query.template import QueryTemplate


@pytest.fixture
def template():
    return QueryTemplate(
        ["SUM", "AVG", "MAX"], ["pprice"], ["department", "timestamp"], ["cname"]
    )


@pytest.fixture
def pool(template, logs_table):
    return QueryPool(template, logs_table, relation_name="User_Logs")


class TestSpaceConstruction:
    def test_dimension_names(self, pool):
        names = pool.space.names
        assert "agg_func" in names
        assert "agg_attr" in names
        assert "pred::department" in names
        assert "pred_low::timestamp" in names
        assert "pred_high::timestamp" in names
        assert "group_keys" in names

    def test_vector_layout_matches_paper_formula(self, pool, template):
        """Section V.A: 2 + n + 2*m + |K| elements for n categorical and m numeric predicates."""
        n_categorical = 1
        n_numeric = 1
        expected = 2 + n_categorical + 2 * n_numeric + 1
        assert len(pool.space) == expected

    def test_categorical_domain_includes_none(self, pool):
        dim = pool.space["pred::department"]
        assert isinstance(dim, CategoricalDimension)
        assert None in dim.choices
        assert "electronics" in dim.choices

    def test_numeric_bounds_match_column(self, pool, logs_table):
        dim = pool.space["pred_low::timestamp"]
        assert isinstance(dim, RealDimension)
        assert dim.low == logs_table.column("timestamp").min()
        assert dim.high == logs_table.column("timestamp").max()

    def test_group_keys_subsets(self, pool):
        dim = pool.space["group_keys"]
        assert ("cname",) in dim.choices

    def test_missing_template_column_raises(self, logs_table):
        bad = QueryTemplate(["SUM"], ["nope"], [], ["cname"])
        with pytest.raises(KeyError):
            QueryPool(bad, logs_table)

    def test_domain_of(self, pool):
        assert set(pool.domain_of("department")) >= {"electronics", "household", "media"}
        low, high = pool.domain_of("timestamp")
        assert low < high

    def test_domain_of_unknown_raises(self, pool):
        with pytest.raises(KeyError):
            pool.domain_of("pprice")

    def test_categorical_domain_capped(self, logs_table):
        from repro.query.pool import MAX_CATEGORICAL_VALUES

        wide = QueryTemplate(["SUM"], ["pprice"], ["pname"], ["cname"])
        pool = QueryPool(wide, logs_table)
        assert len(pool.domain_of("pname")) <= MAX_CATEGORICAL_VALUES


class TestDecodeEncode:
    def test_decode_produces_executable_query(self, pool, logs_table):
        params = {
            "agg_func": "AVG",
            "agg_attr": "pprice",
            "pred::department": "electronics",
            "pred_low::timestamp": None,
            "pred_high::timestamp": None,
            "group_keys": ("cname",),
        }
        query = pool.decode(params)
        assert query.agg_func == "AVG"
        mask = query.build_predicate().mask(logs_table)
        assert mask.sum() == 4

    def test_decode_swaps_inverted_bounds(self, pool):
        params = {
            "agg_func": "SUM",
            "agg_attr": "pprice",
            "pred::department": None,
            "pred_low::timestamp": 100.0,
            "pred_high::timestamp": 50.0,
            "group_keys": ("cname",),
        }
        query = pool.decode(params)
        (atom,) = query.atoms
        assert (atom.kind, atom.attr, atom.low, atom.high) == ("range", "timestamp", 50.0, 100.0)

    def test_sample_random_queries_valid(self, pool, logs_table):
        queries = pool.sample_random(seed=0, n=10)
        assert len(queries) == 10
        for query in queries:
            mask = query.build_predicate().mask(logs_table)
            assert mask.shape[0] == logs_table.num_rows

    def test_group_keys_default_to_full_key(self, pool):
        params = {
            "agg_func": "SUM",
            "agg_attr": "pprice",
            "pred::department": None,
            "pred_low::timestamp": None,
            "pred_high::timestamp": None,
            "group_keys": None,
        }
        query = pool.decode(params)
        assert query.keys == ("cname",)

    def test_relation_name_propagated(self, pool):
        query = pool.sample_random(seed=1, n=1)[0]
        assert "User_Logs" in query.to_sql()

    def test_sampled_queries_match_naive(self, pool, logs_table):
        from repro.query.engine import QueryEngine
        from repro.query.executor import execute_query_naive

        queries = pool.sample_random(seed=3, n=6)
        results = QueryEngine(logs_table).execute_batch(queries)
        for query, result in zip(queries, results):
            expected = execute_query_naive(query, logs_table)
            assert result.column_names == expected.column_names
            for name in expected.column_names:
                assert result.column(name) == expected.column(name)


def params_for(pool, **overrides):
    """A parameter dictionary with every WHERE dimension left at ``None``."""
    params = {name: None for name in pool.space.names}
    params.update(agg_func="SUM", agg_attr="pprice", group_keys=("cname",))
    params.update(overrides)
    return params


class TestDecodeAtoms:
    """``QueryPool.decode`` is where a query's typed WHERE atoms are built."""

    def test_unconstrained_attributes_produce_no_atom(self, pool):
        query = pool.decode(params_for(pool))
        assert query.atoms == ()
        assert "WHERE" not in query.to_sql()

    def test_one_sided_range_keeps_its_open_bound(self, pool):
        query = pool.decode(params_for(pool, **{"pred_high::timestamp": 75.0}))
        (atom,) = query.atoms
        assert (atom.kind, atom.low, atom.high) == ("range", None, 75.0)

    def test_atoms_follow_the_template_attribute_order(self, pool):
        query = pool.decode(params_for(
            pool, **{"pred::department": "media", "pred_low::timestamp": 1.0}
        ))
        assert [(atom.kind, atom.attr) for atom in query.atoms] == [
            ("eq", "department"), ("range", "timestamp")
        ]
        assert query.atoms[0].dtype is DType.CATEGORICAL

    def test_datetime_attribute_keeps_its_dtype(self, pool):
        query = pool.decode(params_for(
            pool, **{"pred_low::timestamp": 1.0, "pred_high::timestamp": 2.0}
        ))
        assert query.atoms[0].dtype is DType.DATETIME
        assert "timestamp >= '1970-01-01" in query.to_sql()

    def test_numeric_attribute_keeps_its_dtype(self, logs_table):
        pool = QueryPool(QueryTemplate(["SUM"], ["pprice"], ["pprice"], ["cname"]), logs_table)
        query = pool.decode(params_for(pool, **{"pred_low::pprice": 3.0}))
        assert query.atoms[0].dtype is DType.NUMERIC

    def test_numpy_scalar_constants_give_the_python_signature(self, pool):
        python = pool.decode(params_for(pool, **{
            "pred::department": "media",
            "pred_low::timestamp": 1.0,
            "pred_high::timestamp": 2.0,
        }))
        numpy = pool.decode(params_for(pool, **{
            "pred::department": np.str_("media"),
            "pred_low::timestamp": np.float64(1.0),
            "pred_high::timestamp": np.float64(2.0),
        }))
        assert numpy.signature() == python.signature()
        assert [a.signature() for a in numpy.atoms] == [a.signature() for a in python.atoms]
        assert numpy.to_sql() == python.to_sql()

    @pytest.mark.parametrize(
        "predicate_attrs",
        [("department",), ("pprice",), ("timestamp",), ("department", "pprice", "timestamp")],
    )
    def test_query_mask_equals_the_engine_plan_mask(self, logs_table, predicate_attrs):
        from repro.query.engine import QueryEngine

        template = QueryTemplate(["SUM"], ["pprice"], predicate_attrs, ["cname"])
        engine = QueryEngine(logs_table)
        for query in QueryPool(template, logs_table).sample_random(seed=5, n=12):
            expected = query.build_predicate().mask(logs_table)
            plan_mask = engine.plan_mask(engine.plan(query))
            if plan_mask is None:
                assert query.atoms == () and expected.all()
            else:
                np.testing.assert_array_equal(plan_mask, expected)


def appended_row(**overrides):
    row = {
        "cname": "erin",
        "pname": "soap",
        "pprice": 10.0,
        "department": "household",
        "timestamp": "2023-07-10",
    }
    row.update(overrides)
    return row


#: Rows appended to ``logs_table`` before a pool is built over it: known
#: values only, a new department label, timestamps outside the old bounds on
#: both sides, and a mix of all three.
APPENDED_ROWS = {
    "known-values": [appended_row(), appended_row(cname="alice", pname="tv")],
    "new-label": [appended_row(department="garden"), appended_row(department="toys")],
    "new-bounds": [
        appended_row(timestamp="2024-01-01"),
        appended_row(timestamp="2021-01-01"),
    ],
    "mixed": [
        appended_row(department="garden", timestamp="2024-02-02"),
        appended_row(department="household", timestamp="2021-01-01"),
        appended_row(pname="lamp", pprice=float("nan")),
        appended_row(department="toys", timestamp="2020-06-15"),
    ],
}


def rebuilt(table: Table) -> Table:
    """The same rows as *table*, built in one shot from decoded values (fresh
    dictionaries in first-appearance order, no append history)."""
    return Table.from_dict(
        {name: table.column(name).to_list() for name in table.column_names},
        dtypes=table.schema(),
    )


class TestPoolOverAppendedTable:
    """A pool built over a table grown by ``Table.append_rows`` equals one
    built over the same rows in one shot, however the rows arrived.  Pools
    are snapshots: one built before an append keeps its space."""

    @pytest.mark.parametrize("rows", APPENDED_ROWS)
    @pytest.mark.parametrize("splits", (1, 2, 4))
    def test_pool_equals_pool_over_one_shot_table(self, template, logs_table, rows, splits):
        appended = APPENDED_ROWS[rows]
        for part in np.array_split(np.arange(len(appended)), splits):
            logs_table.append_rows([appended[i] for i in part])
        grown = QueryPool(template, logs_table, relation_name="User_Logs")
        fresh = QueryPool(template, rebuilt(logs_table), relation_name="User_Logs")
        for attr in template.predicate_attrs:
            assert grown.domain_of(attr) == fresh.domain_of(attr)
        assert grown.space.names == fresh.space.names
        low, high = grown.domain_of("timestamp")
        assert low == logs_table.column("timestamp").min()
        assert high == logs_table.column("timestamp").max()
        labels = [r["department"] for r in appended]
        assert set(labels) <= set(grown.domain_of("department"))

    @pytest.mark.parametrize("rows", APPENDED_ROWS)
    def test_pool_built_before_an_append_keeps_its_space(self, template, logs_table, rows):
        pool = QueryPool(template, logs_table, relation_name="User_Logs")
        space = pool.space
        domains = {attr: pool.domain_of(attr) for attr in template.predicate_attrs}
        logs_table.append_rows(APPENDED_ROWS[rows])
        assert pool.space is space
        for attr, domain in domains.items():
            assert pool.domain_of(attr) == domain

    @pytest.mark.parametrize("splits", (1, 2, 4))
    def test_categorical_cap_over_appended_labels(self, logs_table, splits):
        """Appended labels compete for the capped domain by frequency, with
        counts read through the column's extended dictionary."""
        from repro.query.pool import MAX_CATEGORICAL_VALUES

        wide = QueryTemplate(["SUM"], ["pprice"], ["pname"], ["cname"])
        # Each new product appears twice, except every third, which appears
        # four times and so must outrank the pairs and the old products (at
        # most three rows each).
        appended = []
        for i in range(2 * MAX_CATEGORICAL_VALUES):
            appended += [appended_row(pname=f"p{i}")] * (4 if i % 3 == 0 else 2)
        for part in np.array_split(np.arange(len(appended)), splits):
            logs_table.append_rows([appended[i] for i in part])
        grown = QueryPool(wide, logs_table)
        fresh = QueryPool(wide, rebuilt(logs_table))
        domain = grown.domain_of("pname")
        assert len(domain) == MAX_CATEGORICAL_VALUES
        assert domain == fresh.domain_of("pname")
        assert domain[: 2 * MAX_CATEGORICAL_VALUES // 3] == [
            f"p{i}" for i in range(0, 2 * MAX_CATEGORICAL_VALUES, 3)
        ]
