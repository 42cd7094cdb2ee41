"""Unit tests for PredicateAwareQuery."""

import numpy as np

from repro.dataframe.column import DType, parse_datetime
from repro.query.pool import QueryPool
from repro.query.query import PredicateAtom, PredicateAwareQuery
from repro.query.template import QueryTemplate

ELECTRONICS = PredicateAtom("eq", "department", value="electronics")
SINCE_JULY = PredicateAtom(
    "range", "timestamp", low=parse_datetime("2023-07-01"), dtype=DType.DATETIME
)


def make_query(**overrides):
    defaults = dict(
        agg_func="AVG",
        agg_attr="pprice",
        keys=("cname",),
        atoms=(ELECTRONICS, SINCE_JULY),
        relation_name="User_Logs",
    )
    defaults.update(overrides)
    return PredicateAwareQuery(**defaults)


def decode(table, reverse=False, **overrides):
    """The query that a department/timestamp pool decodes from *overrides*,
    with every WHERE dimension not named left at ``None``; *reverse* hands
    ``decode`` the parameters in reversed insertion order."""
    template = QueryTemplate(["AVG"], ["pprice"], ["department", "timestamp"], ["cname"])
    pool = QueryPool(template, table, relation_name="User_Logs")
    params = {name: None for name in pool.space.names}
    params.update(agg_func="AVG", agg_attr="pprice", group_keys=("cname",))
    params.update(overrides)
    if reverse:
        params = dict(reversed(list(params.items())))
    return pool.decode(params)


class TestToSQL:
    def test_example_4_from_paper(self):
        sql = make_query().to_sql()
        assert "SELECT cname, AVG(pprice) AS feature" in sql
        assert "FROM User_Logs" in sql
        assert "department = 'electronics'" in sql
        assert "timestamp >= '2023-07-01'" in sql
        assert "GROUP BY cname" in sql

    def test_no_predicates_omits_where(self):
        query = make_query(atoms=())
        assert "WHERE" not in query.to_sql()

    def test_none_constraints_omitted(self, logs_table):
        assert "WHERE" not in decode(logs_table).to_sql()
        sql = decode(logs_table, **{"pred_low::timestamp": parse_datetime("2023-07-01")}).to_sql()
        assert "WHERE timestamp >= '2023-07-01'\n" in sql
        assert "department" not in sql

    def test_two_sided_range(self):
        query = make_query(
            atoms=(PredicateAtom("range", "timestamp", low=0.0, high=86400.0, dtype=DType.NUMERIC),)
        )
        sql = query.to_sql()
        assert "timestamp >= 0" in sql and "timestamp <= 86400" in sql

    def test_multiple_keys_in_group_by(self):
        query = make_query(keys=("user_id", "merchant_id"), atoms=())
        assert "GROUP BY user_id, merchant_id" in query.to_sql()

    def test_equality_predicate(self):
        query = make_query(atoms=(PredicateAtom("eq", "department", value="toys"),))
        assert "WHERE department = 'toys'\n" in query.to_sql()

    def test_aggregate_name_is_canonical(self):
        assert "SELECT cname, AVG(pprice) AS feature" in make_query(agg_func="avg").to_sql()
        assert "COUNT(DISTINCT pprice) AS feature" in make_query(agg_func="count distinct").to_sql()


class TestPredicateConstruction:
    def test_has_predicates_true(self, logs_table):
        assert make_query().atoms
        assert decode(logs_table, **{"pred::department": "media"}).atoms

    def test_has_predicates_false_when_all_none(self, logs_table):
        query = decode(logs_table)
        assert not query.atoms
        assert query.build_predicate().mask(logs_table).all()

    def test_build_predicate_masks_table(self, logs_table):
        query = make_query(relation_name="User_Logs")
        mask = query.build_predicate().mask(logs_table)
        # electronics AND timestamp >= 2023-07-01: rows 0, 2, 5
        assert list(mask) == [True, False, True, False, False, True, False, False, False]

    def test_signature_stable_under_atom_order(self):
        a = make_query()
        b = make_query(atoms=(SINCE_JULY, ELECTRONICS))
        assert a.signature() == b.signature()

    def test_signature_stable_under_dict_order(self, logs_table):
        params = {
            "pred::department": "media",
            "pred_low::timestamp": 1.0,
            "pred_high::timestamp": 2.0,
        }
        a = decode(logs_table, **params)
        b = decode(logs_table, reverse=True, **params)
        assert a.signature() == b.signature()
        assert a.to_sql() == b.to_sql()

    def test_signature_differs_for_different_agg(self):
        assert make_query().signature() != make_query(agg_func="SUM").signature()

    def test_signature_is_the_computed_sql(self, logs_table):
        """Unconstrained queries decoded from templates over different
        attributes compute the same SQL and are one query; constrained and
        unconstrained ones differ."""
        bare = []
        for attrs in (["department"], ["timestamp"]):
            pool = QueryPool(QueryTemplate(["AVG"], ["pprice"], attrs, ["cname"]), logs_table)
            params = {name: None for name in pool.space.names}
            params.update(agg_func="AVG", agg_attr="pprice", group_keys=("cname",))
            bare.append(pool.decode(params))
        assert bare[0].signature() == bare[1].signature()
        assert bare[0].to_sql() == bare[1].to_sql()
        constrained = make_query(atoms=(ELECTRONICS,))
        assert make_query(atoms=()).signature() != constrained.signature()

    def test_signature_equal_for_numpy_and_python_constants(self):
        numpy_atom = PredicateAtom("eq", "department", value=np.str_("electronics"))
        numpy_range = PredicateAtom(
            "range", "timestamp", low=np.float64(parse_datetime("2023-07-01")), dtype=DType.DATETIME
        )
        assert make_query(atoms=(numpy_atom, numpy_range)).signature() == make_query().signature()
