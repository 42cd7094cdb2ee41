"""The SQL a query prints selects the feature the engine computes.

``PredicateAwareQuery.to_sql`` is what ``repro run`` and
``FeatAugResult.sql()`` show a user, who may paste it into a SQL engine.
Each case renders a query, runs the text through the standard library's
SQLite over the same rows, and compares the result with ``execute_query``
group by group.  SQLite's own ``SUM`` / ``MIN`` / ``MAX`` / ``COUNT`` /
``AVG`` / ``COUNT(DISTINCT ...)`` give an independent check of those
aggregates; the other Table II functions are registered as SQLite
aggregates over the reference functions, so for them the case checks the
rendered WHERE clause, GROUP BY and call syntax.

Datetime values are stored as ``format_datetime`` text, which orders
chronologically under SQLite's string comparison.  NaN / ``None`` values
become ``NULL``; a ``NULL`` result reads back as NaN.
"""

import math
import sqlite3

import numpy as np
import pytest

from repro.dataframe.aggregates import AGGREGATE_FUNCTIONS
from repro.dataframe.column import Column, DType, format_datetime, parse_datetime
from repro.dataframe.table import Table
from repro.query.executor import execute_query
from repro.query.query import PredicateAtom, PredicateAwareQuery

#: Functions SQLite evaluates itself; the rest are registered below.
SQLITE_NATIVE = {"SUM", "MIN", "MAX", "COUNT", "AVG", "COUNT_DISTINCT"}

ROWS = [
    # k, cat, num, ts, val
    ("u1", "x", 0.1, "2023-07-01", 3.5),
    ("u1", "y", 2.5, "2023-07-01 08:30:00", -1.25),
    ("u1", "x", None, "2023-07-02", 3.5),
    ("u1", "o'brien", 7.0, "2023-07-03 12:00:00", 10.0),
    ("u2", "x", -3.0, "2023-06-30 23:59:59", None),
    ("u2", "y", 2.5, "2023-07-03 12:00:01", 0.75),
    ("u2", None, 0.0999, "2023-07-02 00:00:01", 2.0),
    ("u3", "y", 10.0, None, None),
    ("u3", "o'brien", 0.1, "2023-07-03", None),
    ("u3", "x", 1.5, "2023-07-01", 6.0),
    ("u4", "z", 4.0, "2023-07-04", 1.0),
    ("u4", "x", 2.5, "2023-07-02 06:00:00", 1.0),
    ("u4", "y", -3.0, "2023-07-01", 9.5),
    ("u4", "x", 0.1, "2023-07-03 12:00:00", 4.25),
]

#: WHERE clauses by shape: none, equality (with a quote to escape), closed
#: and one-sided numeric ranges whose bounds are data values, a datetime
#: range with a timed bound, and an equality beside a range.
def num_range(low, high):
    return PredicateAtom("range", "num", low=low, high=high, dtype=DType.NUMERIC)


WHERE_SHAPES = {
    "none": (),
    "eq": (PredicateAtom("eq", "cat", value="x"),),
    "eq_quoted": (PredicateAtom("eq", "cat", value="o'brien"),),
    "range": (num_range(0.1, 2.5),),
    "low_only": (num_range(0.1, None),),
    "high_only": (num_range(None, 2.5),),
    "datetime": (PredicateAtom(
        "range", "ts", low=parse_datetime("2023-07-01"),
        high=parse_datetime("2023-07-03 12:00:00"), dtype=DType.DATETIME,
    ),),
    "eq_and_range": (PredicateAtom("eq", "cat", value="y"), num_range(-3.0, 10.0)),
}


def relevant_table() -> Table:
    k, cat, num, ts, val = zip(*ROWS)
    return Table(
        [
            Column("k", list(k), dtype=DType.CATEGORICAL),
            Column("cat", list(cat), dtype=DType.CATEGORICAL),
            Column("num", [np.nan if v is None else v for v in num], dtype=DType.NUMERIC),
            Column("ts", [None if v is None else parse_datetime(v) for v in ts], dtype=DType.DATETIME),
            Column("val", [np.nan if v is None else v for v in val], dtype=DType.NUMERIC),
        ]
    )


def _sqlite_aggregate(func):
    class Aggregate:
        def __init__(self):
            self.values = []

        def step(self, value):
            self.values.append(np.nan if value is None else value)

        def finalize(self):
            result = func(np.asarray(self.values, dtype=np.float64))
            return None if math.isnan(result) else result

    return Aggregate


def sqlite_database(table: Table) -> sqlite3.Connection:
    """The table as relation ``R`` with every non-native aggregate registered."""
    conn = sqlite3.connect(":memory:")
    for name, func in AGGREGATE_FUNCTIONS.items():
        if name not in SQLITE_NATIVE:
            conn.create_aggregate(name, 1, _sqlite_aggregate(func))
    conn.execute("CREATE TABLE R (k TEXT, cat TEXT, num REAL, ts TEXT, val REAL)")
    ts = [None if math.isnan(v) else format_datetime(v) for v in table.column("ts").values]
    num = [None if math.isnan(v) else float(v) for v in table.column("num").values]
    val = [None if math.isnan(v) else float(v) for v in table.column("val").values]
    conn.executemany(
        "INSERT INTO R VALUES (?, ?, ?, ?, ?)",
        zip(table.column("k").to_list(), table.column("cat").to_list(), num, ts, val),
    )
    return conn


def sqlite_feature(conn: sqlite3.Connection, sql: str) -> dict:
    """``{key tuple: value}`` of the SQL's result rows."""
    return {row[:-1]: (math.nan if row[-1] is None else row[-1]) for row in conn.execute(sql)}


def engine_feature(query: PredicateAwareQuery, table: Table) -> dict:
    result = execute_query(query, table)
    keys = zip(*(result.column(key).to_list() for key in query.keys))
    return dict(zip(keys, result.column("feature").values.tolist()))


def assert_same_feature(table, conn, query: PredicateAwareQuery) -> None:
    expected = engine_feature(query, table)
    actual = sqlite_feature(conn, query.to_sql())
    assert expected, "every case keeps at least one group"
    assert set(actual) == set(expected)
    for key, value in expected.items():
        if math.isnan(value):
            assert math.isnan(actual[key]), (key, actual[key])
        else:
            assert actual[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key


@pytest.fixture(scope="module")
def table():
    return relevant_table()


@pytest.fixture(scope="module")
def conn(table):
    connection = sqlite_database(table)
    yield connection
    connection.close()


@pytest.mark.parametrize("shape", list(WHERE_SHAPES))
@pytest.mark.parametrize("func", list(AGGREGATE_FUNCTIONS))
def test_printed_sql_selects_the_engine_feature(table, conn, func, shape):
    query = PredicateAwareQuery(
        agg_func=func, agg_attr="val", keys=("k",), atoms=WHERE_SHAPES[shape]
    )
    assert_same_feature(table, conn, query)


@pytest.mark.parametrize("func", list(AGGREGATE_FUNCTIONS))
def test_two_key_group_by_keeps_the_missing_key_group(table, conn, func):
    """``GROUP BY k, cat`` groups like the engine, ``NULL`` category included."""
    query = PredicateAwareQuery(
        agg_func=func,
        agg_attr="val",
        keys=("k", "cat"),
        atoms=(num_range(0.0, 5.0),),
    )
    assert ("u2", None) in engine_feature(query, table)
    assert_same_feature(table, conn, query)


def test_where_shapes_select_different_rows(table):
    """The shapes are not vacuous: each selects a distinct, non-empty row set."""
    masks = set()
    for shape, atoms in WHERE_SHAPES.items():
        query = PredicateAwareQuery(agg_func="COUNT", agg_attr="val", keys=("k",), atoms=atoms)
        mask = query.build_predicate().mask(table)
        assert mask.any(), shape
        masks.add(tuple(mask))
    assert len(masks) == len(WHERE_SHAPES)
