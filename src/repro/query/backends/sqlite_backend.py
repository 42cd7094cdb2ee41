"""A stdlib-only SQLite execution backend.

Unlike the in-process numpy / python backends, this backend **owns its own
storage, filtering and grouping**: on first use it materialises the bound
relevant table into an in-memory ``sqlite3`` database (numeric-like columns
as ``REAL`` with ``NaN`` mapped to ``NULL``, categorical columns as integer
codes plus a label dictionary), and every plan then runs as one generated
``SELECT ... WHERE ... GROUP BY ... ORDER BY MIN(rowid)`` statement per
aggregate -- SQLite evaluates the WHERE clause and builds the groups, not the
engine.  It exists to prove the :class:`ExecutionBackend` seam is wide enough
for engines that cannot share the engine's predicate masks or group index
(the prerequisite for out-of-process backends like DuckDB).

Semantics mapping (pinned by the backend-parameterized equivalence suite):

* ``NaN`` / ``None`` become SQL ``NULL``; SQL's NULL rules then coincide with
  the reference semantics (aggregates ignore NULLs, equality and range
  predicates never match NULL, ``GROUP BY`` folds all NULL keys into one
  group -- exactly the NaN-key group of the numpy path).
* ``ORDER BY MIN(rowid)`` reproduces the reference group order: groups appear
  by first appearance within the filtered rows.
* ``SUM / MIN / MAX / COUNT / AVG / COUNT(DISTINCT)`` on numeric attributes
  run as native SQL aggregates.  The remaining aggregate functions (and every
  aggregate over a categorical attribute, whose integer coding is defined by
  first appearance *within the filter*) run through a registered collecting
  aggregate: SQLite still filters and groups, and the per-group values come
  back with their rowids so the reference functions of
  :mod:`repro.dataframe.aggregates` are applied in row order.

The WHERE-clause rendering mirrors the SQL text of
:meth:`repro.query.plan.QueryPlan.to_sql` / ``PredicateAwareQuery.to_sql``
(the display rendering of ``core/sql_generation``'s generated queries), but
uses positional column aliases and bound parameters, so arbitrary column
names and constants are safe.  Native SQL float accumulation may differ from
the reference by rounding order, hence the documented value-equality bar of
``1e-9`` for storage-owning backends (in-process backends stay bit-identical).

One backend instance owns one connection, and ``_run_lock`` runs its plans
one at a time: concurrent ``execute_batch`` callers on one engine serialise
on it.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataframe.aggregates import resolve_aggregate
from repro.dataframe.column import Column, Dictionary, DType
from repro.dataframe.table import Table
from repro.query.backends.base import ExecutionBackend, register_backend
from repro.query.plan import PredicateAtom, QueryPlan

#: Aggregates executed as native SQL expressions on numeric-like attributes.
_NATIVE_SQL = {
    "SUM": "SUM({col})",
    "MIN": "MIN({col})",
    "MAX": "MAX({col})",
    "COUNT": "COUNT({col})",
    "AVG": "AVG({col})",
    "COUNT_DISTINCT": "COUNT(DISTINCT {col})",
}


def _sql_codes(codes: np.ndarray) -> List[Optional[int]]:
    """Dictionary codes as SQL values (the missing code ``-1`` -> NULL)."""
    return [None if code < 0 else code for code in codes.tolist()]


@register_backend("sqlite")
class SqliteBackend(ExecutionBackend):
    """Grouped aggregation as generated SQL over an in-memory SQLite copy."""

    def on_bind(self) -> None:
        # One instance == one connection == one plan at a time: ``_run_lock``
        # serialises plan execution so the shared connection, the collecting
        # aggregate's ``_collected`` buffer and ``last_sql`` never interleave
        # when user threads hit the same engine concurrently.
        self._run_lock = threading.Lock()
        self._reset_state()

    def _reset_state(self) -> None:
        self._conn: Optional[sqlite3.Connection] = None
        #: PID that materialised ``_conn`` -- fork-safety guard: an sqlite
        #: connection must never be used (or even closed) from a process
        #: that did not create it.
        self._conn_pid: Optional[int] = None
        self._colmap: Dict[str, str] = {}
        #: Per categorical column: the dictionary its stored codes index.
        self._dictionaries: Dict[str, Dictionary] = {}
        self._collected: List[list] = []
        #: The SQL statements executed by the most recent :meth:`run_plan`.
        self.last_sql: List[str] = []

    def clear(self) -> None:
        """Drop the materialised database; the next plan re-materialises."""
        with self._run_lock:
            if self._conn is not None and self._conn_pid == os.getpid():
                self._conn.close()
            self._reset_state()

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def _ensure_materialized(self) -> sqlite3.Connection:
        if self._conn is not None:
            if self._conn_pid == os.getpid():
                return self._conn
            # Forked child: the inherited connection belongs to the parent.
            # Drop the reference without closing it (closing another
            # process's handle over shared state is undefined) and
            # re-materialise in this process.
            self._reset_state()
        table = self.table
        # check_same_thread=False: different caller threads may run this
        # instance's plans (even concurrently when user threads race whole
        # batches, or when the service dispatcher runs them); _run_lock is
        # what guarantees single-threaded use of the connection at any
        # instant -- do not narrow it without replacing that guarantee.
        conn = sqlite3.connect(":memory:", check_same_thread=False)
        column_specs: List[str] = []
        arrays: List[list] = []
        for i, name in enumerate(table.column_names):
            column = table.column(name)
            alias = f"c{i}"
            self._colmap[name] = alias
            if column.is_numeric_like:
                column_specs.append(f"{alias} REAL")
                arrays.append(
                    [None if np.isnan(v) else float(v) for v in column.values]
                )
            else:
                codes, self._dictionaries[name] = column.coding
                column_specs.append(f"{alias} INTEGER")
                arrays.append(_sql_codes(codes))
        conn.execute(f"CREATE TABLE t ({', '.join(column_specs)})")
        if arrays and len(arrays[0]):
            placeholders = ", ".join("?" for _ in arrays)
            conn.executemany(f"INSERT INTO t VALUES ({placeholders})", zip(*arrays))

        collected = self._collected

        class _Collect:
            """Collects (rowid, value) pairs per group, skipping NULLs."""

            def __init__(self) -> None:
                self.pairs: List[tuple] = []

            def step(self, rowid, value) -> None:
                if value is not None:
                    self.pairs.append((rowid, value))

            def finalize(self) -> int:
                collected.append(self.pairs)
                return len(collected) - 1

        conn.create_aggregate("repro_collect", 2, _Collect)
        self._conn = conn
        self._conn_pid = os.getpid()
        return conn

    # ------------------------------------------------------------------
    # WHERE-clause generation
    # ------------------------------------------------------------------
    def _column_ref(self, name: str) -> str:
        self.table.column(name)  # KeyError for unknown columns
        return self._colmap[name]

    def _eq_code(self, attr: str, value) -> Optional[int]:
        """The stored code of *value* in a categorical column (``None`` = unseen)."""
        code = self._dictionaries[attr].code_of(value)
        return None if code < 0 else code

    def _where_clause(self, atoms: Sequence[PredicateAtom]) -> Tuple[str, List[object]]:
        clauses: List[str] = []
        params: List[object] = []
        for atom in atoms:
            alias = self._column_ref(atom.attr)
            column = self.table.column(atom.attr)
            if atom.kind == "eq":
                if column.is_numeric_like:
                    clauses.append(f"{alias} = ?")
                    params.append(float(atom.value))
                else:
                    code = self._eq_code(atom.attr, atom.value)
                    if code is None:
                        clauses.append("0")  # unseen constant: no row matches
                    else:
                        clauses.append(f"{alias} = ?")
                        params.append(code)
            elif atom.kind == "in":
                members = atom.value or ()
                if column.is_numeric_like:
                    allowed: List[object] = [float(v) for v in members]
                else:
                    codes = (self._eq_code(atom.attr, v) for v in members)
                    allowed = [code for code in codes if code is not None]
                if not allowed:
                    clauses.append("0")  # nothing stored matches any member
                else:
                    placeholders = ", ".join("?" for _ in allowed)
                    clauses.append(f"{alias} IN ({placeholders})")
                    params.extend(allowed)
            elif atom.kind == "window":
                if not column.is_numeric_like:
                    raise TypeError(
                        f"Window predicate needs a numeric-like column, got {column.dtype.value}"
                    )
                clauses.append(f"({alias} IS NOT NULL AND {alias} >= ? AND {alias} < ?)")
                params.append(float(atom.low))
                params.append(float(atom.high))
            else:
                if not column.is_numeric_like:
                    raise TypeError(
                        f"Range predicate needs a numeric-like column, got {column.dtype.value}"
                    )
                parts = [f"{alias} IS NOT NULL"]
                if atom.low is not None:
                    parts.append(f"{alias} >= ?")
                    params.append(float(atom.low))
                if atom.high is not None:
                    parts.append(f"{alias} <= ?")
                    params.append(float(atom.high))
                clauses.append("(" + " AND ".join(parts) + ")")
        if not clauses:
            return "", params
        return " WHERE " + " AND ".join(clauses), params

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_plan(self, plan: QueryPlan) -> List[Table]:
        with self._run_lock:
            return self._run_plan_locked(plan)

    def _run_plan_locked(self, plan: QueryPlan) -> List[Table]:
        conn = self._ensure_materialized()
        engine = self.engine
        self.last_sql = []
        where_sql, params = self._where_clause(plan.atoms)
        key_refs = [self._column_ref(k) for k in plan.keys]
        group_sql = (
            f" GROUP BY {', '.join(key_refs)} ORDER BY MIN(rowid)" if key_refs else ""
        )
        select_keys = ", ".join(key_refs)
        key_columns: Optional[List[Column]] = None
        collect_cache: Dict[str, Tuple[list, List[np.ndarray]]] = {}
        results: List[Table] = []
        for spec in plan.aggregates:
            column = self.table.column(spec.attr)  # KeyError for unknown attributes
            start = time.perf_counter()
            if column.is_numeric_like and spec.func in _NATIVE_SQL:
                expr = _NATIVE_SQL[spec.func].format(col=self._colmap[spec.attr])
                sql = f"SELECT {select_keys}, {expr} FROM t{where_sql}{group_sql}"
                self.last_sql.append(sql)
                rows = conn.execute(sql, params).fetchall()
                key_rows = [row[:-1] for row in rows]
                feature = np.asarray(
                    [np.nan if row[-1] is None else float(row[-1]) for row in rows],
                    dtype=np.float64,
                )
            else:
                key_rows, group_values = self._collect_groups(
                    conn, plan, spec.attr, column, where_sql, params,
                    select_keys, group_sql, collect_cache,
                )
                # Parameterized families (QUANTILE, TOP_K_SHARE) are never in
                # _NATIVE_SQL, so they always take this quantile-free fallback
                # ordering: SQLite filters and groups, the reference function
                # aggregates the collected per-group values in rowid order.
                func = resolve_aggregate(spec.func, spec.param)
                feature = np.asarray(
                    [func(values) for values in group_values], dtype=np.float64
                )
            # aggregation_only=False: one SQL statement fuses filtering,
            # grouping and aggregation, so this timing must not land in the
            # aggregation-phase counter the in-process kernels compare on.
            engine.stats.record_kernel(
                spec.func, time.perf_counter() - start,
                backend=self.name, aggregation_only=False,
            )
            if not key_rows:
                results.append(engine.empty_result(plan.keys, spec.feature_name))
                continue
            if key_columns is None:
                key_columns = self._key_columns(plan.keys, key_rows)
            results.append(
                Table(
                    list(key_columns)
                    + [Column(spec.feature_name, feature, dtype=DType.NUMERIC)]
                )
            )
        return results

    def _collect_groups(
        self, conn, plan, attr, column, where_sql, params,
        select_keys, group_sql, collect_cache,
    ) -> Tuple[list, List[np.ndarray]]:
        """Per-group value arrays for *attr*, in rowid (reference) order.

        Categorical attributes are recoded by first appearance across the
        plan's filtered rows -- exactly the coding
        :func:`repro.dataframe.aggregates.column_to_aggregable` produces on
        the filtered table -- so code-valued aggregates like MODE agree with
        the reference.
        """
        cached = collect_cache.get(attr)
        if cached is not None:
            return cached
        self._collected.clear()
        sql = (
            f"SELECT {select_keys}, repro_collect(rowid, {self._colmap[attr]}) "
            f"FROM t{where_sql}{group_sql}"
        )
        self.last_sql.append(sql)
        rows = conn.execute(sql, params).fetchall()
        key_rows = [row[:-1] for row in rows]
        group_pairs = [sorted(self._collected[row[-1]]) for row in rows]
        if column.is_numeric_like:
            group_values = [
                np.asarray([v for _, v in pairs], dtype=np.float64)
                for pairs in group_pairs
            ]
        else:
            recode: Dict[int, float] = {}
            for _, code in sorted(pair for pairs in group_pairs for pair in pairs):
                if code not in recode:
                    recode[code] = float(len(recode))
            group_values = [
                np.asarray([recode[code] for _, code in pairs], dtype=np.float64)
                for pairs in group_pairs
            ]
        collect_cache[attr] = (key_rows, group_values)
        return key_rows, group_values

    def _key_columns(self, keys: Sequence[str], key_rows: list) -> List[Column]:
        columns: List[Column] = []
        for position, name in enumerate(keys):
            source = self.table.column(name)
            raw = [row[position] for row in key_rows]
            if source.is_numeric_like:
                array = np.asarray(
                    [np.nan if v is None else float(v) for v in raw], dtype=np.float64
                )
                columns.append(Column(name, array, dtype=source.dtype))
            else:
                codes = np.asarray([-1 if v is None else v for v in raw], dtype=np.int64)
                columns.append(Column.from_codes(name, codes, self._dictionaries[name]))
        return columns
