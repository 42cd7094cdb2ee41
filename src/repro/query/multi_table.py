"""Multi-table schemas and deep-layer relationship flattening.

The problem formulation in the paper (Section III) assumes one training table
and one relevant table, and notes that richer layouts reduce to that case:

* *Deep-layer relationships* -- a chain of many-to-one tables hanging off the
  relevant table (e.g. order items -> products -> departments in Instacart) --
  "can be represented by the aforementioned scenario by joining all the tables
  into one relevant table".
* *Multiple relevant tables* -- handled as several independent (training
  table, relevant table) scenarios.

:class:`RelationalSchema` captures a set of named tables plus many-to-one
relationships between them and performs exactly that flattening: starting from
a base relevant table, every reachable dimension table is left-joined on, with
joined columns prefixed by their table name so attribute provenance stays
visible in generated SQL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.dataframe.groupby import factorize_column, renumber_codes_compact
from repro.dataframe.table import Table


@dataclass(frozen=True)
class Relationship:
    """A many-to-one link: ``child.child_key`` references ``parent.parent_key``.

    "Many-to-one" means every child row has at most one matching parent row,
    so joining the parent onto the child never duplicates child rows.
    """

    child: str
    child_key: str
    parent: str
    parent_key: str

    def describe(self) -> str:
        return f"{self.child}.{self.child_key} -> {self.parent}.{self.parent_key}"


class RelationalSchema:
    """A collection of named tables plus many-to-one relationships."""

    def __init__(self, tables: Mapping[str, Table] | None = None):
        self._tables: Dict[str, Table] = {}
        self._relationships: List[Relationship] = []
        for name, table in (tables or {}).items():
            self.add_table(name, table)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_table(self, name: str, table: Table) -> "RelationalSchema":
        if not name:
            raise ValueError("Table name must be non-empty")
        if name in self._tables:
            raise ValueError(f"Table {name!r} already registered")
        self._tables[name] = table
        return self

    def add_relationship(self, child: str, child_key: str, parent: str, parent_key: str) -> "RelationalSchema":
        """Register ``child.child_key -> parent.parent_key`` (many-to-one)."""
        for table_name, key in ((child, child_key), (parent, parent_key)):
            if table_name not in self._tables:
                raise KeyError(f"Unknown table {table_name!r}")
            if key not in self._tables[table_name]:
                raise KeyError(f"Table {table_name!r} has no column {key!r}")
        relationship = Relationship(child, child_key, parent, parent_key)
        self._relationships.append(relationship)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def table_names(self) -> List[str]:
        return list(self._tables)

    @property
    def relationships(self) -> List[Relationship]:
        return list(self._relationships)

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise KeyError(f"Unknown table {name!r}; registered: {self.table_names}")
        return self._tables[name]

    def parents_of(self, child: str) -> List[Relationship]:
        """Relationships whose child side is *child*."""
        return [r for r in self._relationships if r.child == child]

    # ------------------------------------------------------------------
    # Flattening
    # ------------------------------------------------------------------
    def flatten(self, base: str, max_depth: int = 3, prefix_joined_columns: bool = True) -> Table:
        """Join every dimension table reachable from *base* into one wide table.

        Joins are applied breadth-first following the registered many-to-one
        relationships, up to ``max_depth`` hops (the paper's "deep-layer"
        relationships).  Columns contributed by a joined table are renamed to
        ``{alias}__{column}`` (unless ``prefix_joined_columns`` is disabled) so
        generated query templates can tell where an attribute came from.

        Flattening is **alias-aware**: a parent reachable through several
        relationship paths (a diamond schema, or two foreign keys of one
        child referencing the same parent) is joined once *per path*, each
        join under its own role alias.  The first path keeps the plain table
        name as its alias -- historical single-path schemas flatten to
        exactly the same column names as before -- and later paths get
        role-qualified aliases derived from the referencing foreign key
        (``{child_key}__{parent}``, widened with the child's own alias and
        then a numeric suffix until unique).  A per-path visited set guards
        against relationship cycles without blocking the diamond's converging
        paths.  Without column prefixes role aliases cannot disambiguate
        anything, so ``prefix_joined_columns=False`` keeps the historical
        first-path-only behaviour.  The base table's row count is preserved
        because every join is many-to-one.
        """
        flattened = self.table(base)
        used_aliases = {base}
        joined_parents = {base}
        # (table name, alias in the flattened output, depth, tables on this path)
        frontier: List[Tuple[str, str, int, frozenset]] = [
            (base, base, 0, frozenset({base}))
        ]
        while frontier:
            child_name, child_alias, depth, path = frontier.pop(0)
            if depth >= max_depth:
                continue
            for relationship in self.parents_of(child_name):
                if relationship.parent in path:
                    continue  # cycle guard (per path, so diamonds still converge)
                if not prefix_joined_columns:
                    if relationship.parent in joined_parents:
                        continue
                    joined_parents.add(relationship.parent)
                parent_table = self.table(relationship.parent)
                alias = self._parent_alias(relationship, child_alias, used_aliases)
                used_aliases.add(alias)
                join_column = relationship.child_key
                if child_name != base and prefix_joined_columns:
                    join_column = f"{child_alias}__{relationship.child_key}"
                if join_column not in flattened:
                    raise KeyError(
                        f"Join key {join_column!r} is missing from the flattened table; "
                        f"cannot apply {relationship.describe()}"
                    )
                prepared = self._prepare_parent(
                    parent_table, relationship, prefix_joined_columns, alias=alias
                )
                right_key = (
                    f"{alias}__{relationship.parent_key}"
                    if prefix_joined_columns
                    else relationship.parent_key
                )
                # Align the join key names: rename the parent's key to match the child's.
                prepared = prepared.rename({right_key: join_column})
                before_rows = flattened.num_rows
                flattened = flattened.left_join(prepared, on=join_column)
                if flattened.num_rows != before_rows:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"Join {relationship.describe()} changed the row count; "
                        "the relationship is not many-to-one"
                    )
                frontier.append(
                    (
                        relationship.parent,
                        alias,
                        depth + 1,
                        path | {relationship.parent},
                    )
                )
        return flattened

    @staticmethod
    def _parent_alias(relationship: Relationship, child_alias: str, used: set) -> str:
        """Output alias for one join path onto ``relationship.parent``.

        The first path onto a parent keeps the plain table name, so
        single-path schemas keep their historical column names; later paths
        are role-qualified by the referencing foreign key.
        """
        candidates = [
            relationship.parent,
            f"{relationship.child_key}__{relationship.parent}",
            f"{child_alias}__{relationship.child_key}__{relationship.parent}",
        ]
        for candidate in candidates:
            if candidate not in used:
                return candidate
        i = 2
        while f"{candidates[-1]}__{i}" in used:
            i += 1
        return f"{candidates[-1]}__{i}"

    @staticmethod
    def _prepare_parent(
        parent_table: Table,
        relationship: Relationship,
        prefix: bool,
        alias: str | None = None,
    ) -> Table:
        """Deduplicate the parent on its key and optionally prefix its columns.

        Keeps the first row per key value (many-to-one targets should already
        be unique per key; this is a safety net for dirty inputs), vectorized
        over the key codes ``Table.left_join`` matches on, where NaN / ``None``
        take a single code.  Collapsing all missing-key rows onto the first
        is join-invariant -- ``left_join`` is first-match-wins over that same
        shared code, so no later missing-key row could ever be matched anyway.
        """
        codes, _ = factorize_column(parent_table.column(relationship.parent_key))
        _, _, first_rows = renumber_codes_compact(codes)
        deduplicated = parent_table.take(np.sort(first_rows))
        if not prefix:
            return deduplicated
        alias = alias or relationship.parent
        mapping = {name: f"{alias}__{name}" for name in deduplicated.column_names}
        return deduplicated.rename(mapping)


def flatten_relevant_tables(
    schema: RelationalSchema,
    base: str,
    keys: Sequence[str],
    max_depth: int = 3,
) -> Table:
    """Flatten *schema* around *base* and sanity-check the foreign key columns.

    Convenience wrapper used when preparing FeatAug inputs: the returned table
    is the single relevant table ``R`` expected by :class:`repro.core.FeatAug`,
    and the foreign-key columns referenced by the training table must survive
    the flattening.
    """
    flattened = schema.flatten(base, max_depth=max_depth)
    missing = [key for key in keys if key not in flattened]
    if missing:
        raise KeyError(f"Foreign key column(s) {missing} are missing from the flattened table")
    return flattened


def flatten_to_engine(
    schema: RelationalSchema,
    base: str,
    keys: Sequence[str],
    max_depth: int = 3,
    config=None,
):
    """Flatten *schema* and bind the shared query engine to the result.

    Returns ``(relevant_table, engine)``.  Deep-layer scenarios execute the
    same search traffic as the single-table case, so they want the same
    shared :class:`~repro.query.engine.QueryEngine`; binding it right after
    flattening lets every downstream component (template identification, SQL
    generation, evaluation) reuse one group index and mask cache.  *config*
    (an :class:`~repro.query.engine.EngineConfig`) sets the cache sizes;
    ``None`` uses the defaults.
    """
    from repro.query.engine import engine_for

    flattened = flatten_relevant_tables(schema, base, keys, max_depth=max_depth)
    return flattened, engine_for(flattened, config=config)
