"""Delta-aware refresh of a :class:`~repro.query.engine.QueryEngine`.

``Table.append_rows`` bumps the table's :attr:`~repro.dataframe.table.Table.version`;
the next query entering the engine calls ``QueryEngine.sync_with_table``,
which lands here.  Two policies, selected by
``EngineConfig(incremental=...)`` / ``--engine-incremental`` /
``$REPRO_ENGINE_INCREMENTAL``:

* **Flush** (``incremental=False``, the default): every cached mask, result,
  sort order and group index is counted into
  ``EngineStats.staleness_evictions`` and dropped -- the pre-delta
  behaviour, correct and simple.
* **Incremental** (``incremental=True``): cached state is upgraded in place
  wherever an upgrade can reproduce what a rebuilt-from-scratch engine
  would hold, and evicted deterministically where it cannot.

Upgrade-vs-evict rules (bit-identity with rebuild-from-scratch is the bar,
enforced by ``tests/query/test_delta_equivalence.py``):

* **Predicate masks** are partition-scoped: a cached atom mask covers the
  rows it was computed over, so on append the atom is re-evaluated over the
  new slice only and the boolean tails are concatenated.  Masks whose key
  cannot be turned back into a predicate over one of the table's columns,
  or whose length does not match the synced row count, are evicted.
* **Group indexes** are extended, never reshuffled: the appended rows are
  factorized on their own and remapped into the existing code space
  (:meth:`~repro.query.engine.GroupIndex.extend`).  First-appearance group
  numbering is prefix-stable, so existing codes are exactly what a full
  rebuild would assign and downstream kernels stay bit-identical.
  Categorical columns need no refresh of their own: ``append_rows``
  extends each column's label dictionary, so existing codes never change.
* **Sort orders** (the ``(predicate signature, keys, attr)`` cache of
  (code, value) orders) are upgraded by sorting the appended rows' stripped
  run locally and merging it into the cached order with exact
  ``searchsorted`` insertion -- every cached order equals
  ``np.lexsort((values, codes))``, which is stable on row position, and
  every appended row's position is greater than every covered row's, so the
  merge reproduces the full re-sort exactly.  MAD deviation orders (the
  4-tuple ``... + ("MEDIAN",)`` keys) depend on group medians, which
  appends move, so they are evicted.
* **Presorted permutations** (``QueryEngine.presorted``) are dropped, so
  the first derivation after an append re-presorts the whole column; no
  permutation of an older table is ever read.  An empty append keeps them,
  like every other cached array.
* **Results** of the bincount-accumulation family are updated additively:
  ``np.bincount`` / ``np.add.at`` accumulate strictly left-to-right in row
  order, so a cached COUNT / SUM is a prefix of the rebuilt accumulation
  and continuing it over the appended rows is bit-identical.  Groups new
  to the filter are appended in first-appearance order with fresh
  accumulators.  Every other aggregate either cannot be reconstructed from
  the stored result alone (AVG, VAR, STD, SKEW, KURTOSIS, categorical SUM
  over filter-local codes) or is an order statistic whose value moves with
  the appended rows (MEDIAN, MIN, MAX, MODE, ...), so those results are
  evicted and recomputed -- against upgraded masks, indexes and sort
  orders, which is where the incremental win comes from.

Storage-owning backends participate through ``ExecutionBackend.refresh``:
sqlite ``INSERT``\\ s the appended slice into its materialised table
(extending the first-appearance label dictionaries so rowids and codes
continue).

Failures are loud: the upgrade checks the conditions under which an entry
cannot be upgraded and evicts only those.  Any other error raised while
upgrading (a predicate whose ``mask`` fails, a kernel bug) propagates out of
``QueryEngine.sync_with_table``, after the engine has dropped every cache so
that no half-upgraded entry can be served later.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.dataframe.column import Column, DType
from repro.dataframe.groupby import renumber_codes_compact
from repro.dataframe.predicates import Equals, IsIn, Predicate, Range, Window
from repro.dataframe.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.query.engine import QueryEngine

#: Environment variable enabling the incremental refresh path process-wide
#: (used by the CI ``incremental=1`` matrix slot).
INCREMENTAL_ENV_VAR = "REPRO_ENGINE_INCREMENTAL"

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})

#: Result-cache functions with an additive bincount continuation.
_ADDITIVE_FUNCS = frozenset({"COUNT", "SUM"})


def default_incremental() -> bool:
    """The process-wide default: ``$REPRO_ENGINE_INCREMENTAL`` or ``False``.

    Raises ``ValueError`` on a malformed value -- eagerly, where the config
    is resolved (engine construction, ``FeatAugConfig.validate``), matching
    the other environment-resolved engine knobs.
    """
    raw = os.environ.get(INCREMENTAL_ENV_VAR, "").strip().lower()
    if not raw:
        return False
    if raw in _TRUE_WORDS:
        return True
    if raw in _FALSE_WORDS:
        return False
    raise ValueError(
        f"${INCREMENTAL_ENV_VAR} must be a boolean word "
        f"(1/0, true/false, yes/no, on/off), got {raw!r}"
    )


def _atom_predicate(signature, table: Table) -> Optional[Predicate]:
    """Reconstruct the predicate behind one mask-cache key (atom signature).

    Mask-cache keys are exactly ``PredicateAtom.signature()`` tuples --
    ``("eq", attr, value)`` / ``("range", attr, low, high)`` /
    ``("in", attr, members)`` / ``("window", attr, low, high)`` -- pinned by
    ``tests/query/test_plan.py``.  Dispatch is on the kind tag, never on the
    tuple length (``"in"`` signatures are also 3-tuples).  Returns ``None``
    for any other shape, and for an attribute that is not a column of
    *table* (the caller evicts the entry).
    """
    if not isinstance(signature, tuple) or len(signature) < 3:
        return None
    if not isinstance(signature[1], str) or signature[1] not in table:
        return None
    kind = signature[0]
    if kind == "eq" and len(signature) == 3:
        return Equals(signature[1], signature[2])
    if kind == "range" and len(signature) == 4:
        low, high = signature[2], signature[3]
        if low is None and high is None:
            return None
        return Range(signature[1], low=low, high=high)
    if kind == "in" and len(signature) == 3 and isinstance(signature[2], tuple):
        return IsIn(signature[1], list(signature[2]))
    if kind == "window" and len(signature) == 4:
        low, high = signature[2], signature[3]
        if low is None or high is None:
            return None
        return Window(signature[1], low=low, high=high)
    return None


def _delta_view(table: Table, old_rows: int) -> Table:
    """A zero-copy Table over the appended slice ``[old_rows:]``."""
    return Table([table.column(name).slice(old_rows) for name in table.column_names])


def refresh_engine(engine: "QueryEngine", table: Table) -> None:
    """Bring *engine*'s cached state up to date after table appends.

    Called by ``QueryEngine.sync_with_table`` under the engine's sync lock
    whenever the bound table's version moved past the synced one.
    """
    old_rows = engine._synced_rows
    appended = table.num_rows - old_rows
    engine.stats.bump(appended_rows=max(appended, 0))
    if appended == 0:
        # Empty append: the version moved but every cached array still
        # covers the full table (append_rows replaces columns with
        # bit-identical data), so there is nothing to refresh.
        return
    if appended < 0 or not engine.incremental:
        _flush(engine)
        return
    with engine._presort_lock:
        engine._presorted.clear()  # re-presorted on first use
    try:
        _upgrade_in_place(engine, table, old_rows)
    except BaseException:
        # Some entries may already be upgraded and others not: drop them
        # all, so the engine rebuilds from the table, and let the error out.
        engine.clear_caches()
        raise


def _flush(engine: "QueryEngine") -> None:
    """The non-incremental policy: drop everything, book the staleness."""
    with engine._index_lock:
        dropped = len(engine._indexes)
    dropped += len(engine._masks) + len(engine._results)
    if engine._sort_orders is not None:
        dropped += len(engine._sort_orders)
    engine.stats.bump(staleness_evictions=dropped)
    engine.clear_caches()


def _upgrade_in_place(engine: "QueryEngine", table: Table, old_rows: int) -> None:
    delta_view = _delta_view(table, old_rows)
    masks_extended = 0
    indexes_extended = 0
    runs_merged = 0
    results_upgraded = 0
    evictions = 0

    # ------------------------------------------------------------------
    # (1) Partition-scoped masks: evaluate atoms over the new slice only.
    # ------------------------------------------------------------------
    extended_masks: Dict[tuple, np.ndarray] = {}
    for key, mask in engine._masks.snapshot():
        predicate = _atom_predicate(key, table)
        if not (
            predicate is not None
            and isinstance(mask, np.ndarray)
            and mask.dtype == np.bool_
            and mask.shape[0] == old_rows
        ):
            evictions += engine._masks.discard(key)
            continue
        tail = np.asarray(predicate.mask(delta_view), dtype=bool)
        extended = np.concatenate([mask, tail])
        engine._masks.replace(key, extended)
        extended_masks[key] = extended
        masks_extended += 1

    # ------------------------------------------------------------------
    # (2) Group indexes: factorize the delta, remap into the code space.
    # ------------------------------------------------------------------
    with engine._index_lock:
        for index in engine._indexes.values():
            index.extend(table, old_rows)
            indexes_extended += 1

    # ------------------------------------------------------------------
    # (3) Categorical codings: nothing to do.  append_rows extended each
    # column's label dictionary (the label mapping is stored with the
    # codes), so existing codes -- and the first-appearance aggregable
    # codes derived from them -- are unchanged.
    # ------------------------------------------------------------------

    # Shared reconstruction memos for steps (4) and (5). --------------------
    atom_masks: Dict[tuple, Optional[np.ndarray]] = {}

    def atom_mask(atom_sig) -> Optional[np.ndarray]:
        mask = extended_masks.get(atom_sig)
        if mask is not None:
            return mask
        if atom_sig in atom_masks:
            return atom_masks[atom_sig]
        predicate = _atom_predicate(atom_sig, table)
        mask = None
        if predicate is not None:
            mask = np.asarray(predicate.mask(table), dtype=bool)
        atom_masks[atom_sig] = mask
        return mask

    sig_masks: Dict[tuple, Tuple[bool, Optional[np.ndarray]]] = {}

    def signature_mask(sig) -> Tuple[bool, Optional[np.ndarray]]:
        """``(ok, mask)`` of one predicate signature; ``mask=None`` = all rows."""
        if sig in sig_masks:
            return sig_masks[sig]
        if not isinstance(sig, tuple):
            result: Tuple[bool, Optional[np.ndarray]] = (False, None)
        elif not sig:
            result = (True, None)
        else:
            mask: Optional[np.ndarray] = None
            ok = True
            for atom_sig in sig:
                atom = atom_mask(atom_sig)
                if atom is None or atom.shape[0] != table.num_rows:
                    ok = False
                    break
                mask = atom if mask is None else mask & atom
            result = (ok, mask if ok else None)
        sig_masks[sig] = result
        return result

    filtered_infos: Dict[tuple, Optional[dict]] = {}

    def filtered_info(sig, keys) -> Optional[dict]:
        """The filtered grouping one (signature, keys) pair covers, split at
        the append boundary: compact codes over all surviving rows, the old
        surviving-row count, and the old group count (prefix-stable)."""
        memo_key = (sig, keys)
        if memo_key in filtered_infos:
            return filtered_infos[memo_key]
        info: Optional[dict] = None
        ok, mask = signature_mask(sig)
        index = None
        if (
            ok
            and isinstance(keys, tuple)
            and keys
            and all(isinstance(key, str) and key in table for key in keys)
        ):
            index = engine.group_index(keys)
        if index is not None:
            if mask is None:
                n_old = (
                    int(index.codes[:old_rows].max()) + 1
                    if old_rows and index.codes.size
                    else 0
                )
                info = {
                    "index": index,
                    "row_idx": None,
                    "codes": index.codes,
                    "group_ids": None,
                    "n_total": index.n_groups,
                    "old_count": old_rows,
                    "n_old": n_old,
                }
            else:
                row_idx = np.flatnonzero(mask)
                old_count = int(np.searchsorted(row_idx, old_rows, side="left"))
                if row_idx.size:
                    group_ids, codes, _ = renumber_codes_compact(
                        index.codes[row_idx], index.n_groups
                    )
                else:
                    group_ids = codes = np.empty(0, dtype=np.int64)
                n_old = int(codes[:old_count].max()) + 1 if old_count else 0
                info = {
                    "index": index,
                    "row_idx": row_idx,
                    "codes": codes,
                    "group_ids": group_ids,
                    "n_total": int(group_ids.size),
                    "old_count": old_count,
                    "n_old": n_old,
                }
        filtered_infos[memo_key] = info
        return info

    # ------------------------------------------------------------------
    # (4) Sort orders: merge the appended rows' sorted run into the cached
    # (code, value) order.  MAD deviation orders (4-tuple keys) are evicted.
    # ------------------------------------------------------------------
    if engine._sort_orders is not None:
        for key, order in engine._sort_orders.snapshot():
            merged = None
            if isinstance(key, tuple) and len(key) == 3 and isinstance(order, np.ndarray):
                merged = _merged_order(engine, table, key, order, old_rows, filtered_info)
            if merged is None:
                evictions += engine._sort_orders.discard(key)
            elif merged is not order:
                engine._sort_orders.replace(key, merged)
                runs_merged += 1

    # ------------------------------------------------------------------
    # (5) Results: additive continuation for the bincount family.
    # ------------------------------------------------------------------
    for key, result in engine._results.snapshot():
        upgraded = _upgraded_result(engine, table, key, result, old_rows, filtered_info)
        if upgraded is None:
            evictions += engine._results.discard(key)
        elif upgraded is not result:
            engine._results.replace(key, upgraded)
            results_upgraded += 1

    # ------------------------------------------------------------------
    # (6) Storage-owning state: the backend's materialisation.
    # ------------------------------------------------------------------
    engine.backend.refresh(old_rows)

    engine.stats.bump(
        masks_extended=masks_extended,
        indexes_extended=indexes_extended,
        runs_merged=runs_merged,
        results_upgraded=results_upgraded,
        staleness_evictions=evictions,
    )
    engine._refresh_byte_gauges()


def _merged_order(
    engine: "QueryEngine",
    table: Table,
    key: tuple,
    order: np.ndarray,
    old_rows: int,
    filtered_info,
) -> Optional[np.ndarray]:
    """The cached order upgraded over the appended rows (``None`` = evict).

    Returns *order* itself when no appended row survives the filter (the
    cached order is already the full rebuilt one).
    """
    sig, keys, attr = key
    info = filtered_info(sig, keys)
    if info is None or not isinstance(attr, str) or attr not in table:
        return None
    row_idx = info["row_idx"]
    aligned = engine.agg_values(attr, row_idx)
    f_values = aligned if row_idx is None else aligned[row_idx]
    f_codes = info["codes"]
    old_count = info["old_count"]
    if f_values.shape[0] != f_codes.shape[0]:
        return None
    valid = ~np.isnan(f_values)
    n_old_stripped = int(np.count_nonzero(valid[:old_count]))
    if order.shape[0] != n_old_stripped:
        return None
    stripped_codes = f_codes[valid]
    stripped_values = f_values[valid]
    d_codes = stripped_codes[n_old_stripped:]
    if d_codes.size == 0:
        return order
    d_values = stripped_values[n_old_stripped:]
    old_codes = stripped_codes[:n_old_stripped]
    old_values = stripped_values[:n_old_stripped]
    return _merge_sorted_run(order, old_codes, old_values, d_codes, d_values)


def _merge_sorted_run(
    order: np.ndarray,
    old_codes: np.ndarray,
    old_values: np.ndarray,
    d_codes: np.ndarray,
    d_values: np.ndarray,
) -> np.ndarray:
    """Merge the appended stripped rows into a cached (code, value) order.

    *order* sorts the old stripped rows by ``(code, value)``, stable on row
    position.  The appended stripped rows occupy positions
    ``[len(old), len(old) + len(delta))`` -- all greater than every old
    position -- so the rebuilt ``np.lexsort((values, codes))`` equals:
    sort the delta run locally, then insert each delta element *after*
    every old element with ``(code, value) <=`` its own.  The old run is
    lexicographically sorted under a ``(code, value)`` structured dtype
    (codes ascend; values ascend within each code), so the insertion points
    are one exact structured ``searchsorted(..., side="right")`` -- field-
    wise comparison, no composite-key float tricks, so ``-0.0/0.0`` ties
    compare equal and keep lexsort's exact stable placement.
    """
    n_old = order.shape[0]
    n_delta = d_codes.shape[0]
    d_order = np.lexsort((d_values, d_codes))
    pair_dtype = np.dtype([("code", np.int64), ("value", np.float64)])
    old_pairs = np.empty(n_old, dtype=pair_dtype)
    old_pairs["code"] = old_codes[order]
    old_pairs["value"] = old_values[order]
    d_pairs = np.empty(n_delta, dtype=pair_dtype)
    d_pairs["code"] = d_codes[d_order]
    d_pairs["value"] = d_values[d_order]
    ins = old_pairs.searchsorted(d_pairs, side="right")
    merged = np.empty(n_old + n_delta, dtype=np.int64)
    old_positions = np.arange(n_old, dtype=np.int64)
    merged[old_positions + np.searchsorted(ins, old_positions, side="right")] = order
    merged[ins + np.arange(n_delta, dtype=np.int64)] = n_old + d_order
    return merged


def _upgraded_result(
    engine: "QueryEngine",
    table: Table,
    key,
    result,
    old_rows: int,
    filtered_info,
) -> Optional[Table]:
    """The cached result continued over the appended rows (``None`` = evict).

    Returns *result* itself when the append left the entry exact (no
    surviving rows and no new groups under its filter).
    """
    if not (isinstance(key, tuple) and len(key) == 5 and isinstance(result, Table)):
        return None
    func, attr, keys, sig, feature_name = key
    if func not in _ADDITIVE_FUNCS or not isinstance(attr, str) or attr not in table:
        return None
    column = table.column(attr)
    if func == "SUM" and not column.is_numeric_like:
        # Categorical SUM accumulates filter-local first-appearance codes;
        # the stored totals cannot be continued without the code mapping.
        return None
    info = filtered_info(sig, keys)
    if info is None:
        return None
    n_total = info["n_total"]
    n_old = info["n_old"]
    old_count = info["old_count"]
    if result.num_rows != n_old or result.column_names != list(keys) + [feature_name]:
        return None
    codes = info["codes"]
    if info["row_idx"] is None:
        d_codes = codes[old_rows:]
        d_rows = np.arange(old_rows, table.num_rows, dtype=np.int64)
    else:
        d_codes = codes[old_count:]
        d_rows = info["row_idx"][old_count:]
    if d_codes.size == 0 and n_total == n_old:
        return result
    if column.is_numeric_like:
        d_values = column.values[d_rows]
        d_valid = ~np.isnan(d_values)
    else:  # COUNT over a categorical attribute counts non-missing values
        d_valid = column.codes[d_rows] >= 0
        d_values = None
    add_codes = d_codes[d_valid]

    old_feature = result.column(feature_name).values
    feature = np.empty(n_total, dtype=np.float64)
    feature[:n_old] = old_feature
    if func == "COUNT":
        feature[n_old:] = 0.0
        if add_codes.size:
            feature += np.bincount(add_codes, minlength=n_total).astype(np.float64)
    else:  # SUM
        feature[n_old:] = np.nan
        gains = np.zeros(n_total, dtype=bool)
        gains[add_codes] = True
        placeholder = np.isnan(feature) & gains
        if placeholder[:n_old].any():
            # Distinguish the empty-group NaN placeholder from a sum that
            # genuinely accumulated to NaN (inf + -inf): only groups with
            # zero covered stripped values restart their accumulator at 0.
            if info["row_idx"] is None:
                old_values = column.values[:old_rows]
                old_codes = codes[:old_rows]
            else:
                old_idx = info["row_idx"][:old_count]
                old_values = column.values[old_idx]
                old_codes = codes[:old_count]
            old_counts = np.bincount(
                old_codes[~np.isnan(old_values)], minlength=n_total
            )
            placeholder &= old_counts == 0
        feature[placeholder] = 0.0
        if add_codes.size:
            # np.add.at accumulates in index order -- the exact left-to-right
            # continuation of the rebuilt bincount accumulation.
            np.add.at(feature, add_codes, d_values[d_valid])

    if n_total == n_old:
        return result.with_column(Column(feature_name, feature, dtype=DType.NUMERIC))
    if info["group_ids"] is None:
        new_ids: Optional[np.ndarray] = np.arange(n_old, n_total, dtype=np.int64)
    else:
        new_ids = info["group_ids"][n_old:]
    columns: List[Column] = []
    for tail in info["index"].key_columns(new_ids):
        head = result.column(tail.name)
        if head.dtype != tail.dtype:
            return None
        columns.append(head.concat(tail))
    columns.append(Column(feature_name, feature, dtype=DType.NUMERIC))
    return Table(columns)
