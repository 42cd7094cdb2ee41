"""Typed columns backed by numpy arrays.

A :class:`Column` stores a name, a dtype and a numpy array of values.  The
supported dtypes mirror the attribute kinds the FeatAug paper distinguishes
when building predicates:

* ``numeric``   -- float64 values, ``NaN`` marks a missing value.
* ``datetime``  -- float64 epoch seconds, ``NaN`` marks a missing value.
* ``boolean``   -- float64 0.0/1.0 values, ``NaN`` marks a missing value.
* ``categorical`` -- dictionary encoded: ``int64`` codes into an immutable
  label :class:`Dictionary` (labels typically strings), code ``-1`` marks a
  missing value (``None``).

A categorical column built from raw values codes them lazily, on first use,
with :func:`encode` -- the one categorical -> integer coding in the package.
Columns derived from a coded column (``take``, ``filter``, appends, joins,
group keys) share its dictionary and never re-code; ``Column.values`` of
such a column is materialised from the dictionary on demand.  The layout is
Arrow's dictionary-encoded layout.

Datetime values are accepted as ``datetime.datetime``/``datetime.date``
objects, ISO strings (``YYYY-MM-DD`` or ``YYYY-MM-DD HH:MM:SS``) or raw epoch
seconds and normalised to epoch seconds internally so range predicates reduce
to plain float comparisons.
"""

from __future__ import annotations

import datetime as _dt
import threading
from enum import Enum
from itertools import islice
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np


class DType(str, Enum):
    """Supported column dtypes."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    DATETIME = "datetime"
    BOOLEAN = "boolean"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_EPOCH = _dt.datetime(1970, 1, 1)


def parse_datetime(value) -> float:
    """Convert a datetime-like value to epoch seconds (float).

    Accepts ``datetime``/``date`` objects, ISO formatted strings, numbers
    (already epoch seconds) and ``None``/``NaN`` for missing values.
    """
    if value is None:
        return float("nan")
    if isinstance(value, float) and np.isnan(value):
        return float("nan")
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    if isinstance(value, _dt.datetime):
        return (value - _EPOCH).total_seconds()
    if isinstance(value, _dt.date):
        dt = _dt.datetime(value.year, value.month, value.day)
        return (dt - _EPOCH).total_seconds()
    if isinstance(value, str):
        text = value.strip()
        for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d"):
            try:
                return (_dt.datetime.strptime(text, fmt) - _EPOCH).total_seconds()
            except ValueError:
                continue
        raise ValueError(f"Cannot parse datetime string: {value!r}")
    raise TypeError(f"Cannot convert {type(value).__name__} to datetime")


def format_datetime(epoch_seconds: float) -> str:
    """Render epoch seconds back into an ISO timestamp string."""
    if epoch_seconds is None or np.isnan(epoch_seconds):
        return ""
    dt = _EPOCH + _dt.timedelta(seconds=float(epoch_seconds))
    if dt.hour == 0 and dt.minute == 0 and dt.second == 0:
        return dt.strftime("%Y-%m-%d")
    return dt.strftime("%Y-%m-%d %H:%M:%S")


def _coerce_numeric(values: Iterable) -> np.ndarray:
    out = np.asarray(
        [float("nan") if v is None else float(v) for v in values], dtype=np.float64
    )
    return out


def _coerce_categorical(values: Iterable) -> np.ndarray:
    out = np.empty(len(list(values)) if not hasattr(values, "__len__") else len(values), dtype=object)
    for i, v in enumerate(values):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            out[i] = None
        else:
            out[i] = v
    return out


def _coerce_datetime(values: Iterable) -> np.ndarray:
    return np.asarray([parse_datetime(v) for v in values], dtype=np.float64)


def _coerce_boolean(values: Iterable) -> np.ndarray:
    out = []
    for v in values:
        if v is None or (isinstance(v, float) and np.isnan(v)):
            out.append(float("nan"))
        else:
            out.append(1.0 if bool(v) else 0.0)
    return np.asarray(out, dtype=np.float64)


def infer_dtype(values: Sequence) -> DType:
    """Infer the dtype of a sequence of raw Python values."""
    saw_bool = False
    saw_number = False
    saw_datetime = False
    saw_other = False
    for v in values:
        if v is None or (isinstance(v, float) and np.isnan(v)):
            continue
        if isinstance(v, bool):
            saw_bool = True
        elif isinstance(v, (int, float, np.integer, np.floating)):
            saw_number = True
        elif isinstance(v, (_dt.datetime, _dt.date)):
            saw_datetime = True
        else:
            saw_other = True
    if saw_other:
        return DType.CATEGORICAL
    if saw_datetime and not saw_number and not saw_bool:
        return DType.DATETIME
    if saw_bool and not saw_number:
        return DType.BOOLEAN
    if saw_number or saw_bool:
        return DType.NUMERIC
    return DType.CATEGORICAL


class Dictionary:
    """The immutable label dictionary of dictionary-encoded categorical columns.

    ``labels[code]`` is the label of ``code``, in first-appearance order of
    the values the dictionary was coded from; ``lookup`` maps each hashable
    label back to its code (and ``None`` to ``-1``, the missing code).
    Labels that compare equal and hash alike (``1``, ``1.0``, ``True``)
    share one code, and the first-appearing one is the label that code
    reports.

    Extending a dictionary (:meth:`encode`) returns a new one whose labels
    start with this one's, so codes under the old dictionary stay valid
    under the new one.  ``chain`` records that ancestry -- one token per
    dictionary along its extension path -- so :meth:`shares_codes_with`
    answers "are these codes interchangeable?" in O(1), also when one
    dictionary was extended along two different branches.
    """

    __slots__ = ("labels", "lookup", "chain", "_label_array", "_translations")

    def __init__(self, labels: tuple, lookup: dict, chain: tuple):
        self.labels = labels
        self.lookup = lookup
        self.chain = chain
        self._label_array: Optional[np.ndarray] = None
        #: :meth:`translate` mappings from other dictionaries, keyed by the
        #: source's last chain token.
        self._translations: Dict[object, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Dictionary(n={len(self)})"

    def code_of(self, value) -> int:
        """The code of *value*, ``-1`` when it is missing or not a label."""
        try:
            return self.lookup.get(value, -1)
        except TypeError:  # unhashable value: see encode()
            return _scan(self.labels, value)

    def encode(self, values) -> Tuple[np.ndarray, "Dictionary"]:
        """Code *values* under this dictionary, extending it with unseen labels.

        Returns ``(codes, dictionary)``: ``int64`` codes (``-1`` for
        ``None``) and this dictionary itself when every value was already a
        label, else an extension holding the new labels after the old ones
        in first-appearance order.  This is the single coding function.  Its
        one fallback is for unhashable labels (lists, dicts): they are coded
        by a linear equality scan over the labels instead of the hash
        lookup, and stay out of ``lookup``.
        """
        if len(self.lookup) != len(self.labels) + 1:  # holds unhashable labels
            return self._encode_scanning(values)
        lookup = dict(self.lookup)
        known = len(lookup)
        setdefault = lookup.setdefault
        try:
            # len(lookup) - 1 is the next free code: lookup also holds None.
            coded = [setdefault(v, len(lookup) - 1) for v in values]
        except TypeError:
            return self._encode_scanning(values)
        codes = np.asarray(coded, dtype=np.int64)
        if len(lookup) == known:
            return codes, self
        labels = self.labels + tuple(islice(lookup, known, None))
        return codes, Dictionary(labels, lookup, self.chain + (object(),))

    def _encode_scanning(self, values) -> Tuple[np.ndarray, "Dictionary"]:
        labels = list(self.labels)
        lookup = dict(self.lookup)
        codes = np.empty(len(values), dtype=np.int64)
        for i, v in enumerate(values):
            try:
                code = lookup.get(v)
            except TypeError:
                code = _scan(labels, v)
                code = None if code < 0 else code
            if code is None:
                code = len(labels)
                labels.append(v)
                try:
                    lookup[v] = code
                except TypeError:
                    pass
            codes[i] = code
        if len(labels) == len(self.labels):
            return codes, self
        return codes, Dictionary(tuple(labels), lookup, self.chain + (object(),))

    def shares_codes_with(self, other: "Dictionary") -> bool:
        """True when one dictionary extends the other (or they are the same),
        so codes under either mean the same labels under the longer one."""
        short, long_ = (self, other) if len(self.chain) <= len(other.chain) else (other, self)
        return long_.chain[len(short.chain) - 1] is short.chain[-1]

    def recode(self, codes: np.ndarray, source: "Dictionary") -> Tuple[np.ndarray, "Dictionary"]:
        """Re-express *codes* under *source* in this dictionary's code space.

        Returns ``(codes, dictionary)`` where *dictionary* holds every label
        of both: the longer of the two when they share codes (no work),
        otherwise this dictionary extended with *source*'s unseen labels --
        one lookup per *source* label, never one per row.
        """
        if self.shares_codes_with(source):
            return codes, max(self, source, key=len)
        mapping, extended = self.encode(source.labels)
        return np.append(mapping, -1)[codes], extended

    def translate(self, codes: np.ndarray, source: "Dictionary") -> np.ndarray:
        """*codes* under *source* as codes of this dictionary, without
        extending it: labels it lacks map to ``len(self)``, ``-1`` stays."""
        if self.shares_codes_with(source):
            return np.where(codes < len(self), codes, len(self))
        # One code_of per source label, memoised per (source, target) pair.
        # The key is unique per source dictionary: every dictionary, and so
        # every extension, gets a fresh last chain token.  The memo lives on
        # this (immutable) target; a grown target is a new dictionary with
        # a memo of its own.
        key = source.chain[-1]
        mapping = self._translations.get(key)
        if mapping is None:
            mapping = np.asarray(
                [self.code_of(label) for label in source.labels] + [-1], dtype=np.int64
            )
            mapping[:-1][mapping[:-1] < 0] = len(self)
            if len(self._translations) >= _TRANSLATION_MEMO_SIZE:
                self._translations.clear()  # atomic, unlike a partial eviction
            self._translations[key] = mapping
        return mapping[codes]

    def label_array(self) -> np.ndarray:
        """Object array of the labels plus a trailing ``None``, so that
        ``label_array()[codes]`` decodes codes with ``-1`` to ``None``."""
        array = self._label_array
        if array is None:
            array = np.fromiter(self.labels + (None,), dtype=object, count=len(self) + 1)
            self._label_array = array
        return array


#: Translation mappings one dictionary keeps before it starts over.
_TRANSLATION_MEMO_SIZE = 8


def _scan(labels, value) -> int:
    """The code of an unhashable *value* by equality scan (``-1`` = absent)."""
    for code, label in enumerate(labels):
        if label == value:
            return code
    return -1


def encode(values) -> Tuple[np.ndarray, Dictionary]:
    """Dictionary-encode raw categorical values: ``(codes, dictionary)``.

    A fresh dictionary is started, with labels in first-appearance order and
    ``None`` coded as ``-1``; see :meth:`Dictionary.encode`.
    """
    return Dictionary((), {None: -1}, (object(),)).encode(values)


def renumber_codes_compact(
    codes: np.ndarray, n_codes: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-number non-negative integer codes by first appearance.

    Returns ``(ordered_values, group_codes, first_positions)``: the distinct
    input codes in first-appearance order, the re-numbered group id per
    position, and each group's first position.  *n_codes* bounds the code
    space (every code is below it; ``codes.max() + 1`` when omitted).  The
    first position of every code comes from one reversed scatter into an
    array of that size -- the earliest position wins every collision --
    so no sort of the rows is needed: sorting the (unique) first positions
    gives the first-appearance order.
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.shape[0]
    if n_codes is None:
        n_codes = int(codes.max()) + 1 if n else 0
    first = np.full(n_codes, n, dtype=np.int64)
    first[codes[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    firsts = np.sort(first[first < n])
    ordered = codes[firsts]
    remap = np.empty(n_codes, dtype=np.int64)
    remap[ordered] = np.arange(ordered.size, dtype=np.int64)
    return ordered, remap[codes], firsts


#: Serialises lazy coding so every reader of a column sees one coding.
_CODING_LOCK = threading.Lock()


class Column:
    """A named, typed, immutable-by-convention column of values.

    Numeric-like columns hold a float64 array.  Categorical columns hold raw
    values, codes plus a :class:`Dictionary`, or both: see the module
    docstring.
    """

    def __init__(self, name: str, values, dtype: DType | str | None = None):
        if not isinstance(name, str) or not name:
            raise ValueError("Column name must be a non-empty string")
        self.name = name
        #: ``(codes, dictionary)`` of a categorical column, published in one
        #: assignment once coded (``None`` = not coded yet).
        self._coding: Optional[Tuple[np.ndarray, Dictionary]] = None
        if dtype is None:
            if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
                dtype = DType.NUMERIC
            else:
                materialised = list(values)
                dtype = infer_dtype(materialised)
                values = materialised
        dtype = DType(dtype)
        self.dtype = dtype
        if isinstance(values, np.ndarray) and dtype in (DType.NUMERIC, DType.DATETIME, DType.BOOLEAN):
            if values.dtype != np.float64:
                values = values.astype(np.float64)
            self._values = values
        elif isinstance(values, np.ndarray) and dtype is DType.CATEGORICAL and values.dtype == object:
            self._values = values
        else:
            materialised = list(values)
            if dtype is DType.NUMERIC:
                self._values = _coerce_numeric(materialised)
            elif dtype is DType.DATETIME:
                self._values = _coerce_datetime(materialised)
            elif dtype is DType.BOOLEAN:
                self._values = _coerce_boolean(materialised)
            else:
                self._values = _coerce_categorical(materialised)

    @classmethod
    def from_codes(cls, name: str, codes: np.ndarray, dictionary: Dictionary) -> "Column":
        """A categorical column over *codes* (``-1`` = missing) into *dictionary*."""
        column = cls.__new__(cls)
        column.name = name
        column.dtype = DType.CATEGORICAL
        column._values = None
        column._coding = (codes, dictionary)
        return column

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The values as a numpy array (``object`` for categoricals, decoded
        from the dictionary on first access when the column holds codes)."""
        values = self._values
        if values is None:
            codes, dictionary = self._coding
            values = dictionary.label_array()[codes]
            self._values = values
        return values

    @property
    def coding(self) -> Tuple[np.ndarray, Dictionary]:
        """``(codes, dictionary)`` of a categorical column, coded on first use.

        The pair is published with one assignment under a lock, so
        concurrent first readers all get the same coding.
        """
        coding = self._coding
        if coding is None:
            if self.is_numeric_like:
                raise TypeError(f"{self.dtype.value} column {self.name!r} has no coding")
            with _CODING_LOCK:
                coding = self._coding
                if coding is None:
                    coding = encode(self._values)
                    self._coding = coding
        return coding

    @property
    def codes(self) -> np.ndarray:
        return self.coding[0]

    @property
    def dictionary(self) -> Dictionary:
        return self.coding[1]

    def key_codes(self) -> Tuple[np.ndarray, int]:
        """Non-negative ``int64`` grouping / join codes plus the code-space size.

        Equal keys share a code and every missing value (NaN / ``None``)
        takes the last code.  Numeric-like codes index the sorted distinct
        values; categorical codes are the dictionary codes.
        """
        if self.is_numeric_like:
            values = self.values
            uniques = np.unique(values[~np.isnan(values)])
            # NaN sorts after every number, so it lands on the last code.
            return np.searchsorted(uniques, values).astype(np.int64), uniques.size + 1
        codes, dictionary = self.coding
        return np.where(codes < 0, len(dictionary), codes), len(dictionary) + 1

    @property
    def nbytes(self) -> int:
        """Bytes charged for the column's payload: the float64 array, or 8
        per row for a categorical (its codes, or the object pointers it
        replaces) whether or not the column is coded or decoded yet."""
        if self.is_numeric_like:
            return int(self._values.nbytes)
        return 8 * len(self)

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._values is not None:
            return int(self._values.shape[0])
        return int(self._coding[0].shape[0])

    def __getitem__(self, item):
        return self.values[item]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Column(name={self.name!r}, dtype={self.dtype.value}, n={len(self)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.dtype != other.dtype:
            return False
        if len(self) != len(other):
            return False
        if self.is_numeric_like:
            a, b = self.values, other.values
            both_nan = np.isnan(a) & np.isnan(b)
            return bool(np.all((a == b) | both_nan))
        return bool(np.all(self.values == other.values))

    def __hash__(self):  # Columns are mutable containers; identity hash.
        return id(self)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def is_numeric_like(self) -> bool:
        """True for numeric, datetime and boolean columns (float storage)."""
        return self.dtype in (DType.NUMERIC, DType.DATETIME, DType.BOOLEAN)

    def is_missing(self) -> np.ndarray:
        """Boolean mask of missing entries."""
        if self.is_numeric_like:
            return np.isnan(self.values)
        return self.codes < 0

    def null_count(self) -> int:
        return int(self.is_missing().sum())

    def unique(self) -> list:
        """Distinct non-missing values (order of first appearance)."""
        if self.is_numeric_like:
            values = self.values[~np.isnan(self.values)]
            _, first = np.unique(values, return_index=True)
            return [float(v) for v in values[np.sort(first)]]
        codes, dictionary = self.coding
        ordered, _, _ = renumber_codes_compact(codes[codes >= 0], len(dictionary))
        return [dictionary.labels[code] for code in ordered.tolist()]

    def min(self):
        if not self.is_numeric_like:
            raise TypeError(f"min() is not defined for {self.dtype.value} column {self.name!r}")
        finite = self.values[~np.isnan(self.values)]
        return float(finite.min()) if finite.size else float("nan")

    def max(self):
        if not self.is_numeric_like:
            raise TypeError(f"max() is not defined for {self.dtype.value} column {self.name!r}")
        finite = self.values[~np.isnan(self.values)]
        return float(finite.max()) if finite.size else float("nan")

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def take(self, indices) -> "Column":
        """Return a new column with rows re-ordered / repeated by *indices*."""
        indices = np.asarray(indices)
        if self.is_numeric_like:
            return Column(self.name, self.values[indices], dtype=self.dtype)
        codes, dictionary = self.coding
        return Column.from_codes(self.name, codes[indices], dictionary)

    def filter(self, mask) -> "Column":
        """Return a new column keeping only rows where *mask* is True."""
        return self.take(np.asarray(mask, dtype=bool))

    def concat(self, other: "Column") -> "Column":
        """This column's rows followed by *other*'s (same dtype).

        A coded categorical extends its dictionary with *other*'s unseen
        labels, so its own codes never change; an uncoded one stays uncoded.
        """
        if self.is_numeric_like or self._coding is None:
            values = np.concatenate([self.values, other.values])
            return Column(self.name, values, dtype=self.dtype)
        codes, dictionary = self._coding
        other_codes, merged = dictionary.recode(*other.coding)
        return Column.from_codes(self.name, np.concatenate([codes, other_codes]), merged)

    def rename(self, name: str) -> "Column":
        if self._coding is None:
            return Column(name, self._values, dtype=self.dtype)
        renamed = Column.from_codes(name, *self._coding)
        renamed._values = self._values
        return renamed

    def copy(self) -> "Column":
        if self.is_numeric_like or self._coding is None:
            return Column(self.name, self.values.copy(), dtype=self.dtype)
        codes, dictionary = self._coding
        return Column.from_codes(self.name, codes.copy(), dictionary)

    def to_list(self) -> list:
        """Return values as plain Python objects (datetimes stay as epoch floats)."""
        if self.is_numeric_like:
            return [float(v) for v in self.values]
        return list(self.values)

    def astype(self, dtype: DType | str) -> "Column":
        """Re-interpret the column as a different dtype."""
        dtype = DType(dtype)
        if dtype == self.dtype:
            return self.copy()
        if dtype is DType.CATEGORICAL:
            values = [None if m else v for v, m in zip(self.to_list(), self.is_missing())]
            return Column(self.name, values, dtype=DType.CATEGORICAL)
        if self.dtype is DType.CATEGORICAL:
            return Column(self.name, list(self.values), dtype=dtype)
        return Column(self.name, self.values, dtype=dtype)
