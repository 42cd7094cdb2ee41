"""Shared building blocks for the synthetic dataset generators.

All generators follow the same recipe:

1. create an entity table (users / sessions / card holders) with a few
   demographic base features,
2. create an event log with a one-to-many relationship to the entities,
   containing categorical attributes (department, action, ...), numeric
   attributes (price, amount, ...) and a timestamp,
3. compute a *planted signal* per entity: an aggregate of the event log
   restricted by a predicate (a specific category and/or a recent time
   window),
4. derive the label from the planted signal plus noise and a small
   contribution of the base features.

Because the label depends on a **predicate-restricted** aggregate, queries
with the right WHERE clause carry far more information about the label than
the unrestricted aggregates Featuretools can generate -- which is exactly the
structural property the paper's evaluation relies on.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, List, Sequence

import numpy as np

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.ml._splitter import sorted_quantiles

#: Anchor date used by every generator (the paper's running example predicts
#: behaviour in August 2023 from the preceding 12 months).
ANCHOR = _dt.datetime(2023, 8, 1)
WINDOW_DAYS = 365


def epoch(dt: _dt.datetime) -> float:
    return (dt - _dt.datetime(1970, 1, 1)).total_seconds()


def random_timestamps(rng: np.random.Generator, n: int, days: int = WINDOW_DAYS) -> np.ndarray:
    """Epoch seconds uniformly distributed over the *days* before :data:`ANCHOR`."""
    offsets = rng.uniform(0, days * 86400.0, size=n)
    return epoch(ANCHOR) - offsets


def recent_cutoff(days: int = 30) -> float:
    """Epoch seconds of "*days* before the anchor" -- the planted time window."""
    return epoch(ANCHOR) - days * 86400.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def standardise(x: np.ndarray) -> np.ndarray:
    std = x.std()
    if std == 0:
        return np.zeros_like(x)
    return (x - x.mean()) / std


def make_entity_ids(prefix: str, n: int) -> List[str]:
    return [f"{prefix}_{i:06d}" for i in range(n)]


def grouped_sum(
    entity_ids: Sequence[str],
    event_entity_ids: np.ndarray,
    values: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Per-entity sum of ``values`` restricted to rows where ``mask`` holds."""
    index = {eid: i for i, eid in enumerate(entity_ids)}
    out = np.zeros(len(entity_ids), dtype=np.float64)
    selected = np.where(mask)[0]
    for row in selected:
        out[index[event_entity_ids[row]]] += values[row]
    return out


def binary_label_from_signal(
    rng: np.random.Generator,
    signal: np.ndarray,
    base_contribution: np.ndarray | None = None,
    noise: float = 0.8,
    positive_rate: float = 0.4,
) -> np.ndarray:
    """Convert a planted signal into a noisy binary label with a target rate."""
    score = 2.0 * standardise(signal)
    if base_contribution is not None:
        score = score + 0.5 * standardise(base_contribution)
    score = score + rng.normal(0, noise, size=score.shape[0])
    threshold = sorted_quantiles(np.sort(score), 1.0 - positive_rate)
    return (score >= threshold).astype(np.float64)


def regression_label_from_signal(
    rng: np.random.Generator,
    signal: np.ndarray,
    base_contribution: np.ndarray | None = None,
    noise: float = 1.0,
    scale: float = 2.0,
    offset: float = 0.0,
) -> np.ndarray:
    """Convert a planted signal into a noisy continuous label."""
    score = scale * standardise(signal)
    if base_contribution is not None:
        score = score + 0.5 * standardise(base_contribution)
    return offset + score + rng.normal(0, noise, size=score.shape[0])


def multiclass_label_from_signals(
    rng: np.random.Generator,
    signals: Sequence[np.ndarray],
    noise: float = 0.5,
) -> np.ndarray:
    """Pick the argmax of several noisy planted signals as a class label."""
    stacked = np.column_stack([standardise(s) for s in signals])
    stacked = stacked + rng.normal(0, noise, size=stacked.shape)
    return np.argmax(stacked, axis=1).astype(np.float64)


def build_table(data: Dict[str, tuple]) -> Table:
    """Build a table from ``{name: (values, dtype)}``."""
    columns = [Column(name, values, dtype=dtype) for name, (values, dtype) in data.items()]
    return Table(columns)


def choice_column(rng: np.random.Generator, n: int, values: Sequence[str], p: Sequence[float] | None = None) -> List[str]:
    return list(rng.choice(list(values), size=n, p=p))
