"""Scalability sweeps behind Figures 7, 8 and 9.

Each sweep varies one size knob (columns of the relevant table ``R``, rows of
the training table ``D``, rows of ``R``), runs FeatAug end to end and records
the three timing components the paper reports: Query Template Identification
time, Warm-up time and Generate time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.config import FeatAugConfig
from repro.core.feataug import FeatAug
from repro.dataframe.column import Column
from repro.dataframe.table import Table
from repro.datasets.base import DatasetBundle

#: The small search every sweep runs unless handed another config.
SWEEP_CONFIG = FeatAugConfig(
    n_templates=2, queries_per_template=2, warmup_iterations=10, warmup_top_k=3, search_iterations=5
)


@dataclass
class ScalingPoint:
    """Timing breakdown of one FeatAug run at one size setting."""

    size: int
    qti_seconds: float
    warmup_seconds: float
    generate_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.qti_seconds + self.warmup_seconds + self.generate_seconds


def widen_relevant_table(bundle: DatasetBundle, n_copies: int) -> DatasetBundle:
    """Duplicate the relevant table's non-key columns horizontally.

    The paper widens Student to 130 columns the same way ("we duplicate the
    original datasets horizontally", Section VII.F.1).
    """
    relevant = bundle.relevant
    columns: List[Column] = [relevant.column(k) for k in bundle.keys]
    extra_attrs: List[str] = []
    base_attrs = [n for n in relevant.column_names if n not in bundle.keys]
    for name in base_attrs:
        columns.append(relevant.column(name))
    for copy_index in range(1, n_copies):
        for name in base_attrs:
            new_name = f"{name}_copy{copy_index}"
            columns.append(relevant.column(name).rename(new_name))
            extra_attrs.append(new_name)
    widened = Table(columns)
    return DatasetBundle(
        name=f"{bundle.name}-wide{n_copies}",
        train=bundle.train,
        relevant=widened,
        keys=list(bundle.keys),
        label_col=bundle.label_col,
        task=bundle.task,
        metric_name=bundle.metric_name,
        candidate_attrs=list(bundle.candidate_attrs) + [a for a in extra_attrs if not _is_numeric_only(bundle, a)][: len(bundle.candidate_attrs)],
        agg_attrs=list(bundle.agg_attrs),
        description=bundle.description,
    )


def _is_numeric_only(bundle: DatasetBundle, copied_name: str) -> bool:
    return False


def subsample_train(bundle: DatasetBundle, n_rows: int, seed: int = 0) -> DatasetBundle:
    """Keep only *n_rows* training rows (and the matching relevant rows)."""
    n_rows = min(n_rows, bundle.train.num_rows)
    rng = np.random.default_rng(seed)
    indices = rng.choice(bundle.train.num_rows, size=n_rows, replace=False)
    train = bundle.train.take(np.sort(indices))
    keep_keys = set()
    key = bundle.keys[0]
    for value in train.column(key).values:
        keep_keys.add(value if not isinstance(value, float) else float(value))
    mask = [
        (v if not isinstance(v, float) else float(v)) in keep_keys
        for v in bundle.relevant.column(key).values
    ]
    relevant = bundle.relevant.filter(np.asarray(mask, dtype=bool))
    return DatasetBundle(
        name=bundle.name,
        train=train,
        relevant=relevant,
        keys=list(bundle.keys),
        label_col=bundle.label_col,
        task=bundle.task,
        metric_name=bundle.metric_name,
        candidate_attrs=list(bundle.candidate_attrs),
        agg_attrs=list(bundle.agg_attrs),
        description=bundle.description,
    )


def subsample_relevant(bundle: DatasetBundle, n_rows: int, seed: int = 0) -> DatasetBundle:
    """Keep only *n_rows* rows of the relevant table (training table unchanged)."""
    n_rows = min(n_rows, bundle.relevant.num_rows)
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(bundle.relevant.num_rows, size=n_rows, replace=False))
    relevant = bundle.relevant.take(indices)
    return DatasetBundle(
        name=bundle.name,
        train=bundle.train,
        relevant=relevant,
        keys=list(bundle.keys),
        label_col=bundle.label_col,
        task=bundle.task,
        metric_name=bundle.metric_name,
        candidate_attrs=list(bundle.candidate_attrs),
        agg_attrs=list(bundle.agg_attrs),
        description=bundle.description,
    )


def _run_feataug_timing(bundle: DatasetBundle, model_name: str, config: FeatAugConfig, size: int) -> ScalingPoint:
    # Timing points must start from a cold query engine: scaling sweeps can
    # reuse the same relevant-table object across points, and warm mask /
    # result caches would make later points look artificially fast.  The
    # reset targets the default-config engine, the one the run resolves.
    from repro.query.engine import engine_for

    engine_for(bundle.relevant).reset()
    feataug = FeatAug(
        label=bundle.label_col,
        keys=bundle.keys,
        task=bundle.task,
        model=model_name,
        config=config,
    )
    result = feataug.augment(
        bundle.train,
        bundle.relevant,
        candidate_attrs=bundle.candidate_attrs,
        agg_attrs=bundle.agg_attrs,
        n_features=config.n_templates * config.queries_per_template,
    )
    return ScalingPoint(
        size=size,
        qti_seconds=result.qti_seconds,
        warmup_seconds=result.warmup_seconds,
        generate_seconds=result.generate_seconds,
    )


def run_scaling_columns(
    bundle: DatasetBundle,
    copies: Sequence[int],
    model_name: str = "LR",
    config: FeatAugConfig | None = None,
) -> List[ScalingPoint]:
    """Figure 7: FeatAug runtime as the relevant table gets wider."""
    config = config or SWEEP_CONFIG
    points = []
    for n_copies in copies:
        widened = widen_relevant_table(bundle, n_copies)
        n_cols = widened.relevant.num_columns
        points.append(_run_feataug_timing(widened, model_name, config, size=n_cols))
    return points


def run_scaling_rows_train(
    bundle: DatasetBundle,
    row_counts: Sequence[int],
    model_name: str = "LR",
    config: FeatAugConfig | None = None,
) -> List[ScalingPoint]:
    """Figure 8: FeatAug runtime as the training table grows."""
    config = config or SWEEP_CONFIG
    points = []
    for n_rows in row_counts:
        reduced = subsample_train(bundle, n_rows)
        points.append(_run_feataug_timing(reduced, model_name, config, size=reduced.train.num_rows))
    return points


def run_scaling_rows_relevant(
    bundle: DatasetBundle,
    row_counts: Sequence[int],
    model_name: str = "LR",
    config: FeatAugConfig | None = None,
) -> List[ScalingPoint]:
    """Figure 9: FeatAug runtime as the relevant table grows."""
    config = config or SWEEP_CONFIG
    points = []
    for n_rows in row_counts:
        reduced = subsample_relevant(bundle, n_rows)
        points.append(_run_feataug_timing(reduced, model_name, config, size=reduced.relevant.num_rows))
    return points
