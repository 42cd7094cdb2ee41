"""Run one (dataset, method, model) scenario end to end.

Protocol (matching Section VII.A.6): the training table is split
0.6 / 0.2 / 0.2 into train / validation / test.  Search methods use the
train+validation pair to score candidate features; the reported number is the
metric of the downstream model trained on the train split with the selected
features and evaluated on the *test* split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.baselines.arda import ARDA
from repro.baselines.autofeature import AutoFeatureDQN, AutoFeatureMAB
from repro.baselines.featuretools import FeaturetoolsGenerator
from repro.baselines.random_baseline import RandomAugmenter
from repro.baselines.selectors import select_features
from repro.core.config import FeatAugConfig
from repro.core.evaluation import ModelEvaluator
from repro.core.feataug import FeatAug
from repro.dataframe.table import Table
from repro.datasets.base import DatasetBundle
from repro.ml.model_zoo import make_model
from repro.ml.preprocessing import train_valid_test_split
from repro.query.augment import augment_training_table
from repro.query.engine import engine_for
from repro.query.query import PredicateAwareQuery

#: Methods understood by :func:`run_method`.
METHOD_NAMES = (
    "Base",
    "FT",
    "FT+LR",
    "FT+GBDT",
    "FT+MI",
    "FT+Chi2",
    "FT+Gini",
    "FT+Forward",
    "FT+Backward",
    "Random",
    "ARDA",
    "AutoFeat-MAB",
    "AutoFeat-DQN",
    "FeatAug",
    "FeatAug-NoWU",
    "FeatAug-NoQTI",
)


@dataclass
class MethodResult:
    """Outcome of one scenario run."""

    dataset: str
    method: str
    model: str
    metric: float
    metric_name: str
    seconds: float
    n_features: int
    details: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _materialise_query_features(
    queries: Sequence[PredicateAwareQuery],
    relevant_table: Table,
    tables: Sequence[Table],
    column_prefix: str = "q",
) -> List[np.ndarray]:
    """Execute the queries as one engine batch and join each feature onto
    every given table.

    Returns one float matrix per input table with a column per query.
    """
    per_table_columns: List[List[np.ndarray]] = [[] for _ in tables]
    feature_tables = engine_for(relevant_table).execute_batch(queries)
    for i, (query, feature_table) in enumerate(zip(queries, feature_tables)):
        for t, table in enumerate(tables):
            joined = augment_training_table(
                table, feature_table, query.keys, query.feature_name, f"__{column_prefix}_{i}__"
            )
            per_table_columns[t].append(joined.column(f"__{column_prefix}_{i}__").values)
    matrices = []
    for columns in per_table_columns:
        matrices.append(np.column_stack(columns) if columns else np.zeros((0, 0)))
    return matrices


def _one_to_one_feature_matrices(
    bundle: DatasetBundle, tables: Sequence[Table]
) -> tuple:
    """Join every non-key relevant column onto the given tables (one-to-one)."""
    names = [
        name
        for name in bundle.relevant.column_names
        if name not in bundle.keys and bundle.relevant.column(name).is_numeric_like
    ]
    matrices = []
    for table in tables:
        joined = table.left_join(bundle.relevant.select(list(bundle.keys) + names), on=list(bundle.keys))
        matrices.append(np.column_stack([joined.column(n).values for n in names]))
    return names, matrices


def _make_evaluator(
    bundle: DatasetBundle, fit_table: Table, eval_table: Table, model_name: str
) -> ModelEvaluator:
    base_features = [
        name
        for name in bundle.train.column_names
        if name != bundle.label_col and name not in bundle.keys
    ]
    return ModelEvaluator(
        fit_table,
        eval_table,
        label=bundle.label_col,
        base_features=base_features,
        model=make_model(model_name, bundle.task),
        task=bundle.task,
        relevant_table=bundle.relevant,
    )


def _feataug_config(method: str, config: FeatAugConfig | None, seed: int) -> FeatAugConfig:
    config = (config or FeatAugConfig()).with_overrides(seed=seed)
    if method == "FeatAug-NoWU":
        return config.with_overrides(use_warmup=False)
    if method == "FeatAug-NoQTI":
        return config.with_overrides(use_template_identification=False)
    return config


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run_method(
    bundle: DatasetBundle,
    method: str,
    model_name: str = "LR",
    n_features: int = 20,
    config: FeatAugConfig | None = None,
    seed: int = 0,
) -> MethodResult:
    """Run one augmentation method on one dataset with one downstream model."""
    if method not in METHOD_NAMES:
        raise ValueError(f"Unknown method {method!r}; expected one of {METHOD_NAMES}")
    start = time.perf_counter()

    train, valid, test = train_valid_test_split(bundle.train, ratios=(0.6, 0.2, 0.2), seed=seed)
    search_evaluator = _make_evaluator(bundle, train, valid, model_name)
    final_evaluator = _make_evaluator(bundle, train, test, model_name)

    details: Dict[str, float] = {}
    if method == "Base":
        result = final_evaluator.evaluate_baseline()
        n_selected = 0
    elif method.startswith("FT"):
        result, n_selected = _run_featuretools_family(
            bundle, method, n_features, train, valid, test, search_evaluator, final_evaluator, seed
        )
    elif method == "Random":
        augmenter = RandomAugmenter(
            keys=bundle.keys,
            agg_attrs=bundle.agg_attrs,
            n_templates=max(1, n_features // 5),
            queries_per_template=5,
            seed=seed,
        )
        queries = augmenter.generate(bundle.relevant, bundle.candidate_attrs)[:n_features]
        result = final_evaluator.evaluate_queries(queries, bundle.relevant)
        n_selected = len(queries)
    elif method in ("ARDA", "AutoFeat-MAB", "AutoFeat-DQN"):
        result, n_selected = _run_one_to_one_family(
            bundle, method, n_features, train, valid, test, search_evaluator, final_evaluator, seed
        )
    else:  # FeatAug variants
        feataug_config = _feataug_config(method, config, seed)
        feataug = FeatAug(
            label=bundle.label_col,
            keys=bundle.keys,
            task=bundle.task,
            model=model_name,
            config=feataug_config,
        )
        search_table = train.concat_rows(valid)
        augmentation = feataug.augment(
            search_table,
            bundle.relevant,
            candidate_attrs=bundle.candidate_attrs,
            agg_attrs=bundle.agg_attrs,
            n_features=n_features,
        )
        queries = [g.query for g in augmentation.queries]
        result = final_evaluator.evaluate_queries(queries, bundle.relevant)
        n_selected = len(queries)
        details = {
            "qti_seconds": augmentation.qti_seconds,
            "warmup_seconds": augmentation.warmup_seconds,
            "generate_seconds": augmentation.generate_seconds,
        }

    seconds = time.perf_counter() - start
    return MethodResult(
        dataset=bundle.name,
        method=method,
        model=model_name,
        metric=result.metric,
        metric_name=result.metric_name,
        seconds=seconds,
        n_features=n_selected,
        details=details,
    )


# ----------------------------------------------------------------------
# Method families
# ----------------------------------------------------------------------
def _run_featuretools_family(
    bundle: DatasetBundle,
    method: str,
    n_features: int,
    train: Table,
    valid: Table,
    test: Table,
    search_evaluator: ModelEvaluator,
    final_evaluator: ModelEvaluator,
    seed: int,
):
    generator = FeaturetoolsGenerator(keys=bundle.keys)
    queries = generator.candidate_queries(bundle.relevant)
    if method == "FT":
        queries = queries[:n_features]
        result = final_evaluator.evaluate_queries(queries, bundle.relevant)
        return result, len(queries)

    # Materialise the full candidate set once, then select.
    queries = queries[: max(3 * n_features, n_features + 10)]
    names = [f"{q.agg_func}_{q.agg_attr}".lower() for q in queries]
    X_train, X_valid, X_test = _materialise_query_features(
        queries, bundle.relevant, [train, valid, test]
    )
    selector = method.split("+", 1)[1].lower()
    selected_names = select_features(
        selector,
        names,
        k=n_features,
        task=bundle.task,
        X_train=X_train,
        y_train=search_evaluator.y_train,
        evaluator=search_evaluator,
        X_valid=X_valid,
    )
    columns = [names.index(n) for n in selected_names]
    result = final_evaluator.evaluate_matrix(X_train[:, columns], X_test[:, columns])
    return result, len(columns)


def _run_one_to_one_family(
    bundle: DatasetBundle,
    method: str,
    n_features: int,
    train: Table,
    valid: Table,
    test: Table,
    search_evaluator: ModelEvaluator,
    final_evaluator: ModelEvaluator,
    seed: int,
):
    names, (X_train, X_valid, X_test) = _one_to_one_feature_matrices(bundle, [train, valid, test])
    if method == "ARDA":
        selected = ARDA(seed=seed).select(
            X_train, search_evaluator.y_train, names, k=n_features, task=bundle.task
        )
    elif method == "AutoFeat-MAB":
        selected = AutoFeatureMAB(seed=seed).select(
            search_evaluator, X_train, X_valid, names, k=n_features
        )
    else:
        selected = AutoFeatureDQN(seed=seed).select(
            search_evaluator, X_train, X_valid, names, k=n_features
        )
    columns = [names.index(n) for n in selected]
    if not columns:
        result = final_evaluator.evaluate_baseline()
        return result, 0
    result = final_evaluator.evaluate_matrix(X_train[:, columns], X_test[:, columns])
    return result, len(columns)
