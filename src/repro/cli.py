"""Command-line interface.

Three subcommands cover the common workflows:

* ``python -m repro.cli datasets``
  list the available synthetic datasets and their statistics.

* ``python -m repro.cli run --dataset student --method FeatAug --model LR``
  run one experiment scenario (the same code path as the benchmark harness)
  and print the held-out metric.

* ``python -m repro.cli augment --train train.csv --relevant logs.csv
  --label label --keys user_id --output augmented.csv``
  run FeatAug on user-provided CSV files and write the augmented training
  table plus the selected SQL queries.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.config import FeatAugConfig
from repro.core.feataug import FeatAug
from repro.dataframe.io import read_csv, write_csv
from repro.datasets import DATASET_NAMES, load_dataset
from repro.experiments.reporting import render_table
from repro.experiments.runner import METHOD_NAMES, run_method
from repro.ml.model_zoo import MODEL_NAMES
from repro.query.backends import backend_names


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-templates", type=int, default=4, help="number of query templates to identify")
    parser.add_argument("--queries-per-template", type=int, default=3, help="queries generated per template")
    parser.add_argument("--warmup-iterations", type=int, default=30, help="proxy-TPE iterations in the warm-up phase")
    parser.add_argument("--search-iterations", type=int, default=12, help="real-model TPE iterations per template")
    parser.add_argument("--proxy", choices=["mi", "spearman", "lr"], default="mi", help="low-cost proxy")
    parser.add_argument(
        "--search-batch-size",
        type=int,
        default=1,
        help="candidates proposed and evaluated per search round; >1 batches "
        "them through one fused engine pass with proposal deduplication",
    )
    parser.add_argument(
        "--engine-backend",
        choices=list(backend_names()),
        default=None,
        help="query-engine execution backend (default: $REPRO_ENGINE_BACKEND or numpy)",
    )
    parser.add_argument(
        "--engine-incremental",
        action="store_true",
        default=None,
        help="delta-aware execution: on a relevant-table append the engine "
        "extends its cached masks / group indexes / additive results over "
        "the appended rows instead of flushing every cache "
        "(default: $REPRO_ENGINE_INCREMENTAL or off)",
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="global size-aware budget shared by the engine's mask / result "
        "/ sort-order caches (default: unbounded)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _config_from_args(args: argparse.Namespace) -> FeatAugConfig:
    return FeatAugConfig(
        n_templates=args.n_templates,
        queries_per_template=args.queries_per_template,
        warmup_iterations=args.warmup_iterations,
        search_iterations=args.search_iterations,
        proxy=args.proxy,
        search_batch_size=args.search_batch_size,
        engine_backend=args.engine_backend,
        engine_memory_budget=args.memory_budget,
        engine_incremental=args.engine_incremental,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description="FeatAug reproduction command-line interface")
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser("datasets", help="list the synthetic datasets")
    datasets_parser.add_argument("--scale", type=float, default=0.25, help="dataset scale factor")

    run_parser = subparsers.add_parser("run", help="run one experiment scenario")
    run_parser.add_argument("--dataset", choices=list(DATASET_NAMES), required=True)
    run_parser.add_argument("--method", choices=list(METHOD_NAMES), default="FeatAug")
    run_parser.add_argument("--model", choices=list(MODEL_NAMES), default="LR")
    run_parser.add_argument("--n-features", type=int, default=12, help="number of generated features")
    run_parser.add_argument("--scale", type=float, default=0.25, help="dataset scale factor")
    _add_config_arguments(run_parser)

    augment_parser = subparsers.add_parser("augment", help="augment a CSV training table with FeatAug")
    augment_parser.add_argument("--train", required=True, help="path to the training table CSV")
    augment_parser.add_argument("--relevant", required=True, help="path to the relevant table CSV")
    augment_parser.add_argument("--label", required=True, help="label column in the training table")
    augment_parser.add_argument("--keys", required=True, help="comma-separated foreign key column(s)")
    augment_parser.add_argument("--task", choices=["binary", "multiclass", "regression"], default="binary")
    augment_parser.add_argument("--model", choices=list(MODEL_NAMES), default="LR")
    augment_parser.add_argument("--candidate-attrs", default=None, help="comma-separated WHERE-clause candidates (default: all relevant columns)")
    augment_parser.add_argument("--agg-attrs", default=None, help="comma-separated aggregation attributes (default: numeric columns)")
    augment_parser.add_argument("--n-features", type=int, default=12)
    augment_parser.add_argument("--output", required=True, help="path for the augmented training table CSV")
    _add_config_arguments(augment_parser)

    return parser


def _command_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in DATASET_NAMES:
        bundle = load_dataset(name, scale=args.scale, seed=0)
        summary = bundle.summary()
        rows.append(
            [name, summary["task"], summary["relationship"], summary["n_train_rows"],
             summary["n_relevant_rows"], summary["n_relevant_cols"]]
        )
    print(render_table(["dataset", "task", "relationship", "rows(D)", "rows(R)", "cols(R)"], rows))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    bundle = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = _config_from_args(args)
    result = run_method(
        bundle, args.method, args.model, n_features=args.n_features, config=config, seed=args.seed
    )
    print(
        render_table(
            ["dataset", "method", "model", "metric", "score", "n_features", "seconds"],
            [[result.dataset, result.method, result.model, result.metric_name,
              result.metric, result.n_features, result.seconds]],
        )
    )
    return 0


def _command_augment(args: argparse.Namespace) -> int:
    keys = [k.strip() for k in args.keys.split(",") if k.strip()]
    train = read_csv(args.train, dtypes={k: "categorical" for k in keys})
    relevant = read_csv(args.relevant, dtypes={k: "categorical" for k in keys})
    candidate_attrs = (
        [a.strip() for a in args.candidate_attrs.split(",") if a.strip()]
        if args.candidate_attrs
        else [c for c in relevant.column_names if c not in keys]
    )
    agg_attrs = (
        [a.strip() for a in args.agg_attrs.split(",") if a.strip()] if args.agg_attrs else None
    )
    config = _config_from_args(args)
    feataug = FeatAug(label=args.label, keys=keys, task=args.task, model=args.model, config=config)
    result = feataug.augment(
        train, relevant,
        candidate_attrs=candidate_attrs, agg_attrs=agg_attrs, n_features=args.n_features,
    )
    write_csv(result.augmented_table, args.output)
    print(f"Wrote augmented training table with {len(result.feature_names)} new feature(s) to {args.output}")
    print("\nSelected predicate-aware SQL queries:")
    for sql in result.sql():
        print("\n" + sql)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "datasets":
        return _command_datasets(args)
    if args.command == "run":
        return _command_run(args)
    return _command_augment(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
