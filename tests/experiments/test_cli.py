"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.dataframe.io import read_csv, write_csv
from repro.datasets import load_dataset


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--dataset", "student"])
        assert args.method == "FeatAug"
        assert args.model == "LR"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "imagenet"])

    def test_config_flags_thread_into_config(self):
        from repro.cli import _config_from_args

        args = build_parser().parse_args(
            ["run", "--dataset", "student", "--search-batch-size", "4", "--seed", "7"]
        )
        config = _config_from_args(args)
        assert config.search_batch_size == 4
        assert config.seed == 7

    def test_default_flags_yield_the_cli_profile(self):
        """With no config flag given, ``run`` searches with ``CLI_DEFAULTS``:
        the :class:`FeatAugConfig` defaults except for four smaller search
        sizes, the profile of the documented student parity run."""
        from dataclasses import asdict

        from repro.cli import CLI_DEFAULTS, _config_from_args
        from repro.core.config import FeatAugConfig

        config = _config_from_args(build_parser().parse_args(["run", "--dataset", "student"]))
        assert asdict(config) == asdict(CLI_DEFAULTS)
        differing = {
            name: value
            for name, value in asdict(CLI_DEFAULTS).items()
            if value != getattr(FeatAugConfig(), name)
        }
        assert differing == {
            "n_templates": 4,
            "queries_per_template": 3,
            "warmup_iterations": 30,
            "search_iterations": 12,
        }

    @pytest.mark.parametrize(
        "field, text",
        [
            ("n_templates", "5"),
            ("queries_per_template", "2"),
            ("warmup_iterations", "7"),
            ("search_iterations", "3"),
            ("proxy", "spearman"),
            ("search_batch_size", "4"),
            ("seed", "11"),
        ],
    )
    def test_each_config_flag_sets_its_field(self, field, text):
        """Every generated ``--field-name`` flag parses to its field's type
        and overrides that field alone; the rest stay ``CLI_DEFAULTS``."""
        from dataclasses import asdict

        from repro.cli import CLI_DEFAULTS, CONFIG_FLAGS, _config_from_args

        assert field in dict(CONFIG_FLAGS)
        flag = "--" + field.replace("_", "-")
        config = _config_from_args(
            build_parser().parse_args(["run", "--dataset", "student", flag, text])
        )
        default = getattr(CLI_DEFAULTS, field)
        value = getattr(config, field)
        assert type(value) is type(default)
        assert value == type(default)(text) != default
        assert asdict(config) == {**asdict(CLI_DEFAULTS), field: value}

    def test_proxy_choices_are_the_validated_names(self):
        from repro.core.config import PROXY_NAMES

        for name in PROXY_NAMES:
            args = build_parser().parse_args(["run", "--dataset", "student", "--proxy", name])
            assert args.proxy == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "student", "--proxy", "magic"])

    def test_engine_backend_flag_rejected(self):
        """The engine has one execution path; there is no backend to pick."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "student", "--engine-backend", "numpy"]
            )


class TestCommands:
    def test_datasets_command(self, capsys):
        exit_code = main(["datasets", "--scale", "0.08"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "tmall" in captured.out
        assert "one-to-many" in captured.out

    def test_run_command_base_method(self, capsys):
        exit_code = main(
            ["run", "--dataset", "student", "--method", "Base", "--model", "LR", "--scale", "0.1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "auc" in captured.out

    def test_augment_command_roundtrip(self, tmp_path, capsys):
        bundle = load_dataset("student", scale=0.1, seed=0)
        train_path = tmp_path / "train.csv"
        relevant_path = tmp_path / "logs.csv"
        output_path = tmp_path / "augmented.csv"
        write_csv(bundle.train, train_path)
        write_csv(bundle.relevant, relevant_path)

        exit_code = main(
            [
                "augment",
                "--train", str(train_path),
                "--relevant", str(relevant_path),
                "--label", "label",
                "--keys", "session_id",
                "--candidate-attrs", "event_type,level",
                "--agg-attrs", "hover_duration",
                "--n-features", "2",
                "--n-templates", "1",
                "--queries-per-template", "2",
                "--warmup-iterations", "5",
                "--search-iterations", "3",
                "--output", str(output_path),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "GROUP BY" in captured.out
        augmented = read_csv(output_path)
        assert augmented.num_rows == bundle.train.num_rows
        assert any(name.startswith("feataug_") for name in augmented.column_names)
