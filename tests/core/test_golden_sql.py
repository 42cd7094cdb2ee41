"""Golden files: the SQL and the search trajectory of a whole FeatAug run,
pinned byte for byte.

The scenario is the ``feataug-lr`` benchmark unit on one dataset seed:
student at scale 0.25, dataset seed 19, FeatAug with logistic regression,
``FeatAugConfig(seed=19)`` and 12 features, searched on the train and
validation splits of a 60/20/20 split.

* ``feataug_lr_student_seed19.sql`` pins the rendered WHERE clauses
  (constants, bound order, datetime and float spellings) and one
  unpredicated ``MAD(hover_duration)`` query: two templates over different
  attributes both propose it, and it is one feature.
* ``feataug_lr_student_seed19.trajectory`` pins every proxy and model
  evaluation of the run's searches, in order, one line each: ``proxy`` and
  the ``repr`` of the proxy score, or ``model`` and the ``repr`` of the
  validation loss, then the candidate's SQL on one line.  Any change to
  candidate scoring (feature vectors, proxies, model fits) or to the
  proposals TPE makes shows up here as the first differing line.

Template identification's scorings and the selected templates' searches
run in forked worker processes, so every process appends its lines to its
own file, each line tagged with its generator's seed, and the serial order
is rebuilt from the files by seed: the template identification lines in
ascending seed order, then each selected template's lines in template
order.
"""

import os
from collections import defaultdict
from pathlib import Path

import pytest

from repro import FeatAugConfig, load_dataset
from repro.core.feataug import FeatAug
from repro.core.sql_generation import SQLQueryGenerator
from repro.ml.preprocessing import train_valid_test_split

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "feataug_lr_student_seed19.sql"
GOLDEN_TRAJECTORY = GOLDEN_DIR / "feataug_lr_student_seed19.trajectory"
SEED = 19


def _recording(kind, objective, log_dir, sign):
    """Wrap a batched objective of :class:`SQLQueryGenerator` so that every
    evaluation it answers appends one line, tagged with the generator's
    seed, to this process's file in *log_dir*.  Each line is written
    through at once: a worker process leaves without flushing."""

    def wrapper(self, params_batch):
        values = objective(self, params_batch)
        with open(log_dir / f"{os.getpid()}.lines", "a") as log:
            for params, value in zip(params_batch, values):
                sql = " ".join(self.pool.decode(params).to_sql().split("\n"))
                log.write(f"{self.seed} {kind} {sign * value!r} {sql}\n")
        return values

    return wrapper


def _serial_trajectory(log_dir, n_templates):
    """The recorded lines in the order of a serial run.  Template
    identification seeds its k-th scoring ``SEED + k``, so its lines come
    first in ascending seed order; then come the lines of each selected
    template's generator (seed ``SEED + 101 * (i + 1)``) in template order.
    Each generator runs in one process, so its lines keep their order
    within that process's file."""
    template_seeds = [SEED + 101 * (i + 1) for i in range(n_templates)]
    by_seed = defaultdict(list)
    for path in sorted(log_dir.glob("*.lines")):
        for tagged in path.read_text().splitlines():
            seed, line = tagged.split(" ", 1)
            by_seed[int(seed)].append(line)
    qti_seeds = sorted(seed for seed in by_seed if seed not in template_seeds)
    return [line for seed in qti_seeds + template_seeds for line in by_seed[seed]]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """``(rendered SQL, rendered trajectory)`` of one run of the scenario."""
    log_dir = tmp_path_factory.mktemp("trajectory")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            SQLQueryGenerator,
            "_proxy_objective_batch",
            _recording("proxy", SQLQueryGenerator._proxy_objective_batch, log_dir, -1.0),
        )
        patch.setattr(
            SQLQueryGenerator,
            "_model_objective_batch",
            _recording("model", SQLQueryGenerator._model_objective_batch, log_dir, 1.0),
        )
        bundle = load_dataset("student", 0.25, SEED)
        train, valid, _ = train_valid_test_split(
            bundle.train, ratios=(0.6, 0.2, 0.2), seed=SEED
        )
        feataug = FeatAug(
            label=bundle.label_col,
            keys=bundle.keys,
            task=bundle.task,
            model="LR",
            config=FeatAugConfig(seed=SEED),
        )
        result = feataug.augment(
            train.concat_rows(valid),
            bundle.relevant,
            candidate_attrs=bundle.candidate_attrs,
            agg_attrs=bundle.agg_attrs,
            n_features=12,
        )
    lines = _serial_trajectory(log_dir, len(result.templates))
    return "\n\n".join(result.sql()) + "\n", "\n".join(lines) + "\n"


def test_feataug_lr_sql_matches_golden_file(golden_run):
    rendered, _ = golden_run
    assert rendered == GOLDEN.read_text()


def test_feataug_lr_trajectory_matches_golden_file(golden_run):
    _, trajectory = golden_run
    golden = GOLDEN_TRAJECTORY.read_text()
    if trajectory != golden:
        got, want = trajectory.splitlines(), golden.splitlines()
        first = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
            min(len(got), len(want)),
        )
        pytest.fail(
            f"trajectory differs from line {first + 1} "
            f"({len(got)} evaluations, golden has {len(want)}):\n"
            f"  got:    {got[first] if first < len(got) else '<end>'}\n"
            f"  golden: {want[first] if first < len(want) else '<end>'}"
        )
