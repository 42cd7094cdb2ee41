"""Golden SQL: the text of a whole FeatAug run, pinned byte for byte.

The scenario is the ``feataug-lr`` benchmark unit on one dataset seed:
student at scale 0.25, dataset seed 19, FeatAug with logistic regression,
``FeatAugConfig(seed=19)`` and 12 features, searched on the train and
validation splits of a 60/20/20 split.  The golden file pins the rendered
WHERE clauses (constants, bound order, datetime and float spellings) and one
unpredicated ``MAD(hover_duration)`` query: two templates over different
attributes both propose it, and it is one feature.
"""

from pathlib import Path

from repro import FeatAugConfig, load_dataset
from repro.core.feataug import FeatAug
from repro.ml.preprocessing import train_valid_test_split

GOLDEN = Path(__file__).parent / "golden" / "feataug_lr_student_seed19.sql"
SEED = 19


def test_feataug_lr_sql_matches_golden_file():
    bundle = load_dataset("student", 0.25, SEED)
    train, valid, _ = train_valid_test_split(bundle.train, ratios=(0.6, 0.2, 0.2), seed=SEED)
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
    rendered = "\n\n".join(result.sql()) + "\n"
    assert rendered == GOLDEN.read_text()
