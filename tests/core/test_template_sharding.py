"""Template searches shared out over forked worker processes.

``FeatAug.augment`` deals its selected templates into one shard per usable
core; shard 0 runs in the calling process and every other shard in a forked
worker.  The core count is forced through ``_usable_cores`` so that the
sharded path also runs on a one-core host.  Checked here:

* any shard count gives the serial run's queries, scores and final AUC,
  and the engine counters still count every requested plan;
* a worker that raises or dies makes ``augment`` raise, and so does a
  failure in the calling process while a worker still runs;
* no worker outlives ``augment``;
* with another thread alive nothing is forked.
"""

import os
import signal
import threading
import time

import pytest

from repro import FeatAugConfig, load_dataset
from repro.core import feataug as feataug_module
from repro.core.evaluation import ModelEvaluator
from repro.core.feataug import FeatAug
from repro.core.sql_generation import GenerationReport, SQLQueryGenerator
from repro.core.template_identification import TemplateScore
from repro.ml.model_zoo import make_model
from repro.ml.preprocessing import train_valid_test_split
from repro.query.engine import EngineStats
from repro.query.template import QueryTemplate

SEED = 3
SCALE = 0.12


def _run(monkeypatch, cores):
    """One FeatAug run with *cores* usable cores on a freshly loaded dataset
    (so on a fresh engine): ``(result, held-out AUC, forks made)``."""
    monkeypatch.setattr(feataug_module, "_usable_cores", lambda: cores)
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    bundle = load_dataset("student", SCALE, SEED)
    train, valid, test = train_valid_test_split(bundle.train, ratios=(0.6, 0.2, 0.2), seed=SEED)
    facade = FeatAug(
        label=bundle.label_col,
        keys=bundle.keys,
        task=bundle.task,
        model="LR",
        config=FeatAugConfig(seed=SEED),
    )
    result = facade.augment(
        train.concat_rows(valid),
        bundle.relevant,
        candidate_attrs=bundle.candidate_attrs,
        agg_attrs=bundle.agg_attrs,
        n_features=12,
    )
    held_out = ModelEvaluator(
        train,
        test,
        label=bundle.label_col,
        base_features=[
            name for name in bundle.train.column_names
            if name != bundle.label_col and name not in bundle.keys
        ],
        model=make_model("LR", bundle.task),
        task=bundle.task,
        relevant_table=bundle.relevant,
    )
    auc = held_out.evaluate_queries([g.query for g in result.queries], bundle.relevant).metric
    return result, auc, forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def serial_run():
    with pytest.MonkeyPatch.context() as patch:
        return _run(patch, cores=1)


@pytest.mark.parametrize("cores", [2, 3])
def test_sharded_run_equals_the_serial_run(monkeypatch, serial_run, cores):
    serial, serial_auc, serial_forks = serial_run
    sharded, sharded_auc, forks = _run(monkeypatch, cores)
    assert serial_forks == [] and len(forks) == cores - 1
    assert len(sharded.templates) >= cores
    assert sharded.sql() == serial.sql()
    assert [(repr(g.loss), repr(g.metric), repr(g.proxy_score)) for g in sharded.queries] == [
        (repr(g.loss), repr(g.metric), repr(g.proxy_score)) for g in serial.queries
    ]
    assert repr(sharded_auc) == repr(serial_auc)
    # Workers do not share the parent's result cache, so plans the serial
    # run answered from it may execute instead; every requested plan is one
    # or the other.
    requested = [r.engine_stats["queries"] + r.engine_stats["result_hits"] for r in (sharded, serial)]
    assert requested[0] == requested[1]
    # The reported search times are sums over the templates in either case.
    assert sharded.warmup_seconds > 0 and sharded.generate_seconds > 0
    _assert_no_child_left()


def test_results_come_back_in_template_order(monkeypatch):
    """Template *i* is searched by shard ``i % k`` -- shard 0 in this
    process -- and its result lands at position *i*, so the caller's
    deduplication sees the queries in the serial order."""
    monkeypatch.setattr(feataug_module, "_usable_cores", lambda: 3)
    templates = [
        TemplateScore(QueryTemplate(None, ["x"], [f"p{i}"], ["k"]), score=0.0, layer=1)
        for i in range(7)
    ]

    def search(i):
        return [i, os.getpid()], GenerationReport(warmup_seconds=float(i))

    results = feataug_module._search_templates(templates, search, EngineStats())
    assert [found[0] for found, _ in results] == list(range(7))
    assert [report.warmup_seconds for _, report in results] == [float(i) for i in range(7)]
    pids = [found[1] for found, _ in results]
    assert pids[0::3] == [os.getpid()] * 3
    assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1
    assert len(set(pids)) == 3
    _assert_no_child_left()


def _in_worker(parent, action):
    """A ``SQLQueryGenerator.generate`` that does *action* in a worker
    process and searches normally in the parent."""
    generate = SQLQueryGenerator.generate

    def patched(self, n_queries=1):
        if os.getpid() != parent:
            action()
        return generate(self, n_queries)

    return patched


def test_a_worker_that_raises_makes_augment_raise(monkeypatch):
    def fail():
        raise ValueError("search exploded")

    monkeypatch.setattr(SQLQueryGenerator, "generate", _in_worker(os.getpid(), fail))
    with pytest.raises(RuntimeError, match=r"(?s)template 1 .*Traceback.*search exploded"):
        _run(monkeypatch, cores=2)
    _assert_no_child_left()


def test_a_worker_that_dies_makes_augment_raise(monkeypatch):
    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(SQLQueryGenerator, "generate", _in_worker(os.getpid(), die))
    with pytest.raises(RuntimeError, match=f"killed by signal {int(signal.SIGKILL)}"):
        _run(monkeypatch, cores=2)
    _assert_no_child_left()


def test_a_failure_in_the_caller_kills_the_running_workers(monkeypatch):
    """The calling process raises while its worker would search for a
    minute: the worker is killed and reaped at once."""
    parent = os.getpid()
    generate = SQLQueryGenerator.generate

    def patched(self, n_queries=1):
        if os.getpid() != parent:
            time.sleep(60)
            return generate(self, n_queries)
        raise ValueError("caller failed")

    monkeypatch.setattr(SQLQueryGenerator, "generate", patched)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="caller failed"):
        _run(monkeypatch, cores=2)
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_nothing_is_forked_while_another_thread_is_alive(monkeypatch, serial_run):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        result, auc, forks = _run(monkeypatch, cores=2)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert result.sql() == serial_run[0].sql() and repr(auc) == repr(serial_run[1])


@pytest.mark.parametrize(
    "n_templates, cores, has_fork, shards",
    [(8, 2, True, 2), (8, 16, True, 8), (1, 4, True, 1), (8, 1, True, 1), (8, 4, False, 1)],
)
def test_shard_count(monkeypatch, n_templates, cores, has_fork, shards):
    monkeypatch.setattr(feataug_module, "_usable_cores", lambda: cores)
    if not has_fork:
        monkeypatch.delattr(os, "fork")
    assert feataug_module._shard_count(n_templates) == shards
