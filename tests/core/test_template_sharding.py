"""Template identification and template searches shared out over one pool
of forked worker processes.

``FeatAug.augment`` forks its workers once, at template identification's
first beam layer; each layer's scorings and then the selected templates'
searches are claimed one at a time by them and the calling process.  The
core count is forced through ``_usable_cores`` so that the pooled path also
runs on a one-core host.  Checked here:

* any process count gives the serial run's queries, scores and final AUC
  with one fork per worker for the whole run, and the engine counters
  still count every requested plan, in ``augment`` and in ``identify``;
* a worker that raises or dies, in a scoring or in a search, makes
  ``augment`` raise, and so does a failure in the calling process while a
  worker still runs;
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
from repro.core.proxies import make_proxy
from repro.core.sql_generation import SQLQueryGenerator
from repro.core.template_identification import QueryTemplateIdentifier
from repro.ml.model_zoo import make_model
from repro.ml.preprocessing import train_valid_test_split
from repro.query.engine import EngineStats
from repro.query.template import QueryTemplate

SEED = 3
SCALE = 0.12
_FORK = os.fork


def _count_forks(monkeypatch, cores):
    """Force *cores* usable cores; the returned list collects the pid of
    every process forked from now on."""
    monkeypatch.setattr(feataug_module, "_usable_cores", lambda: cores)
    forks = []

    def counting_fork():
        pid = _FORK()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _run(monkeypatch, cores):
    """One FeatAug run with *cores* usable cores on a freshly loaded dataset
    (so on a fresh engine): ``(result, held-out AUC, forks made)``."""
    forks = _count_forks(monkeypatch, cores)
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


def test_results_come_back_in_template_order(monkeypatch, tmp_path):
    """Every task runs once, in whichever process claims it, and its result
    lands at position *i*, so the caller sees the results in the serial
    order.  The first three tasks wait until three processes have started
    one, so every process takes part.  A second ``map`` runs on the same
    workers."""
    forks = _count_forks(monkeypatch, 3)
    templates = [QueryTemplate(None, ["x"], [f"p{i}"], ["k"]) for i in range(7)]
    started = tmp_path / "started"

    def task(template, i):
        if i < 3:
            with open(started, "a") as log:
                log.write(f"{os.getpid()}\n")
            deadline = time.monotonic() + 30
            while len(started.read_text().split()) < 3 and time.monotonic() < deadline:
                time.sleep(0.001)
        return template.predicate_attrs[0], i, os.getpid()

    with feataug_module._WorkerPool([task], EngineStats()) as pool:
        results = pool.map(task, [(t, i) for i, t in enumerate(templates)])
        again = pool.map(task, [(t, i + 3) for i, t in enumerate(templates[:4])])
    assert [(attr, i) for attr, i, _ in results] == [(f"p{i}", i) for i in range(7)]
    assert [(attr, i) for attr, i, _ in again] == [(f"p{i}", i + 3) for i in range(4)]
    pids = [pid for _, _, pid in results]
    assert len(set(pids[:3])) == 3
    assert set(pids) == {os.getpid(), *forks}
    assert {pid for _, _, pid in again} <= set(pids)
    assert len(forks) == 2
    _assert_no_child_left()


def test_every_task_is_claimed_exactly_once(monkeypatch, tmp_path):
    """Six processes on however many cores claim thousands of tiny tasks
    (a claim queue longer than one atomic pipe write), twice: a claim lost
    or taken twice, or an end marker left over for the next ``map``, shows
    as an index missing from or repeated in the per-process logs, and a
    lost end marker as a ``map`` that never returns."""
    forks = _count_forks(monkeypatch, 6)
    template = QueryTemplate(None, ["x"], ["p"], ["k"])

    def task(template, i):
        with open(tmp_path / str(os.getpid()), "a") as log:
            log.write(f"{i}\n")
        return i

    def give_up(signum, frame):
        raise TimeoutError("a process never read its end marker")

    n = 3000
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(60)
    try:
        with feataug_module._WorkerPool([task], EngineStats()) as pool:
            for _ in range(2):
                assert pool.map(task, [(template, i) for i in range(n)]) == list(range(n))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    claimed = sorted(int(i) for log in tmp_path.iterdir() for i in log.read_text().split())
    assert claimed == sorted(list(range(n)) * 2)
    assert len(forks) == 5
    _assert_no_child_left()


def _identifier(bundle, config):
    """A template identifier on *bundle*'s own (fresh) engine."""
    facade = FeatAug(
        label=bundle.label_col, keys=bundle.keys, task=bundle.task, model="LR", config=config
    )
    evaluator = facade._build_evaluator(bundle.train, bundle.relevant)
    return QueryTemplateIdentifier(
        bundle.relevant,
        evaluator,
        agg_attrs=bundle.agg_attrs,
        keys=bundle.keys,
        config=config,
        proxy=make_proxy(config.proxy),
    )


def _identify(monkeypatch, cores, pooled):
    """Template identification on a freshly loaded dataset, its scorings
    run through a worker pool when *pooled*: ``(templates, report, forks)``."""
    forks = _count_forks(monkeypatch, cores)
    bundle = load_dataset("student", SCALE, SEED)
    config = FeatAugConfig(seed=SEED, template_proxy_iterations=8)
    identifier = _identifier(bundle, config)
    if pooled:
        scoring = identifier.score_template
        with feataug_module._WorkerPool([scoring], identifier.engine.stats) as pool:
            templates = identifier.identify(bundle.candidate_attrs, map_tasks=pool.map)
    else:
        templates = identifier.identify(bundle.candidate_attrs)
    return templates, identifier.report, forks


def test_pooled_identification_equals_the_serial_one(monkeypatch):
    """Scored in a pool, template identification picks the same templates
    with the same scores, and its report counts the scorings the worker
    ran: every requested plan is an executed query or a result-cache hit,
    whichever process served it."""
    serial, serial_report, no_forks = _identify(monkeypatch, 1, pooled=True)
    pooled, pooled_report, forks = _identify(monkeypatch, 2, pooled=True)
    in_process, in_process_report, _ = _identify(monkeypatch, 2, pooled=False)
    assert no_forks == [] and len(forks) == 1
    for templates in (pooled, in_process):
        assert [(t.template.predicate_attrs, repr(t.score), t.layer) for t in templates] == [
            (t.template.predicate_attrs, repr(t.score), t.layer) for t in serial
        ]
    requested = [
        report.engine_stats["queries"] + report.engine_stats["result_hits"]
        for report in (pooled_report, serial_report, in_process_report)
    ]
    assert requested[0] == requested[1] == requested[2] > 0
    _assert_no_child_left()


def _in_worker(parent, action):
    """A ``SQLQueryGenerator.generate`` that does *action* on its template
    in a worker process and searches normally in the parent."""
    generate = SQLQueryGenerator.generate

    def patched(self, n_queries=1):
        if os.getpid() != parent:
            action(self.template)
        return generate(self, n_queries)

    return patched


def _explode(what):
    """An action that raises, naming the template it failed on."""

    def fail(template):
        raise ValueError(f"{what} exploded on {list(template.predicate_attrs)}")

    return fail


#: The error names the template whose task raised: the WHERE attributes it
#: reports are those in the worker's traceback.
_RAISED = r"(?s)of template \d+ \(WHERE attributes (\[.*?\])\) raised in worker .*Traceback.*{} exploded on \1"


def test_a_worker_that_raises_makes_augment_raise(monkeypatch):
    monkeypatch.setattr(SQLQueryGenerator, "generate", _in_worker(os.getpid(), _explode("search")))
    with pytest.raises(RuntimeError, match=_RAISED.format("search")):
        _run(monkeypatch, cores=2)
    _assert_no_child_left()


def test_a_worker_that_dies_makes_augment_raise(monkeypatch):
    def die(template):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(SQLQueryGenerator, "generate", _in_worker(os.getpid(), die))
    with pytest.raises(RuntimeError, match=f"killed by signal {int(signal.SIGKILL)}"):
        _run(monkeypatch, cores=2)
    _assert_no_child_left()


def _scoring_in_worker(parent, action):
    """A ``QueryTemplateIdentifier.score_template`` that does *action* on
    its template in a worker process and scores normally in the parent."""
    score_template = QueryTemplateIdentifier.score_template

    def patched(self, template, seed):
        if os.getpid() != parent:
            action(template)
        return score_template(self, template, seed)

    return patched


def test_a_worker_that_raises_in_template_identification_makes_augment_raise(monkeypatch):
    monkeypatch.setattr(
        QueryTemplateIdentifier,
        "score_template",
        _scoring_in_worker(os.getpid(), _explode("scoring")),
    )
    with pytest.raises(RuntimeError, match=_RAISED.format("scoring")):
        _run(monkeypatch, cores=2)
    _assert_no_child_left()


def test_a_worker_that_dies_in_template_identification_makes_augment_raise(monkeypatch):
    def die(template):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(
        QueryTemplateIdentifier, "score_template", _scoring_in_worker(os.getpid(), die)
    )
    with pytest.raises(
        RuntimeError, match=f"ended without a result: killed by signal {int(signal.SIGKILL)}"
    ):
        _run(monkeypatch, cores=3)
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


def test_template_identification_forks_nothing_while_another_thread_is_alive(monkeypatch):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        pooled, _, forks = _identify(monkeypatch, 2, pooled=True)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    serial, _, _ = _identify(monkeypatch, 1, pooled=False)
    assert [(t.template.predicate_attrs, repr(t.score)) for t in pooled] == [
        (t.template.predicate_attrs, repr(t.score)) for t in serial
    ]
    _assert_no_child_left()


@pytest.mark.parametrize(
    "n_templates, cores, has_fork, shards",
    [(8, 2, True, 2), (8, 16, True, 8), (1, 4, True, 1), (8, 1, True, 1), (8, 4, False, 1)],
)
def test_shard_count(monkeypatch, n_templates, cores, has_fork, shards):
    monkeypatch.setattr(feataug_module, "_usable_cores", lambda: cores)
    if not has_fork:
        monkeypatch.delattr(os, "fork")
    assert feataug_module._shard_count(n_templates) == shards
