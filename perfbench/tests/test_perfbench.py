"""Tests of the benchmark's own machinery: tracing, inputs, statistics."""

from __future__ import annotations

import gc
import sys
import threading
import time

import numpy as np
import pytest

from perfbench import layers, probe, workloads
from perfbench.compare import verdict
from perfbench.run import end_to_end, load_spec, result_line
from perfbench.stats import percentile
from perfbench.tracing import Tracer
from perfbench.workloads import (
    DATASET_SEEDS,
    PipelineWorkload,
    ServeWorkload,
    load_references,
    pipeline_dataset_seeds,
    same_table,
    serve_inputs,
    serve_queries,
)
from repro import load_dataset
from repro.dataframe import Table


class Inner:
    def work(self, seconds):
        time.sleep(seconds)


class Outer:
    def __init__(self):
        self.inner = Inner()

    def work(self, seconds):
        time.sleep(seconds)
        self.inner.work(seconds)

    def again(self, seconds):
        time.sleep(seconds)

    def reenter(self, seconds):
        self.again(seconds)


class SubOuter(Outer):
    pass


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_nested_spans_book_self_time_once():
    tracer = Tracer()
    with tracer.installed(
        lambda t: t.time_methods([(Outer, "work", "outer.work"), (Inner, "work", "inner.work")])
    ):
        Outer().work(0.02)
    outer, inner = tracer.totals["outer.work"], tracer.totals["inner.work"]
    assert outer.calls == inner.calls == 1
    assert inner.self_s == pytest.approx(inner.inclusive_s)
    assert outer.self_s == pytest.approx(outer.inclusive_s - inner.inclusive_s)
    # Self times add up to the outermost span's wall time, never more.
    assert tracer.covered_seconds() == pytest.approx(outer.inclusive_s, abs=1e-9)
    assert outer.self_s >= 0.02 and inner.self_s >= 0.02


def test_reentrant_call_into_the_same_layer_is_part_of_the_outer_span():
    tracer = Tracer()
    with tracer.installed(
        lambda t: t.time_methods(
            [(Outer, "reenter", "layer.reenter"), (Outer, "again", "layer.again")]
        )
    ):
        Outer().reenter(0.01)
        Outer().again(0.01)
    assert tracer.calls("layer.reenter") == 1
    assert tracer.calls("layer.again") == 1  # only the direct call
    assert len(tracer.spans) == 2


def test_uninstall_restores_defined_and_inherited_attributes():
    defined = Outer.__dict__["work"]
    tracer = Tracer()
    with tracer.installed(
        lambda t: t.time_methods([(Outer, "work", "a.work"), (SubOuter, "again", "a.again")])
    ):
        assert Outer.__dict__["work"] is not defined
        assert "again" in SubOuter.__dict__
    assert Outer.__dict__["work"] is defined
    assert "again" not in SubOuter.__dict__


def test_layer_wrappers_are_removed_after_a_traced_block():
    targets = layers.timing_targets()
    before = {(cls, attr): cls.__dict__[attr] for cls, attr, _ in targets}
    from repro.query import QueryEngine, service

    init, future = QueryEngine.__dict__["__init__"], service.Future
    tracer = Tracer()
    with tracer.installed(lambda t: layers.install(t, [], [])):
        assert all(cls.__dict__[attr] is not before[(cls, attr)] for cls, attr, _ in targets)
    assert all(cls.__dict__[attr] is before[(cls, attr)] for cls, attr, _ in targets)
    assert QueryEngine.__dict__["__init__"] is init and service.Future is future


def test_threads_keep_their_own_stacks_under_contention():
    tracer = Tracer()
    threads, calls = 4, 200
    start = threading.Barrier(threads)

    def hammer():
        start.wait(timeout=10)
        for _ in range(calls):
            Outer().work(0)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.installed(
            lambda t: t.time_methods(
                [(Outer, "work", "outer.work"), (Inner, "work", "inner.work")]
            )
        ):
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(old)
    assert tracer.calls("outer.work") == tracer.calls("inner.work") == threads * calls
    outer = tracer.totals["outer.work"]
    assert tracer.covered_seconds() == pytest.approx(outer.inclusive_s, rel=1e-9)
    parents = {span[0]: span for span in tracer.spans}
    for span_id, parent_id, thread, name, _, _ in tracer.spans:
        if name == "inner.work":
            assert parents[parent_id][2] == thread  # a child never crosses threads


# ----------------------------------------------------------------------
# Inputs made from the seed
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def student():
    return load_dataset("student", scale=0.1, seed=0)


def _inputs(student, seed, session=0):
    queries = serve_queries(seed, student.relevant, student.agg_attrs, student.keys)
    ids = student.train.column("session_id").values
    return queries, serve_inputs(seed, session, len(queries), student.relevant, ids)


def _fingerprint(queries, inputs):
    requests = [
        (r.query_ids, tuple(r.entities.column("session_id").values))
        for epoch in inputs.requests
        for caller in epoch
        for r in caller
    ]
    appends = [
        tuple(tuple(map(str, t.column(n).values)) for n in t.column_names) for t in inputs.appends
    ]
    return [q.to_sql() for q in queries], requests, appends, inputs.checks


def test_same_seed_gives_identical_inputs(student):
    first = _fingerprint(*_inputs(student, 3))
    second = _fingerprint(*_inputs(student, 3))
    assert first == second
    assert pipeline_dataset_seeds(3) == pipeline_dataset_seeds(3)


def test_other_seed_gives_other_inputs(student):
    queries, requests, appends, checks = _fingerprint(*_inputs(student, 3))
    other = _fingerprint(*_inputs(student, 4))
    assert queries != other[0]
    assert requests != other[1]
    assert appends != other[2]
    assert _fingerprint(*_inputs(student, 3, session=1))[1] != requests
    assert pipeline_dataset_seeds(3) != pipeline_dataset_seeds(4)


def test_inputs_have_the_configured_shape(student):
    queries, inputs = _inputs(student, 0)
    assert len(queries) == 400
    assert len({q.to_sql() for q in queries}) > 128  # more than the result cache holds
    request = inputs.requests[0][0][0]
    assert len(request.query_ids) == 8 and request.entities.num_rows == 64
    assert inputs.appends[0].num_rows == round(0.01 * student.relevant.num_rows)
    assert inputs.appends[0].schema() == student.relevant.schema()


def test_every_dataset_seed_has_a_reference_score():
    assert sorted(load_references()) == sorted(DATASET_SEEDS)
    assert sorted(pipeline_dataset_seeds(0)) == sorted(DATASET_SEEDS)


def test_same_table_is_bitwise_and_nan_aware():
    a = Table.from_dict({"k": ["x", "y"], "f": [1.0, np.nan]})
    assert same_table(a, Table.from_dict({"k": ["x", "y"], "f": [1.0, np.nan]}))
    assert not same_table(a, Table.from_dict({"k": ["x", "y"], "f": [1.0, 0.0]}))
    assert not same_table(a, Table.from_dict({"k": ["x", "z"], "f": [1.0, np.nan]}))
    positive = Table.from_dict({"k": ["x"], "f": [0.0]})
    assert not same_table(positive, Table.from_dict({"k": ["x"], "f": [-0.0]}))


# ----------------------------------------------------------------------
# Failures and the probe
# ----------------------------------------------------------------------
def _broken(*args, **kwargs):
    raise RuntimeError("broken on purpose")


@pytest.mark.parametrize(
    "workload, target",
    [(PipelineWorkload, "load_dataset"), (ServeWorkload, "_Session")],
)
def test_a_run_whose_units_all_fail_still_reports(monkeypatch, workload, target):
    monkeypatch.setattr(workloads, target, _broken)
    outcome = workload().run(seed=0, seconds=0.05, traced=False)
    assert not outcome.units and outcome.failed >= 1
    result = result_line(outcome, end_to_end(outcome, 1.0), load_spec(), traced=False)
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert result["metrics"]["peak_rss_mb"]["value"] == 1.0


def test_probe_runs_with_the_collector_off_and_restores_it(monkeypatch):
    seen = []
    monkeypatch.setattr(probe, "probe_once", lambda: seen.append(gc.isenabled()) or 0.01)
    assert probe.sample() == 0.01
    assert gc.isenabled()
    gc.disable()
    try:
        probe.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False] * 4


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, q, reported",
    [(1000, 99, True), (999, 99, False), (20, 50, True), (19, 50, False), (0, 50, False)],
)
def test_percentile_needs_ten_samples_beyond_it(n, q, reported):
    value = percentile(list(range(n)), q)
    assert (value is not None) == reported
    if reported:
        assert sum(1 for x in range(n) if x > value) >= 10


def test_verdicts_against_the_bound():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(base, [12.0, 12.1, 11.9, 12.0, 12.05], "lower", 0.1)[1] == "worse"
    assert verdict(base, [8.0, 8.1, 7.9, 8.0, 8.05], "lower", 0.1)[1] == "better"
    assert verdict(base, [10.2, 10.3, 10.1, 10.2, 10.25], "lower", 0.1)[1] == "ok"
    assert verdict(base, [9.0, 12.0, 10.0, 11.0, 13.0], "lower", 0.1)[1] == "unresolved"
    assert verdict(base, [8.0, 8.1, 7.9, 8.0, 8.05], "higher", 0.1)[1] == "worse"
    assert verdict([0.0, 0.0], [0.0, 0.0], "lower", None) == (0.0, "-")
