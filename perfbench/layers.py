"""Where the trace cuts the program into layers.

Span names are ``<layer>.<operation>``.  The targets are public methods of
the program's exported classes, found by walking each package's
``__all__``, so an estimator, optimiser or proxy added later is timed
without a change here.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from perfbench.tracing import Tracer

#: ``(package, base class name, {method: span name})``.
_CLASS_FAMILIES = (
    (
        "repro.hpo",
        "Optimizer",
        {
            "suggest": "hpo.suggest",
            "suggest_batch": "hpo.suggest",
            "observe": "hpo.observe",
            "observe_batch": "hpo.observe",
            "warm_start": "hpo.observe",
        },
    ),
    (
        "repro.ml",
        "BaseEstimator",
        {"fit": "ml.fit", "predict": "ml.predict", "predict_proba": "ml.predict"},
    ),
    ("repro.core", "Proxy", {"score": "core.proxy"}),
)


def _family_targets(package: str, base_name: str, methods: dict) -> List[Tuple[type, str, str]]:
    module = __import__(package, fromlist=["__all__"])
    base = getattr(module, base_name)
    targets = []
    for name in module.__all__:
        cls = getattr(module, name)
        if not (isinstance(cls, type) and issubclass(cls, base)):
            continue
        for method, span in methods.items():
            # Only methods the class defines itself: an inherited one is
            # timed where it is defined.
            if method in cls.__dict__:
                targets.append((cls, method, span))
    return targets


def timing_targets() -> List[Tuple[type, str, str]]:
    """Every ``(class, method, span name)`` a traced run times."""
    from repro.dataframe import Table
    from repro.query import QueryEngine

    targets: List[Tuple[type, str, str]] = []
    for family in _CLASS_FAMILIES:
        targets.extend(_family_targets(*family))
    for method in ("execute", "execute_plan", "execute_batch", "execute_plans"):
        targets.append((QueryEngine, method, "query.execute"))
    # The service's only call into the engine: one per dispatched round.
    targets.append((QueryEngine, "execute_plans_deduped", "service.round"))
    targets.append((Table, "left_join", "dataframe.join"))
    targets.append((Table, "append_rows", "dataframe.append"))
    return targets


def install(tracer: Tracer, engines: List[object], waits: List[float]) -> None:
    """Install the timing wrappers and two observers: every ``QueryEngine``
    created is appended to *engines*, and the queue wait of every
    ``QueryService`` request is appended to *waits*, in seconds."""
    from repro.query import QueryEngine, service

    tracer.time_methods(timing_targets())
    tracer.replace(QueryEngine, "__init__", lambda init: _recording_init(init, engines))
    tracer.replace(service, "Future", lambda future: _waiting_future(future, waits))


def _recording_init(init: Callable, engines: List[object]) -> Callable:
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    return __init__


def _waiting_future(future: type, waits: List[float]) -> type:
    """A future class that books its request's queue wait.

    ``QueryService.submit`` creates one future per admitted request, and the
    dispatcher marks it running when the request's round starts: the time
    between the two is the request's queue wait.
    """

    class WaitingFuture(future):
        def __init__(self):
            super().__init__()
            self._admitted = time.perf_counter()

        def set_running_or_notify_cancel(self):
            waits.append(time.perf_counter() - self._admitted)
            return super().set_running_or_notify_cancel()

    return WaitingFuture
