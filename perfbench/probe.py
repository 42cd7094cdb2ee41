"""Host speed probe: scale measured times to a reference host speed.

On a shared virtual machine the same code runs at different speeds from one
few-second phase to the next: on the reference host (2 vCPUs, no visible
steal time) a fixed loop takes between 1x and 1.9x its fastest time, and
the share of slow phases drifts over minutes.  Wall times taken in different
phases are not comparable, so the benchmark runs this fixed probe before and
after each timed stretch of a few seconds: a whole ``feataug-lr`` unit, or
the set-up or one epoch of a ``serve-append`` session.  The probe mixes the kinds of
work the program does: interpreted arithmetic, dictionary building and
sorting of Python objects, and numpy sorts.  Of the probes tried, this mix
tracked the host's phases best on the ``feataug-lr`` workload.

A stretch's *slowdown* is its mean probe time over :data:`REFERENCE_PROBE_S`,
and a scaled time is the wall time divided by the slowdown: what the stretch
would have taken with the host in its fast phase.

The probe runs while the program is idle, and :func:`sample` runs it after a
full garbage collection with the collector off.  Its time therefore does not
grow with what the program keeps alive, and a change to the program does not
move the slowdown.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: The probe's time on the reference host in its fast phase.
REFERENCE_PROBE_S = 0.016

_LOOP_ITERATIONS = 60_000
#: Three rounds of a 10,000-entry dictionary keep the probe's memory near
#: 3 MB, so that it does not set the process's peak resident memory.
_DICT_ROUNDS = 3
_DICT_ENTRIES = 10_000
_SORTS = 4
_VALUES = np.random.default_rng(0).random(20_000)


def probe_once() -> float:
    """Seconds one run of the fixed probe takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP_ITERATIONS):
        total += i * i
    for _ in range(_DICT_ROUNDS):
        entries = {str(i): (i, float(i)) for i in range(_DICT_ENTRIES)}
        sorted(entries.items(), key=lambda item: item[1][1], reverse=True)
    for _ in range(_SORTS):
        np.sort(_VALUES)
    return time.perf_counter() - start


def sample() -> float:
    """The faster of two probe runs: one side of a unit of work."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(probe_once(), probe_once())
    finally:
        if enabled:
            gc.enable()


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference the host ran around a unit."""
    return (before + after) / (2.0 * REFERENCE_PROBE_S)
