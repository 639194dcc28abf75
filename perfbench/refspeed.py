"""Host-speed reference for the timed runs.

The host the benchmark was tuned on (2 vCPUs) switches between a fast and a
slow state, up to 2x apart, in episodes of tens of seconds: longer than a
run's passes are apart, so taking a query's least time over the passes
cannot remove it.  The timed runs therefore measure this fixed task next to
the queries and scale every time by ``NOMINAL_NS / task time``: a scaled
time reads as it would on a host where the task takes ``NOMINAL_NS``.

The task is the benchmark's own polynomial arithmetic (``polycheck.mul``
and ``polycheck.int_div`` on dicts of Python ints, the kind of work the
library's inner loops do), so it slows with the host as the queries do,
and it never calls semifactor, so no change to the library moves it.
"""
from __future__ import annotations

import random
import time

import polycheck as pc

# About the task's time on the tuning host in its fast state.
NOMINAL_NS = 5_000_000

_rng = random.Random(0)
_POLYS = [pc.from_dense([_rng.randint(0, 5) for _ in range(12)]) for _ in range(12)]


def task_ns() -> int:
    """Time of one run of the reference task."""
    t = time.perf_counter_ns()
    for f in _POLYS:
        for g in _POLYS:
            if pc.int_div(pc.mul(f, g), g) != f:
                raise AssertionError("reference task computed a wrong quotient")
    return time.perf_counter_ns() - t
