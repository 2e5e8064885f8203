"""How fast the machine runs right now, for reporting timings at a fixed speed.

The machines this benchmark runs on are shared: over a run, the same
single-threaded work takes anywhere from 1x to 2x its quiet-machine time,
in episodes that last seconds (measured on a 2-core VM).  A fixed
reference kernel, :func:`probe`, is run every :data:`EVERY_S` during a
run; its duration follows those episodes closely.  Each timing ``t`` measured
at time ``T`` is reported as ``t * REFERENCE_S / r(T)``, where ``r(T)``
is the median probe duration within :data:`WINDOW_S` of ``T``: the time
the work would have taken on a machine where the probe takes
:data:`REFERENCE_S`.  The raw wall-clock values are reported beside the
scaled ones.

The probe never calls the code under test.  Where it runs beside the
program rather than between its calls, it does not share a CPU with it:
under :func:`isolation` the benchmark's own thread runs on one CPU and
every process of the program on the others, so work the program adds on
other threads or processes cannot slow the probe.  Probes taken on the
benchmark's thread while a child process sets up give ``setup_s`` its
speed (:func:`scaled_span`); the load generator of ``serve-remote``
takes its probes there too.  The in-process workloads take theirs
between batch calls, on the measuring thread.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

#: The probe's duration on the quiet 2-core machine the bounds were set
#: on; a scaled timing equals wall-clock time when the probe takes this.
REFERENCE_S = 3.4e-4
#: Minimum gap between two probes (about 2% of a run goes to probing).
EVERY_S = 0.02
#: Half-width of the window whose probes give a timing's local speed.
#: Of 0.1 to 2 s, the narrowest gave the steadiest results.
WINDOW_S = 0.1

@contextlib.contextmanager
def isolation() -> Iterator[Optional[Callable[[], None]]]:
    """Keep the calling thread and the program on disjoint CPUs.

    Pins the calling thread to the first CPU it may use and restores its
    CPUs on exit.  Yields the ``preexec_fn`` that starts a program
    process on the other CPUs, or ``None`` when there is only one CPU
    (nothing is pinned then).
    """
    before = os.sched_getaffinity(0)
    cpus = sorted(before)
    if len(cpus) < 2:
        yield None
        return
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield functools.partial(os.sched_setaffinity, 0, set(cpus[1:]))
    finally:
        os.sched_setaffinity(0, before)


def probe() -> float:
    """Seconds one run of the reference kernel takes.

    Interpreted integer arithmetic on a few objects: it tracks the
    machine's speed but not what ran before it.  Kernels that touch
    arrays were tried and rejected, because they ran up to 1.3x slower
    right after a workload batch had filled the caches, so they would
    have measured the workload's memory footprint too.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i
    return time.perf_counter() - t0


def scale(
    probe_times: Sequence[float],
    probe_secs: Sequence[float],
    at: Sequence[float],
) -> np.ndarray:
    """``REFERENCE_S / r(T)`` for every time ``T`` in ``at``.

    ``r(T)`` is the median of the probes taken within :data:`WINDOW_S`
    of ``T``, or of the nearest probe when none is that close.
    """
    times = np.asarray(probe_times, dtype=float)
    secs = np.asarray(probe_secs, dtype=float)
    if times.size == 0:
        raise ValueError("no probes were taken")
    order = np.argsort(times)
    times, secs = times[order], secs[order]
    at = np.asarray(at, dtype=float)
    lo = np.searchsorted(times, at - WINDOW_S, side="left")
    hi = np.searchsorted(times, at + WINDOW_S, side="right")
    out = np.empty(at.shape, dtype=float)
    for i, (a, b) in enumerate(zip(lo, hi)):
        if b <= a:
            j = min(int(a), times.size - 1)
            if j > 0 and at[i] - times[j - 1] < abs(times[j] - at[i]):
                j -= 1
            a, b = j, j + 1
        out[i] = REFERENCE_S / float(np.median(secs[a:b]))
    return out


def scaled_span(
    probe_times: Sequence[float],
    probe_secs: Sequence[float],
    t0: float,
    t1: float,
) -> float:
    """The interval ``[t0, t1]`` in seconds at the reference speed: its
    length times the mean of :func:`scale` over it."""
    speed = scale(probe_times, probe_secs, np.linspace(t0, t1, 256))
    return (t1 - t0) * float(np.mean(speed))
