"""Host-speed normalisation of timed work.

The benchmark runs on shared CPUs whose speed drifts by up to half over
seconds to minutes, as other tenants load the host.  Raw times of the same
code then spread past any useful bound.  So the benchmark keeps measuring
the host's speed with a fixed reference loop, on the same CPU as the timed
work, and scales each timed interval to what it would have taken on a host
where the reference loop takes REF_NOMINAL_S:

    normalised = raw * REF_NOMINAL_S * mean(1 / reference time)

over the reference runs during the interval and just around it.  Over a
long operation this is the integral of the host's relative speed.  A change
that makes the program do more work still shows in full; a host that is
slower for a while does not.

The reference loop is integer arithmetic and a walk of a small fixed tree
of its own: it allocates no container objects, so it never triggers the
garbage collector and does not touch the program's heap.

In the workload's process a Sampler thread runs the loop every PERIOD_S.
It holds the interpreter lock while it runs, so the loop is timed cleanly,
and its runs are subtracted from the operations they interrupted.  Around
set-up probes, which run in child processes, the loop runs just before and
just after each probe instead.

The process is pinned to one CPU (its own affinity only) so that the
reference loop and the timed work share a CPU: the CPUs of the host slow
down independently of each other.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

# About the reference loop's time on the host the benchmark was written on
# (2.0 GHz shared vCPU, Python 3.11).  It only sets the scale of reported
# times; two commits compared on one host share it.
REF_NOMINAL_S = 4.0e-4

# Sampling period of the reference loop, and how far around an interval
# its samples still count for that interval.
PERIOD_S = 0.025
PAD_S = 0.25


class _Node:
    __slots__ = ("value", "left", "right")

    def __init__(self, value, left, right):
        self.value, self.left, self.right = value, left, right


def _tree(depth: int, value: int = 1):
    if depth == 0:
        return None
    return _Node(value % 7, _tree(depth - 1, 2 * value), _tree(depth - 1, 2 * value + 1))


_TREE = _tree(11)  # 2,047 nodes, built once


def _walk(t) -> int:
    if t is None:
        return 0
    return t.value + _walk(t.left) + _walk(t.right)


def _reference_loop() -> int:
    """Integer arithmetic, then a recursive walk of a fixed tree: the first
    part tracks the interpreter's raw speed, the second the cost of the
    calls and pointer chasing that dominate normalization."""
    s = 0
    for i in range(1000):
        s += i * i % 7
    return s + _walk(_TREE)


def reference_s() -> float:
    """The reference loop's time now."""
    t0 = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to seconds at the nominal host speed, from a
    reference run just before and one just after the interval."""
    return REF_NOMINAL_S * (1 / before + 1 / after) / 2


class Sampler:
    """Runs the reference loop every PERIOD_S in a thread of its own, from
    `with` entry to exit; the figures are read after exit."""

    def __init__(self):
        self.starts: list[float] = []
        self.refs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            _reference_loop()
            self.refs.append(time.perf_counter() - t0)
            self.starts.append(t0)

    def busy_s(self, t0: float, t1: float) -> float:
        """Time the reference loop took from the interval [t0, t1]."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.refs[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Factor from raw seconds to seconds at the nominal host speed over
        the interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - PAD_S)
        hi = bisect.bisect_right(self.starts, t1 + PAD_S)
        if lo == hi:  # no sample near: the lock was held long; take the nearest
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.refs))
        refs = self.refs[lo:hi]
        return REF_NOMINAL_S * sum(1 / r for r in refs) / len(refs)


    def normalised(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in seconds at the nominal host speed,
        without the reference runs that interrupted it."""
        return (t1 - t0 - self.busy_s(t0, t1)) * self.scale(t0, t1)


def pin_to_one_cpu() -> None:
    """Pin this process, and the children it starts later, to the lowest
    CPU it may run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
