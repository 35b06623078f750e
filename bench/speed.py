"""Machine-speed probe for the benchmark's timings.

A shared CPU (a cloud VM, a CI runner) changes speed with its neighbours'
load.  On a 2-CPU VM a fixed pure-Python loop ran 19 to 27 ms within one
minute, one Workspace build of solv7-u2 took 4.0 to 6.9 s in back-to-back
processes, and the raw wall time of a verify-zoo-rational pass varied by a
third across five runs.  Raw times of one run then say more about the
neighbours than about the program.

The probe times a fixed kernel that does not touch the program but does the
same kinds of work (Fraction arithmetic in numpy object arrays, small float
array calls, a plain Python loop): before and after every operation, and
every INTERVAL seconds during it from a SIGALRM handler.  An operation's
*reference time* is its measured time, less the probes run inside it, scaled
by REFERENCE_PROBE_S over the median probe time around it: the time it would
take on a machine where the kernel takes exactly REFERENCE_PROBE_S.  A change
to the program cannot move the probe, so the scaling removes machine drift
and nothing else.  On the VM above it cut the run-to-run spread of a pass's
wall time from 23-33% to about 5%.  Raw times are reported next to the
reference times.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

INTERVAL = 0.1
REFERENCE_PROBE_S = 0.0015


class SpeedProbe:
    def __init__(self):
        self._frac = np.array(
            [[Fraction(3 * i + j + 1, j + 2) for j in range(5)] for i in range(5)],
            dtype=object,
        )
        self._flt = np.linspace(0.1, 1.0, 125).reshape(5, 5, 5)
        self.samples = []  # probe durations, in order

    def _kernel(self):
        m = self._frac
        m.dot(m).dot(m)
        for _ in range(20):
            np.tensordot(self._flt, self._flt[0], axes=([1], [0]))
            np.abs(self._flt).max()
        total = 0
        for i in range(10000):
            total += i * i
        return total

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, probes) -> float:
        return REFERENCE_PROBE_S / statistics.median(probes)

    def measure(self, fn):
        """Run ``fn()``; return (result, exception, seconds, reference seconds).

        Any exception is returned, not raised: the caller's gate records it
        and the failed operation keeps its time.
        """
        self.sample()
        first = len(self.samples) - 1
        result = error = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            error = exc
        elapsed = time.perf_counter() - t0
        inside = self.samples[first + 1:]  # probes the alarm ran during fn
        self.sample()
        seconds = elapsed - sum(inside)
        return result, error, seconds, seconds * self.factor(self.samples[first:])
