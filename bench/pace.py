"""Pace of the host, probed while the jobs run.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x within seconds with the load of its neighbours: the same flow takes
2.1 s at one moment and 3.7 s a minute later, in CPU time as well as in
wall time, with no steal time reported. A median over a 30 s run cannot
average that out, because a slow phase can last the whole run.

`Sampler` measures the swing where it happens. A SIGALRM timer interrupts
the main thread every INTERVAL_S seconds and times one pass of a fixed
kernel: small numpy calls and Python bookkeeping, the same kind of work as
the workloads, and nothing from idcurv, so a change to the program does
not change the probe's work. The probe still shares cores and caches with
the job; bench/README.md says what that leaves uncorrected.

For a timed window the sampler gives the busy time (the wall time, less the
probes inside the window when they paused the job) and the pace, the mean
CPU time of those probes. `normalized` scales a busy time to a host whose
probe takes REFERENCE_PROBE_S, the probe's time at full speed on the 2-vCPU
Xeon used to build this harness.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_PROBE_S = 1.75e-3
_LOOPS = 100

_RNG = np.random.default_rng(12345)
_FACES = _RNG.integers(0, 64, (128, 3))
_X = 1.0 + _RNG.random(64)


def kernel():
    """The fixed probe work: face-sized numpy calls plus a small dict."""
    acc = 0.0
    for _ in range(_LOOPS):
        a = _X[_FACES]
        b = np.sqrt(a[:, 0] ** 2 + a[:, 1] ** 2 + 2.0 * a[:, 0] * a[:, 1])
        c = np.arccos(np.clip((b * b - a[:, 2]) / (2.0 * b + 1.0), -1.0, 1.0))
        s = np.bincount(_FACES.ravel(), weights=np.repeat(c, 3), minlength=64)
        acc += sum({i: float(s[i]) for i in range(8)}.values())
    return acc


class Sampler:
    """Probe the pace every INTERVAL_S seconds while the context is open.

    Python runs the handler in the main thread between bytecodes, so a probe
    waits for a long numpy or BLAS call to return; it never runs in parallel
    with the job it interrupts. Child processes do not inherit the timer.
    """

    def __init__(self):
        self.starts, self.durations, self.cpu = [], [], []

    def _probe(self, signum, frame):
        t0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        c1, t1 = time.thread_time(), time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.cpu.append(c1 - c0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def window(self, t0, t1, blocking=True):
        """(busy seconds, pace seconds) of the window [t0, t1].

        The pace is the mean CPU time of the probes inside the window; a
        window too short to hold a probe takes the pace of the latest probe
        before it ends. CPU time, not wall time, so that a probe that waits
        for a core held by the job's own worker processes does not read as
        a slow host. With `blocking` the probes ran in the job's own thread
        and their wall time is taken out of the busy time; otherwise the job
        ran in other processes and the busy time is the whole window.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = (t1 - t0) - (sum(self.durations[lo:hi]) if blocking else 0.0)
        if hi > lo:
            return busy, sum(self.cpu[lo:hi]) / (hi - lo)
        if hi:
            return busy, self.cpu[hi - 1]
        return busy, REFERENCE_PROBE_S

    def normalized(self, t0, t1, blocking=True):
        """Busy seconds of [t0, t1] at the reference pace."""
        busy, pace = self.window(t0, t1, blocking)
        return busy * REFERENCE_PROBE_S / pace
