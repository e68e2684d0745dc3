"""Host-speed sampling, to express a worker's times in reference-host seconds.

The benchmark host's effective speed switches between states about 1.8x
apart, each lasting from a second to a minute, and it slows one vCPU at a
time.  A :class:`HostSpeed` sampler therefore runs inside the worker, on the
solve's own thread: every ``PERIOD_S`` of wall time a ``SIGALRM`` handler
times a fixed probe, a pure-Python loop plus small numpy operations, the
solver's own mix of work.  Each slice of wall time between two probes is
scaled by ``PROBE_REF_S`` over the probe that ends it, and the probe's own
time is left out.  The sum is the time the same work would take on the
reference host: a 2.0 GHz Xeon vCPU in its fast state.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
PROBE_REF_S = 1.0e-3  # the probe's time on the reference host


class HostSpeed:
    """Samples the probe's time every ``PERIOD_S`` until stopped."""

    def __init__(self, seed):
        self.vectors = list(np.random.default_rng(seed).standard_normal((5, 4)))
        self.samples = []  # (end time, probe seconds), in perf_counter time

    def probe(self, *_):
        start = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(3000):
            acc += i * 0.5
            table[i & 63] = acc
        for _ in range(50):
            for v in self.vectors:
                acc += float(np.dot(v, v)) + float((v * 2.0).sum())
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_s(self, start, end):
        """Seconds at the reference speed for the work done in ``[start, end]``."""
        inside = [(t, k) for t, k in self.samples if start < t <= end]
        if not inside:  # shorter than a period: the latest probe before it
            _, k = max((s for s in self.samples if s[0] <= end), default=self.samples[0])
            return PROBE_REF_S * (end - start) / k
        total, prev = 0.0, start
        for t, k in inside:
            total += max(t - k - prev, 0.0) / k
            prev = t
        total += (end - prev) / inside[-1][1]
        return PROBE_REF_S * total

    def probes_until(self, end):
        """Probe times of the samples taken up to ``end`` (at least one)."""
        return [k for t, k in self.samples if t <= end] or [self.samples[0][1]]


def scale_setup(raw_s, probes):
    """A set-up time measured from outside the worker, in reference-host seconds.

    ``probes`` are the probe times taken during set-up; their own time is
    left out.
    """
    return (raw_s - sum(probes)) * PROBE_REF_S / statistics.median(probes)
