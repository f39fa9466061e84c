"""Pace scaling: timings taken on a machine whose speed drifts, brought to
one reference speed.

On a shared machine the speed of identical code drifts by tens of percent,
switching between fast and slow states within seconds and shifting its mix
over minutes. glgat's phases move in step with ``pace_task`` (correlation
0.95-0.98 over 3-second bins on the reference machine), a fixed task that
runs no glgat code. ``Pace.factor`` scales a measurement by the reference
time over the mean of the probes taken just before, during and just after
it, which removes the machine's drift and keeps glgat's own changes.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from time import perf_counter

import numpy as np

# Typical times of pace_task's two parts, with warm caches, on the machine
# the benchmark was defined on: a 2-vCPU Xeon VM with Python 3.11.7, numpy
# 2.4.6 and OpenBLAS 0.3.31.
REFERENCE_S = {"python": 1.6e-3, "numpy": 1.6e-3}
_MATRIX = np.random.default_rng(0).random((64, 64))
_LIST = _MATRIX.ravel().tolist()
_STREAM = np.ones((2, 1 << 19))  # 8 MB, beyond the CPU caches
LONG_PHASE_S = 1.0  # phases longer than this close with spread-out probes
SETTLE_PROBES = 6
SETTLE_S = 0.6
MIN_WINDOW = 5  # a factor averages at least this many of the latest probes


def pace_task() -> dict[str, float]:
    """Seconds taken by two kinds of fixed work that run no glgat code.

    "python" is the pure-Python JSON encoder, as checkpoints and CSV parsing
    are interpreter-bound; "numpy" is small elementwise ops, a 64x64 matmul
    and an 8 MB memory stream, as glgat's forwards are.
    """
    t0 = perf_counter()
    json.dump(_LIST[:1024], io.StringIO())
    t1 = perf_counter()
    a = _MATRIX
    for _ in range(20):
        a = np.tanh(a * 0.5 + 0.25) @ _MATRIX * 0.01
    np.add(_STREAM[0], 1.0, out=_STREAM[1])
    np.add(_STREAM[1], 1.0, out=_STREAM[0])
    return {"python": t1 - t0, "numpy": perf_counter() - t1}


class Pace:
    """The machine's speed around each measurement, from ``pace_task`` probes.

    After a long phase the closing probes are spread over ``SETTLE_S``, so
    that they sample more than one state. A disabled Pace probes nothing and
    scales by 1.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.probes: list[dict[str, float]] = []
        self._window: list[dict[str, float]] = []
        self._probing = 0.0
        self._since = perf_counter()
        if enabled:
            self._window.append(self._probe())

    def _probe(self) -> dict[str, float]:
        pace_task()  # refill the caches glgat's work evicted; time the second run
        times = pace_task()
        self.probes.append(times)
        return times

    def during(self, fn, every: int):
        """``fn``, probing after every ``every`` calls; see ``probing_s``."""
        if not self.enabled:
            return fn
        calls = 0

        def probed(*args, **kwargs):
            nonlocal calls
            result = fn(*args, **kwargs)
            calls += 1
            if calls % every == 0:
                t0 = perf_counter()
                self._window.append(self._probe())
                self._probing += perf_counter() - t0
            return result

        return probed

    def probing_s(self) -> float:
        """Seconds spent probing inside ``during`` since the last call."""
        spent, self._probing = self._probing, 0.0
        return spent

    def factor(self, kind: str = "numpy") -> float:
        """Reference time over the mean ``kind`` probe since the last call,
        probing once more now, or ``SETTLE_PROBES`` times if the phase was
        long. Short phases also average the probes just before them, up to
        ``MIN_WINDOW`` in all."""
        if not self.enabled:
            return 1.0
        closing = [self._probe()]
        if perf_counter() - self._since > LONG_PHASE_S:
            for _ in range(SETTLE_PROBES - 1):
                time.sleep(SETTLE_S / SETTLE_PROBES)
                closing.append(self._probe())
        window, self._window = self._window + closing, closing
        if len(window) < MIN_WINDOW:
            window = self.probes[-MIN_WINDOW:]
        self._since = perf_counter()
        return REFERENCE_S[kind] / statistics.fmean(p[kind] for p in window)
