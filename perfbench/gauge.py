"""Host-speed gauge: a fixed reference task timed between jobs.

On a shared host the same code runs up to 40 % slower for minutes at a time,
while other tenants load the machine.  Averaging over a run cannot remove
that: a slow spell often covers a whole run.  The worker therefore times a fixed
reference task, which does not use halfpoisson, between jobs throughout the
timed passes.  ``run.py`` scales every job time of the run by
``REFERENCE_S / mean(reference times)``: job times are reported in seconds
of a host on which the reference task takes ``REFERENCE_S``.  A change to
the program moves the job times and not the reference, so it shows in full.

The task mixes what halfpoisson spends its time on: FFTs along 2048 normal
nodes, small dense solves called from a Python loop, one symmetric
eigendecomposition, and plain interpreter work.
"""

from __future__ import annotations

import time

import numpy as np

# reference-task seconds of the nominal host: about its mean on a quiet
# 2-CPU x86-64 host with NumPy 2.4 and scipy-openblas 0.3.31
REFERENCE_S = 0.025
# least time between two reference samples
INTERVAL_S = 0.5

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((8, 2048)) + 1j * _rng.standard_normal((8, 2048))
_DAMP = np.exp(-1e-3 * np.arange(2048))
_M = _rng.standard_normal((24, 24)) + 24.0 * np.eye(24)
_V = _rng.standard_normal(24)
_H = _rng.standard_normal((96, 96))
_H = _H + _H.T


def _round() -> float:
    z = np.fft.ifft(np.fft.fft(_A, axis=1) * _DAMP, axis=1)
    acc = float(np.abs(z).sum())
    for k in range(200):
        acc += float(np.linalg.solve(_M + 1e-3 * k * np.eye(24), _V)[0])
    acc += float(np.linalg.eigvalsh(_H)[-1])
    s = 0
    for i in range(20000):
        s += i * i
    return acc + s


def reference_seconds() -> float:
    """Wall seconds of one reference task."""
    t0 = time.perf_counter()
    for _ in range(4):
        _round()
    return time.perf_counter() - t0


class Gauge:
    """Reference samples taken at most every ``INTERVAL_S`` seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -float("inf")

    def tick(self) -> None:
        """Take a sample if ``INTERVAL_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(reference_seconds())
            self._last = time.perf_counter()
