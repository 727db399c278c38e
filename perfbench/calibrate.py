"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same fixed work can take up to twice as long, for seconds or for minutes at
a time, in wall and in CPU time alike, so no run length averages it out.
To keep timings comparable across runs, the benchmark times a short fixed
kernel, a *tick*, while it measures, and scales each measured time by
``REFERENCE_TICK_S`` over the mean tick time seen meanwhile.  A timing then
reads as on a machine where one tick takes ``REFERENCE_TICK_S`` seconds.

During an item, a wall-clock timer runs a tick every ``PERIOD_S`` seconds
from a signal handler, so the ticks sample the machine's speed across the
whole item; their time is taken off the item's time.  A cold set-up runs in
a child process, so it is bracketed instead: ``TICKS_AROUND`` ticks just
before it and just after it.

The kernel is numpy only and never calls normlab, so a change to normlab
moves the scaled timings by as much as it moves the raw ones.  It mixes the
two kinds of work the workloads do: small dense matrix-vector products and
solves in a Python loop (the dual solver), and a fresh generator with a
small QR and a batched SVD (the Monte Carlo lemmas).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_TICK_S = 0.001  # the scale: one tick on the reference machine
PERIOD_S = 0.03           # tick period during an item
TICKS_AROUND = 100        # ticks on each side of a cold set-up

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((32, 32))
_M = _A @ _A.T / 32 + np.eye(32)
_B = _rng.standard_normal((64, 32))
_X0 = _rng.standard_normal(32)
_ROWS = np.arange(96).reshape(24, 4) % 32


def tick() -> float:
    """One round of the fixed kernel; returns a value so it cannot be skipped."""
    x, acc = _X0, 0.0
    for k in range(40):
        y = _M @ x
        x = y / np.linalg.norm(y) + 1e-3 * np.sign(x)
        acc += float(np.abs(x).sum()) + float(np.max(_B @ x))
        if k % 16 == 0:
            x = np.linalg.solve(_M, x)
    f, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((32, 4)))
    return acc + float(np.linalg.svd(f[_ROWS], compute_uv=False)[:, 0].max())


def tick_s(count: int = TICKS_AROUND) -> float:
    """Mean wall time of ``count`` ticks run back to back."""
    t0 = perf_counter()
    for _ in range(count):
        tick()
    return (perf_counter() - t0) / count


class Sampler:
    """Runs a tick every ``PERIOD_S`` of wall time while the block runs.

    Only the main thread may use it (it takes over SIGALRM).  ``samples``
    holds the tick times of the last block.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._busy = False
        self._previous = None
        self._due = PERIOD_S  # carried across blocks, so short blocks see ticks

    def _on_alarm(self, signum, frame):
        if self._busy:  # a late tick; skip rather than nest
            return
        self._busy = True
        t0 = perf_counter()
        tick()
        self.samples.append(perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self._due, PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._due = signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)[0] or PERIOD_S
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scaled(seconds: float, tick_times: list[float]) -> float:
    """``seconds`` at reference speed, given the tick times seen meanwhile."""
    return seconds * REFERENCE_TICK_S / statistics.fmean(tick_times)
