"""Scaling of measured times to a reference CPU speed.

The CPU speed of a shared host can change while a benchmark runs: on the
2-vCPU VM of the baseline in ``README.md`` it switched between a fast and
a slow state, up to 2x apart, that lasted from seconds to minutes,
without steal time (wall and CPU time agree). A run's median wall time
then reads the state of the host more than the program.

So every measurement runs a fixed calibration chunk (small FFTs and
Python arithmetic, the mix of the program's own inner loops) alongside
it, and is scaled by ``REFERENCE_CHUNK_S / mean chunk time``. During a
solve, a ``SIGPROF`` timer runs one chunk every ``INTERVAL_S`` of CPU
time, so the chunks sample the host over the whole solve; their time is
subtracted from the solve's wall time. Set-up is followed by
``SETUP_CHUNKS`` chunks back to back.

The chunk binds numpy's FFT functions when this module is imported, so
the tracer, which rebinds ``numpy.fft`` later, does not count its calls.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from numpy.fft import irfft, rfft

#: chunk time the scaled times refer to, near a chunk's time on the
#: baseline VM
REFERENCE_CHUNK_S = 0.3e-3

#: CPU time between chunks during a solve (the chunks add about 1%)
INTERVAL_S = 0.05

#: chunks run back to back after set-up
SETUP_CHUNKS = 40

_X = np.cos(np.arange(256) * 0.1)


def _work(rounds: int):
    y, acc = _X, 0
    for i in range(rounds):
        y = irfft(rfft(y) * 0.5, n=256) + _X
        acc += i * i


def chunk() -> float:
    """Run one calibration chunk; its wall time in seconds.

    A few untimed rounds first bring the chunk's code and data back into
    the caches, so that the time reads the host's speed, not how much of
    the cache the program around it has just used."""
    _work(3)
    start = time.perf_counter()
    _work(20)
    return time.perf_counter() - start


def factor(samples: list[float]) -> float:
    """Scale from this host's speed during ``samples`` to the reference."""
    return REFERENCE_CHUNK_S / statistics.fmean(samples)


def after_setup() -> list[float]:
    return [chunk() for _ in range(SETUP_CHUNKS)]


class Sampler:
    """Runs a chunk every ``INTERVAL_S`` of CPU time while active."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(chunk())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False
