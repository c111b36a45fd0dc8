"""Machine-speed sampling during a pass, to report pass times at a reference speed.

The benchmark host is shared. Each vCPU switches between a fast and a
slow state (the same pure-Python loop takes 1.3-1.7x longer) for seconds
to minutes at a time, independently of the other vCPU, so the same pass
can take 50% longer from one minute to the next. While a pass runs,
:class:`Sampler` times a fixed ~2 ms kernel every ``INTERVAL_S`` from a
SIGALRM handler, on the same thread and CPU as the pass. The mean kernel
time over the pass measures the speed the pass ran at, and

    reference seconds = (wall - kernel time) * KERNEL_REF_S / mean kernel time

is the pass's wall time at the speed where the kernel takes
``KERNEL_REF_S``. The kernel mixes the kinds of work hindpo does (a
pure-Python LCS table and a character-trigram count as in
``textmetrics``, numpy log-softmax tables of V = 57 and V = 300 as in
``policy``) and uses no hindpo code, so a change to hindpo does not
move it.

A fresh interpreter's import cannot be sampled from inside: the set-up
time is scaled by :func:`kernel_seconds` read just before and just after
it on the same CPU instead (:func:`bracketed_at_reference`).
"""

from __future__ import annotations

import signal
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
KERNEL_REPEATS = 5
# Mean kernel seconds that define the reference speed: about the mean
# in-pass kernel time on a 2-vCPU Xeon VM at 2.0 GHz, so that reference
# seconds read close to wall seconds there.
KERNEL_REF_S = 0.003

_LCS_A = [i * 7 % 23 for i in range(40)]
_LCS_B = [i * 11 % 23 for i in range(40)]
_TEXT = " ".join("w%d" % (i * 7919 % 997) for i in range(400))
_SMALL = np.linspace(-2.0, 2.0, 57 * 57).reshape(57, 57)
_LARGE = np.linspace(-2.0, 2.0, 300 * 300).reshape(300, 300)
# Work buffers: a 300 x 300 temporary would go through mmap or the heap
# depending on what the process freed before (glibc moves its mmap
# threshold), which makes the kernel's time depend on the workload.
_BUFFERS = {id(t): (np.empty_like(t), np.empty_like(t)) for t in (_SMALL, _LARGE)}


def kernel() -> None:
    prev = [0] * (len(_LCS_B) + 1)
    for x in _LCS_A:
        row = [0]
        for j, y in enumerate(_LCS_B, start=1):
            row.append(prev[j - 1] + 1 if x == y else max(prev[j], row[j - 1]))
        prev = row
    Counter(_TEXT[i : i + 3] for i in range(len(_TEXT) - 2))
    for table in (_SMALL,) * 8 + (_LARGE,):
        shifted, exp = _BUFFERS[id(table)]
        np.subtract(table, table.max(axis=1, keepdims=True), out=shifted)
        np.exp(shifted, out=exp)
        np.subtract(shifted, np.log(exp.sum(axis=1, keepdims=True)), out=exp)


def kernel_seconds() -> float:
    """Median time of KERNEL_REPEATS kernel runs: the machine's speed now."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def bracketed_at_reference(wall: float, before: float, after: float) -> float:
    """``wall`` seconds, taken between two :func:`kernel_seconds` readings,
    at the reference speed."""
    return wall * KERNEL_REF_S * 2 / (before + after)


class Sampler:
    """Context manager that times ``kernel`` every INTERVAL_S of wall time."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference(self, wall: float) -> float:
        """``wall`` seconds of the sampled interval, at the reference speed."""
        if not self.samples:
            return wall
        busy = sum(self.samples)
        return (wall - busy) * KERNEL_REF_S / (busy / len(self.samples))
