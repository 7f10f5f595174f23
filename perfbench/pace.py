"""The host's speed, read from a fixed reference loop run between calls.

On a shared virtual machine the host slows the virtual CPU by up to about
1.7 times, in spells of seconds to many minutes, and the guest cannot see
it: process CPU time grows with wall time.  A run that falls in a slow
spell reads slow in every figure, so no statistic over one run's calls
removes it.  The benchmark therefore runs a short reference loop, code of
its own that never changes with the program, every ``INTERVAL_S`` seconds
between calls and after every longer call, and reports call times in
reference seconds:

    seconds x REF_S / (time of the reference loop around the call)

``REF_S`` is what the loop took at the host's full speed on the machine the
benchmark was written on (2 vCPUs of an Intel Xeon, one BLAS thread), so a
figure reads as seconds at that speed.  The raw times are kept beside the
adjusted ones.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

REF_S = 0.0045
INTERVAL_S = 0.5
REPEATS = 6
# a single sample reads the host over 30 ms and varies by about 20% from
# the next; samples within 3 s of a call average that out while still
# following spells of seconds
WINDOW_S = 3.0

_MATRIX = np.random.default_rng(0).random((128, 128))
_VECTOR = np.linspace(0.0, 1.0, 40000)


def reference_loop():
    """A fixed mix of interpreter work and small numpy and BLAS calls."""
    table = {}
    for i in range(20000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    m = _MATRIX
    for _ in range(8):
        m = m @ _MATRIX
        m /= m.max()
    np.exp(-_VECTOR).sum()
    np.sort(_VECTOR[::-1])


class Pace:
    """Samples of the reference loop's time, and the host speed they imply."""

    def __init__(self):
        self.samples = []        # (perf_counter at the end, mean loop seconds)
        self.spent = 0.0         # seconds spent in the loop

    def sample(self, repeats=REPEATS):
        start = perf_counter()
        times = []
        for _ in range(repeats):
            t = perf_counter()
            reference_loop()
            times.append(perf_counter() - t)
        now = perf_counter()
        self.samples.append((now, sum(times) / len(times)))
        self.spent += now - start

    def before_call(self):
        if not self.samples or perf_counter() - self.samples[-1][0] > INTERVAL_S:
            self.sample()

    def after_call(self, seconds):
        if seconds > INTERVAL_S:
            self.sample()

    def scale(self, start, end):
        """REF_S over the loop's mean time in the samples from WINDOW_S
        before ``start`` to WINDOW_S after ``end``; a figure times this is in
        reference seconds.  The sample a call starts with is always in the
        window, since ``before_call`` leaves none older than INTERVAL_S."""
        ends = [t for t, _ in self.samples]
        inside = self.samples[bisect.bisect_left(ends, start - WINDOW_S):
                              bisect.bisect_right(ends, end + WINDOW_S)]
        return REF_S * len(inside) / sum(v for _, v in inside)
