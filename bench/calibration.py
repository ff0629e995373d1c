"""Machine-speed calibration for timings on a shared machine.

On a shared virtual machine the CPU time of a fixed piece of Python work
drifts by up to a third within seconds (steal, a busy sibling thread,
frequency changes).  While a :class:`Gauge` runs, a profiling timer runs a
fixed kernel every ``INTERVAL_S`` of process CPU time.  An operation's time
is its CPU time without those kernel runs, scaled by the kernel's reference
time over the mean kernel time around it: times are reported in reference
seconds, the CPU time the operation takes when the kernel takes its
reference time.  The kernels use no package code, so a change to the
package cannot move them.
"""

from __future__ import annotations

import signal
import time

# Process CPU time between two kernel runs.
INTERVAL_S = 0.01

_MATRIX = []


def fraction_kernel():
    """Fraction 4x4 products, like the package's pose chain.  It tracks the
    operations' speed best (1 to 4% run-to-run spread; the integer kernel
    gave 4 to 12%)."""
    if not _MATRIX:
        # imported here, not at module level: set-up probes import this
        # module before the package, which imports fractions itself
        from fractions import Fraction
        _MATRIX.extend(tuple(Fraction(3 * i + j + 1, 5 + i + 2 * j)
                             for j in range(4)) for i in range(4))
    m = _MATRIX
    for _ in range(2):
        m = [[sum(m[i][k] * _MATRIX[k][j] for k in range(4)) for j in range(4)]
             for i in range(4)]
    total = 0
    for i in range(1500):
        total += i * i % 7
    return m, total


_MODULUS = 10 ** 90 + 7


def integer_kernel():
    """Big- and small-integer arithmetic.  It imports nothing, so set-up
    probes run it while the package is being imported."""
    x, total = 3 ** 300, 0
    for i in range(3000):
        x = (x * 7919 + i) % _MODULUS
        total += i * i % 7
    return x, total


# Kernel CPU times that define a reference second: about their medians on
# the machine the bounds were tuned on (2-vCPU virtual machine, Python
# 3.11.7), run from the timer.
REFERENCE_S = {fraction_kernel: 0.0008, integer_kernel: 0.001}


class Gauge:
    """Kernel samples taken on a CPU-time timer, and the clock without them.

    Use as a context manager around the timed phase.  Time an operation with
    :meth:`work_ns` and note ``len(gauge.samples)`` before and after it;
    :meth:`factor` then turns its time into reference seconds.
    """

    def __init__(self, kernel=fraction_kernel):
        self.kernel = kernel
        self.samples = []
        self.kernel_ns = 0
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._sample()

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.thread_time_ns()
        self.kernel()
        elapsed = time.thread_time_ns() - t0
        self.kernel_ns += elapsed
        self.samples.append(elapsed)
        self._busy = False

    def work_ns(self) -> int:
        """CPU time of this thread without the kernel runs (the thread, not
        the process, clock: with a profiling timer armed, Linux reads the
        process clock only at scheduler-tick resolution)."""
        while True:
            spent = self.kernel_ns
            now = time.thread_time_ns()
            if self.kernel_ns == spent:
                return now - spent

    def factor(self, first: int, last: int) -> float:
        """Reference seconds per CPU second for an operation during which
        samples ``first`` to ``last - 1`` were taken: the reference over the
        mean of those samples and the one on each side."""
        around = self.samples[max(first - 1, 0):last + 1]
        return REFERENCE_S[self.kernel] * 1e9 * len(around) / sum(around)
