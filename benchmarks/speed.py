"""Host-speed sampling, so that times taken on a shared host can be compared.

The benchmark host shares its cores with other machines: for stretches
from a fraction of a second to minutes it runs the same code about 1.7x
slower, in wall and CPU time alike. A best-of or median over
repetitions cannot remove a slowdown that lasts a whole run, so every
time is also reported at a fixed reference speed.

While a ``SpeedSampler`` is active, a SIGALRM handler runs a fixed
pure-Python kernel every ``PERIOD_S`` seconds and records how long it
took. A time measured over ``[t0, t1]`` is reported as its raw value,
minus the handler's own time in that interval, times ``REF_KERNEL_S``
over the mean kernel time sampled there. At full speed on the reference
host (2 vCPU Xeon, 2.0 GHz) the kernel takes ``REF_KERNEL_S``, so the
normalized time is close to the raw one. Standard library only: it
runs before the timed import of the package.
"""

import bisect
import math
import signal
import time

PERIOD_S = 0.01
REF_KERNEL_S = 40e-6
_MIN_SAMPLES = 5   # a shorter interval borrows the nearest samples around it


def _kernel() -> float:
    t0 = time.perf_counter()
    x = 0.0
    for i in range(300):
        x += math.exp(-i * 1e-5) * 0.5
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the reference kernel on a timer while used as a context manager."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self._handler_cum = [0.0]   # cumulative handler time up to each sample
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        k = _kernel()
        self.starts.append(t0)
        self.kernel_s.append(k)
        self._handler_cum.append(self._handler_cum[-1] + time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def handler_s(self, t0: float, t1: float) -> float:
        """Time the handler itself took inside [t0, t1]."""
        i, j = self._window(t0, t1)
        return self._handler_cum[j] - self._handler_cum[i]

    def factor(self, t0: float, t1: float) -> float:
        """Reference kernel time over the mean kernel time sampled in [t0, t1]."""
        i, j = self._window(t0, t1)
        while j - i < _MIN_SAMPLES and (i > 0 or j < len(self.starts)):
            i, j = max(i - 1, 0), min(j + 1, len(self.starts))
        ks = self.kernel_s[i:j]
        return REF_KERNEL_S * len(ks) / sum(ks)

    def normalize(self, t0: float, t1: float, seconds: float) -> float:
        """``seconds`` spent in [t0, t1], without the handler, at reference speed."""
        return (seconds - self.handler_s(t0, t1)) * self.factor(t0, t1)
