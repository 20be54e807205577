"""Wall-clock timing calibrated against a fixed kernel run between calls.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes as other tenants load the host; thread CPU
time drifts with wall time, so neither is steady. A small fixed kernel,
owned by the benchmark and independent of the package, runs before and
after every timed call. A calibrated time is the call's time divided by
the mean of the two kernel times around it, times ``KERNEL_REF_S``, the
kernel's time on an unloaded machine: seconds on a machine running at the
reference speed. On a 2-vCPU virtual machine this cut the spread
(interquartile range over median) of per-run medians across seeds from
0.14-0.42 for raw times to 0.01-0.10. Raw times are kept alongside for the
printed table.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on an unloaded 2-vCPU Intel Xeon virtual machine
# (Python 3.11, numpy 2.4), the reference speed calibrated times refer to.
KERNEL_REF_S = 3.2e-3

_X0 = np.linspace(0.1, 1.0, 10)
_COUPLING = np.outer(_X0, _X0)
_P = 13
_TABLE = np.zeros((_P, _P, _P))
for _i in range(_P):
    _TABLE[np.arange(_i, _P), _i, np.arange(_P - _i)] = 1.0
_SERIES = np.linspace(0.0, 1.0, 10 * 10 * _P).reshape(10, 10, _P)


def kernel():
    """Work shaped like the package's: small-array numpy calls in a Python
    loop (pairwise angle differences, sines, row sums), then truncated
    series products through an einsum table. Interpreter-bound and
    einsum-bound code slow down by different amounts under load, so the
    kernel holds both."""
    x = _X0.copy()
    for _ in range(200):
        d = x[:, None] - x[None, :]
        x = x + 1e-3 * (_COUPLING * np.sin(d)).sum(axis=1)
    y = _SERIES
    for _ in range(12):
        y = 0.5 * np.einsum("...p,...q,dpq->...d", y, _SERIES, _TABLE)
    return x, y


def _time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Clock:
    """Times calls, each bracketed by kernel runs.

    ``kernel_s`` keeps every kernel time, so a stretch of the run (a traced
    iteration) can be given its own scale with :meth:`scale_since`.
    """

    def __init__(self):
        self.kernel_s = [_time_kernel()]

    def time(self, fn):
        """Run ``fn``; return (result, raw seconds, calibrated seconds).
        An exception from ``fn`` propagates and leaves the clock usable."""
        start = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - start
        before = self.kernel_s[-1]
        self.kernel_s.append(_time_kernel())
        return out, raw, raw * KERNEL_REF_S / (0.5 * (before + self.kernel_s[-1]))

    def mark(self) -> int:
        return len(self.kernel_s)

    def scale_since(self, mark: int) -> float:
        """Calibration factor over the kernel runs since ``mark``."""
        return KERNEL_REF_S / statistics.median(self.kernel_s[max(mark - 1, 0):])
