"""Host-speed reference for the timing metrics.

On a shared 2-core VM, identical pure-Python work runs up to 2x slower for
stretches of one to twenty seconds, with CPU time slowing as much as wall
time (it is not scheduling, and there is no steal time).  Over ten runs of
30 seconds, raw wall times of one pass spread by 15-35% (IQR/median).  Its
time relative to a fixed calibration routine measured alongside spreads by
3-7%.

So every check is timed in wall seconds and also in *reference seconds*: its
wall time scaled by ``CAL_REF_S / c``, where ``c`` is the mean time of the
calibration probes taken around it.  A reference second is a wall second on
a host where one probe takes ``CAL_REF_S`` (about the fast state of the VM
the benchmark was built on).  Probes run from a ``SIGALRM`` timer every
``PROBE_INTERVAL_S``, inside the measured process itself, so they see the
same core and the same contention; their own time is taken out of the
checks they interrupt.  Raw wall times are kept in the record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

CAL_REF_S = 0.0012
PROBE_INTERVAL_S = 0.1
WINDOW_S = 0.25          # probes this close to a check describe its speed
SETUP_PROBES = 5


def _calibration_work() -> None:
    # the program's own mix: small Fractions and sparse dict updates
    acc: dict[int, Fraction] = {}
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(1, i % 7 + 1) * i
        k = i % 13
        acc[k] = acc.get(k, Fraction(0)) + s


def probe() -> float:
    """Seconds taken by one run of the calibration routine."""
    t0 = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - t0


class Speedometer:
    """Calibration probes on a timer, while the ``with`` block runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        self.durations.append(probe())

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds without probe time, reference seconds) of [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        net = (end - start) - sum(self.durations[lo:hi])
        near = self.durations[bisect.bisect_left(self.starts, start - WINDOW_S):
                              bisect.bisect_right(self.starts, end + WINDOW_S)]
        if not near:
            raise RuntimeError("no calibration probe near a timed check")
        return net, net * statistics.fmean(CAL_REF_S / d for d in near)


def timed_setup(fn):
    """Run ``fn`` between two groups of probes: (result, wall s, reference s)."""
    before = statistics.median(probe() for _ in range(SETUP_PROBES))
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    after = statistics.median(probe() for _ in range(SETUP_PROBES))
    return result, wall, wall * CAL_REF_S / statistics.fmean((before, after))
