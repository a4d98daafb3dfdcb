"""Host times in reference-speed seconds.

On a shared machine the same run can take 5 s or 8 s: neighbours slow the
processor for seconds at a time. Eight identical happy-path runs on a
2-vCPU VM spread by 31% of their median (interquartile range) in wall-clock
time, and by 4-7% once scaled as below. So while a run executes, a
``SIGALRM`` timer interrupts it every ``PERIOD_S`` to time one fixed unit of
reference work (SHA-256, JSON encoding and dict inserts, the operations the
simulator spends its time on). Each stretch of the run between two samples
is scaled by ``REFERENCE_UNIT_S / unit time`` (a rolling median of three
samples), which gives the seconds the run would have taken on the machine
when it runs the unit in ``REFERENCE_UNIT_S``. The samples' own time is left
out. The handler touches no program state; it costs about 2% of a run.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
from time import perf_counter

REFERENCE_UNIT_S = 0.004  # the unit on an unloaded 2-vCPU Xeon VM, Python 3.11
PERIOD_S = 0.2


def unit() -> None:
    h = b"reference"
    registers = {}
    for i in range(800):
        h = hashlib.sha256(h + i.to_bytes(8, "big")).digest()
        registers[h[:8]] = json.dumps({"i": i, "h": h.hex()}, sort_keys=True)


def unit_seconds() -> float:
    start = perf_counter()
    unit()
    return perf_counter() - start


def speed_now(samples: int = 5) -> float:
    """Reference-speed seconds per second, measured right now."""
    return REFERENCE_UNIT_S / statistics.median(unit_seconds() for _ in range(samples))


class Speedometer:
    """Samples the machine's speed while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, unit seconds)
        self._busy = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives while sampling is skipped
            return
        self._busy = True
        try:
            self.samples.append((perf_counter(), unit_seconds()))
        finally:
            self._busy = False

    def reference_seconds(self, begin: float, end: float) -> float:
        """The time from ``begin`` to ``end`` (perf_counter values) in
        reference-speed seconds, without the time spent sampling."""
        if not self.samples:
            return (end - begin) * speed_now()
        times = [d for _, d in self.samples]
        smooth = [statistics.median(times[max(0, i - 1):i + 2]) for i in range(len(times))]
        total = 0.0
        resume = begin  # end of the previous sample
        for (start, took), unit_s in zip(self.samples, smooth):
            lo, hi = max(resume, begin), min(start, end)
            if hi > lo:
                total += (hi - lo) * REFERENCE_UNIT_S / unit_s
            resume = max(resume, start + took)
        if end > resume:
            total += (end - resume) * REFERENCE_UNIT_S / smooth[-1]
        return total
