"""Wall times scaled to a reference host speed.

The machines this benchmark runs on share their cores with other work,
and their speed for pure-Python integer arithmetic swings by about a
quarter within seconds. A short probe of fixed work (Fp2 multiplications
over the BLS12-381 base field, written here so that no change to pmpdas
changes it) is timed between measured operations, and an operation's
wall time is scaled by `REFERENCE_PROBE_S / probe time`. The probe time
is the median of the four probes nearest the operation (two before it,
two after), which follows the host's swings and damps the probes' own
noise. The result reads as the time the operation would take on a host
that runs the probe in exactly `REFERENCE_PROBE_S`. Raw wall times are
kept next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

PROBE_ROUNDS = 4_000
REFERENCE_PROBE_S = 0.010
_P = int("1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F624"
         "1EABFFFEB153FFFFB9FEFFFFFFFFAAAB", 16)


def probe_seconds() -> float:
    a = (_P // 3, _P // 5)
    b = (_P // 7, _P // 11)
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        t0 = a[0] * b[0]
        t1 = a[1] * b[1]
        a = ((t0 - t1) % _P, ((a[0] + a[1]) * (b[0] + b[1]) - t0 - t1) % _P)
    return time.perf_counter() - start


class ScaledClock:
    """Times operations and probes the host between them, at most every
    `interval` seconds. A lap is (raw seconds, index of the probe taken
    before it); `scaled` converts a lap once the next probe exists."""

    def __init__(self, interval: float = 0.0):
        self.interval = interval
        self.probes = []
        self._last = float("-inf")

    def refresh(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= self.interval:
            self.probes.append(probe_seconds())
            self._last = time.perf_counter()

    def timed(self, fn, *args, **kwargs):
        """Probe if one is due, run fn; returns (result, lap)."""
        self.refresh()
        index = len(self.probes) - 1
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, (time.perf_counter() - start, index)

    def scaled(self, lap) -> float:
        """Lap seconds at the reference speed. Call `refresh(force=True)`
        after the last lap so that every lap has a probe after it."""
        raw, index = lap
        nearest = self.probes[max(index - 1, 0):index + 3]
        return raw * REFERENCE_PROBE_S / statistics.median(nearest)
