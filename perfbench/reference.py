"""How fast the machine runs while the timed calls run, sampled from a timer signal.

On a shared host the same code runs at two speeds about a factor of two
apart, switching every few hundred milliseconds, and the share of slow time
drifts for minutes (see NOTES.md). While the timed loop runs, `SpeedProbe`
takes a SIGALRM every INTERVAL_S and, in the handler, times `reference()`, a
fixed piece of pure-Python work of about a millisecond. The handler's time is
taken out of the call it interrupted. Each call's time is then scaled by
REFERENCE_MS over the mean reference time in and around the call: what the
call would have taken on a machine that runs the reference in REFERENCE_MS.

The reference is shaped like raqdp's hot paths (CSV rows parsed to
`Fraction`, a predicate tree walked per row, a frozenset of tuples), so that
it slows down with them, and it imports nothing from raqdp, so that no change
to the program moves it.
"""

from __future__ import annotations

import bisect
import csv
import gc
import io
import signal
import time
from fractions import Fraction

REFERENCE_MS = 1.5  # the nominal machine: about this 2-core VM at its slower speed
INTERVAL_S = 0.05  # one sample every 50 ms of timed calls
WINDOW_S = 0.1  # a call's speed: the samples from this long before it to this long after

_CSV = "".join(f"{i},{('Ann', 'Bob', 'Cy', 'Dee')[i % 4]},{i % 151},{100 + i % 101}\n"
               for i in range(100))
_PREDICATE = ("or", ("le", 2, 3), ("and", ("eq", 1, "Bob"), ("ge", 2, 40)))


def _holds(node, row) -> bool:
    op = node[0]
    if op == "or":
        return _holds(node[1], row) or _holds(node[2], row)
    if op == "and":
        return _holds(node[1], row) and _holds(node[2], row)
    value = row[node[1]]
    if op == "eq":
        return value == node[2]
    if op == "le":
        return value <= row[node[2]]
    return value >= Fraction(node[2])


def reference() -> frozenset:
    rows = [(Fraction(i), name, Fraction(w), Fraction(h))
            for i, name, w, h in csv.reader(io.StringIO(_CSV))]
    return frozenset(row for row in rows if _holds(_PREDICATE, row))


class SpeedProbe:
    """Samples the reference time every INTERVAL_S while in a `with` block."""

    def __init__(self):
        self.times: list[float] = []  # when each sample was taken, in order
        self.samples: list[float] = []  # seconds the reference took
        self.busy_s = 0.0  # all time spent in the handler, to take out of the calls

    def _tick(self, signum=None, frame=None) -> None:
        # The interrupted call's garbage must not be collected inside a sample.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append(end)
        self.samples.append(end - start)
        self.busy_s += time.perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()  # so that every call has a sample near it
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS over the mean sample from WINDOW_S before `start` to
        WINDOW_S after `end`, or over the nearest sample if there is none."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        window = self.samples[lo:hi]
        return REFERENCE_MS / 1000 / (sum(window) / len(window))
