"""A gauge of how fast the host runs, sampled all through a run.

The benchmark's host is a share of a machine whose speed for one Python
process changes by up to 2x within a second as other tenants' load comes
and goes; process CPU time slows just as wall time does, so no plain time is
steady.  The gauge runs a fixed unit of work that imports nothing from
cayley8 and has the character of its kernels (a sparse polynomial product
with ``Fraction`` coefficients over tuple-keyed dicts) from a ``SIGALRM``
handler every :data:`INTERVAL_S` seconds, in the benchmark's one thread.
Each sample interrupts whatever runs at that moment, so the samples follow
the host's speed through every op, also through one that lasts seconds.

An op's time is scaled by :data:`UNIT_S` over the mean unit time sampled
during the op and :data:`PAD_S` around it: the result is the op's time at
the speed at which a unit takes :data:`UNIT_S`, which is about this host's
speed when nothing else runs beside it.  A change to cayley8 moves a scaled
time as it moves wall time; a change in the host's speed moves it far less.
Time spent in the handler is taken out of every time the benchmark reports.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

#: Seconds one unit takes on a 2-vCPU x86-64 VM with Python 3.11.7 when the
#: VM runs at its full speed (10th percentile of its unit times over 60 s).
UNIT_S = 0.0022

#: Wall seconds between two samples.
INTERVAL_S = 0.025

#: Samples this long before and after an op count for its scale too.
PAD_S = 0.05


def _polynomial(rng: random.Random, terms: int) -> dict[tuple, Fraction]:
    poly = {}
    for _ in range(terms):
        exp = [0] * 8
        for _ in range(rng.randint(0, 3)):
            exp[rng.randrange(8)] += 1
        poly[tuple(exp)] = Fraction(rng.randint(1, 99) * rng.choice((-1, 1)), rng.randint(1, 9))
    return poly


def _product(a: dict, b: dict) -> dict:
    out: dict[tuple, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


_rng = random.Random(8)
_A, _B = _polynomial(_rng, 12), _polynomial(_rng, 12)


def unit() -> int:
    """One unit of reference work: four truncated sparse products."""
    acc = _A
    for _ in range(4):
        acc = dict(sorted(_product(acc, _B).items())[:12])
    return len(acc)


class Gauge:
    """Samples unit times while entered; scales op times afterwards."""

    def __init__(self):
        self.ends: list[float] = []  # perf_counter() at the end of each sample
        self.units: list[float] = []  # seconds each sample took
        self.spent = 0.0  # seconds spent in samples so far
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a late signal during a sample: skip it
            return
        self._busy = True
        start = perf_counter()
        unit()
        end = perf_counter()
        self.ends.append(end)
        self.units.append(end - start)
        self.spent += end - start
        self._busy = False

    def __enter__(self):
        unit()  # warm up before the first sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def own(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` (``perf_counter()`` readings)
        less the samples taken in between."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        return end - start - sum(self.units[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor for the time of what ran from ``start`` to ``end``.

        Call once sampling has gone on for :data:`PAD_S` after ``end``.
        """
        lo = bisect.bisect_left(self.ends, start - PAD_S)
        hi = bisect.bisect_right(self.ends, end + PAD_S)
        units = self.units[lo:hi] or self.units[max(0, lo - 1) : lo + 1]
        return UNIT_S / statistics.fmean(units)

    def scaled(self, start: float, end: float) -> float:
        """:meth:`own` seconds from ``start`` to ``end``, scaled."""
        return self.own(start, end) * self.scale(start, end)
