"""The machine's pace, and times scaled to a fixed reference pace.

On a shared host the speed of plain Python code drifts by up to a factor
of two over phases of a few seconds, and a run's median or mean moves with
whatever share of the run fell in slow phases.  The benchmark therefore
samples the host's current pace with a fixed calibration routine of its
own, interleaved with the operations it times, and scales every measured
duration by

    REF_CALIBRATION_S / (median calibration time around that duration)

so that a slow phase stretches an operation and the calibrations around
it alike and the scaled time stays put.  The routine is the benchmark's
own plain-Python code on a fixed graph; it never calls ``grem_algebra``,
so a change to the program moves the scaled times exactly as it moves the
raw ones, at any host speed.  The routine's work resembles the
evaluator's: build one dict per row, look values up by key, sort by a
tuple key and fill a set.

The routine runs once at a time, between operations, with the caches as
the operation left them; that is what made its time follow the program's.
Bursts of five back-to-back calibrations, the later ones on warm caches,
followed it less well: over three alternating runs each on analytic-9k
(with a 0.25 s window), scaled medians were 98-102 ms with single
calibrations and 110-126 ms with bursts.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

from graphgen import Shape, generate

# The calibration routine's time at the reference pace, roughly its time on
# the 2-core x86-64 host (CPython 3.11) the benchmark was written on.
REF_CALIBRATION_S = 1.0e-3
# Calibrate again once this long has passed since the last calibration.
CADENCE_S = 0.025
# A duration is scaled by the calibrations from this long before it starts
# to this long after it ends.
WINDOW_S = 1.0
# A fixed graph, independent of --seed, so the routine's work never changes.
CALIBRATION_SHAPE = Shape(
    persons=200, software=20, knows=800, created=200, skew=0.5,
    person_names=60, software_names=8,
)


class Pace:
    """Calibration samples taken during a run, and scaling by them."""

    def __init__(self):
        data = generate(CALIBRATION_SHAPE, 0)
        self._names = {vid: props["name"] for vid, _label, props in data.vertices}
        self._adj: dict[str, list[str]] = {}
        for _eid, _label, out_v, in_v, _props in data.edges:
            self._adj.setdefault(out_v, []).append(in_v)
        self.ends: list[float] = []
        self.times: list[float] = []
        self.sample()

    def _routine(self) -> int:
        rows = []
        for a, outs in self._adj.items():
            for b in outs:
                rows.append({"a": a, "b": b, "name": self._names[b]})
        rows.sort(key=lambda r: (r["name"], r["a"]))
        return len({(r["a"], r["name"]) for r in rows})

    def sample(self, count: int = 1) -> None:
        """Run the calibration routine count times, timing each."""
        for _ in range(count):
            start = perf_counter()
            self._routine()
            end = perf_counter()
            self.ends.append(end)
            self.times.append(end - start)

    def tick(self) -> None:
        """Calibrate if CADENCE_S has passed since the last calibration."""
        if perf_counter() - self.ends[-1] >= CADENCE_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_CALIBRATION_S over the median time of the calibrations that
        ended within WINDOW_S of [start, end].  The callers let at most
        CADENCE_S pass between a calibration's end and the start of a
        duration they scale, so there is always one."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        return REF_CALIBRATION_S / statistics.median(self.times[lo:hi])

    def scaled(self, start: float, elapsed: float) -> float:
        """elapsed, measured from start, at the reference pace."""
        return elapsed * self.factor(start, start + elapsed)

    def median_ms(self) -> float:
        return statistics.median(self.times) * 1e3
