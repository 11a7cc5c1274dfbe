"""Segment timing with machine-speed calibration, and check bookkeeping.

The benchmark shares its machine with other work, which changes its
speed by up to about a third for stretches of seconds.  How much depends
on the kind of code: Python call overhead, cache-resident array work
and memory-bound array work each swing by their own amount.  To keep
runs comparable, a fixed calibration kernel -- a two-component
Gaussian-mixture score in plain numpy, none of it diffint code, timed on
64, 8192 and 50000 points -- runs before a segment whenever the last
calibration is more than ``CAL_EVERY_S`` old, every ``CAL_EVERY_S``
inside a longer untraced segment, and once more when the pass ends.  A
calibration is the geometric mean over the three sizes of the median of
``CAL_RUNS`` timings.  Each segment's wall time, less the calibrations
inside it, is rescaled by ``nominal / k``, where ``k`` is the mean of
the calibrations from the one just before it to the one just after it
and ``nominal`` the calibration on the reference machine
(``calibration_nominal_s`` in spec.json).  Reported times are therefore
seconds at reference machine speed; the raw wall times are kept too.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from diffint.errors import DiffintError

CAL_EVERY_S = 0.5
CAL_RUNS = 3
# (points, repetitions): about half a millisecond or more each
CAL_SIZES = ((64, 20), (8192, 3), (50000, 1))

_CAL_X = [(np.linspace(-3.0, 3.0, n), reps) for n, reps in CAL_SIZES]
_CAL_MEANS = np.array([[-0.5], [0.7]])
_CAL_STDS = np.array([[0.3], [0.4]])
_CAL_LOGW = np.log(np.array([[0.4], [0.6]]))


def _mixture_score(x):
    z = (x[None, :] - _CAL_MEANS) / _CAL_STDS
    logp = _CAL_LOGW - 0.5 * z * z - np.log(_CAL_STDS)
    p = np.exp(logp - logp.max(axis=0))
    return (p * (-z / _CAL_STDS)).sum(axis=0) / p.sum(axis=0)


def _kernel(x, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        _mixture_score(x)
    return time.perf_counter() - start


def machine_speed() -> float:
    """Geometric mean over the kernel sizes of the median kernel time
    right now, after one discarded warm-up run of each."""
    logs = []
    for x, reps in _CAL_X:
        _kernel(x, reps)
        logs.append(math.log(statistics.median(_kernel(x, reps) for _ in range(CAL_RUNS))))
    return math.exp(sum(logs) / len(logs))


@dataclass
class Pass:
    """Segment timings and check outcomes of one pass over a workload."""

    nominal_s: float
    tracer: object = None
    # key -> (wall seconds, items, indices of the first and last calibration
    # from the one just before the segment to the last one inside it)
    segments: dict = field(default_factory=dict)
    calibrations: list = field(default_factory=list)  # kernel seconds, in time order
    calibrated_at: float = float("-inf")
    paused_s: float = 0.0  # time spent calibrating inside segments
    attempted: int = 0
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # per-layer aggregates of a traced pass

    def calibrate(self):
        self.calibrations.append(machine_speed())
        self.calibrated_at = time.perf_counter()

    def _calibrate_inside(self, signum, frame):
        start = time.perf_counter()
        self.calibrate()
        self.paused_s += self.calibrated_at - start

    def timed(self, key: str, items: int, fn, *args, **kwargs):
        """Time one call as a segment; a diffint error is returned, not raised.

        Untraced segments longer than ``CAL_EVERY_S`` are calibrated
        inside too, from a timer signal; the calibration time is taken
        out of the segment's time.  Traced segments are not, so that no
        span holds a calibration.
        """
        if time.perf_counter() - self.calibrated_at > CAL_EVERY_S:
            self.calibrate()
        first, paused = len(self.calibrations) - 1, self.paused_s
        if self.tracer is None:
            signal.signal(signal.SIGALRM, self._calibrate_inside)
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        else:
            self.tracer.item = len(self.segments)
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args, **kwargs)
            else:
                result = self.tracer.call("bench", fn, args, kwargs)
        except DiffintError as exc:
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - start - (self.paused_s - paused)
        self.segments[key] = (wall, items, first, len(self.calibrations) - 1)
        return result

    def check(self, key: str, ok: bool, detail: str):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{key}: {detail}")

    def normalized(self) -> dict:
        """key -> (seconds at reference machine speed, items).

        Needs a calibration after the last segment, see :meth:`calibrate`.
        """
        cal = self.calibrations
        return {
            key: (wall * self.nominal_s / statistics.fmean(cal[first:last + 2]), items)
            for key, (wall, items, first, last) in self.segments.items()
        }

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, *_ in self.segments.values())

    @property
    def seconds(self) -> float:
        return sum(sec for sec, _ in self.normalized().values())
