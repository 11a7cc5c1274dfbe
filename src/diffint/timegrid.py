"""Time discretizations for the sampling integrators.

A grid holds N+1 times t_0 < t_1 < ... < t_N = t_end with t_0 > 0
(the samplers stop short of zero, where the noise scale of the VP
preset vanishes).  Sampling proceeds from index N down to 0.

Schedules:

* ``uniform``    affine in t (power_t with kappa = 1)
* ``quadratic``  linspace(sqrt(t0), sqrt(t_end), N+1)^2 (power_t, kappa = 2)
* ``power_t``    t_i = ((N-i)/N t0^(1/kappa) + (i/N) t_end^(1/kappa))^kappa
* ``power_rho``  the same interpolation applied to rho(t), mapped back
* ``log_rho``    geometric in rho (uniform steps in log rho)

Endpoints are snapped to t0 and t_end exactly after construction.
Grids are immutable value objects; building one is a pure function of
its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .diffusion import DiffusionSpec, rho_of_t, t_of_rho
from .errors import ParameterError

__all__ = [
    "TimeGrid",
    "uniform",
    "quadratic",
    "power_t",
    "power_rho",
    "log_rho",
    "make_grid",
    "SCHEDULE_NAMES",
    "KAPPA_SCHEDULES",
]

SCHEDULE_NAMES = ("uniform", "quadratic", "power_t", "power_rho", "log_rho")
# the schedules that read kappa; the others ignore it
KAPPA_SCHEDULES = ("power_t", "power_rho")


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times t_0 < ... < t_N, with t_0 > 0.

    ``rho`` optionally caches rho(t_i); ``power_rho`` and ``log_rho``
    store the values they were built from.  :meth:`rho_values` returns
    the cache when present and computes rho(t_i) otherwise.
    """

    times: np.ndarray
    rho: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 2:
            raise ParameterError("a grid needs at least two times (N >= 1)")
        if times[0] <= 0:
            raise ParameterError(f"t_0 must be positive, got {times[0]}")
        if not np.isfinite(times).all():
            raise ParameterError("grid times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ParameterError("grid times must be strictly increasing")
        if self.rho is not None:
            rho = np.ascontiguousarray(self.rho, dtype=float)
            rho.setflags(write=False)
            if rho.shape != times.shape:
                raise ParameterError("rho cache must match the times array")
            object.__setattr__(self, "rho", rho)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def t0(self) -> float:
        return float(self.times[0])

    def rho_values(self, spec: DiffusionSpec) -> np.ndarray:
        return self.rho if self.rho is not None else rho_of_t(spec, self.times)


def _check_bounds(t0: float, t_end: float, n: int):
    if not 0 < t0 < t_end:
        raise ParameterError(f"need 0 < t0 < t_end, got {t0}, {t_end}")
    if n < 1:
        raise ParameterError(f"need at least one step, got N={n}")


def power_t(t0: float, t_end: float, n: int, kappa: float) -> TimeGrid:
    """Power-law interpolation in t between t0 and t_end."""
    _check_bounds(t0, t_end, n)
    if kappa < 1:
        raise ParameterError(f"kappa must be >= 1, got {kappa}")
    frac = np.arange(n + 1) / n
    times = ((1 - frac) * t0 ** (1 / kappa) + frac * t_end ** (1 / kappa)) ** kappa
    times[0], times[-1] = t0, t_end
    return TimeGrid(times)


def uniform(t0: float, t_end: float, n: int) -> TimeGrid:
    return power_t(t0, t_end, n, 1.0)


def quadratic(t0: float, t_end: float, n: int) -> TimeGrid:
    """Quadratic clustering toward t0: linspace(sqrt(t0), sqrt(t_end))^2."""
    return power_t(t0, t_end, n, 2.0)


def _from_rho_values(spec, rho_vals, t0, t_end) -> TimeGrid:
    times = t_of_rho(spec, rho_vals)
    if abs(times[0] - t0) > 1e-10 * max(1.0, t0) or abs(times[-1] - t_end) > 1e-10 * t_end:
        raise ParameterError("rho grid endpoints failed to invert back to (t0, t_end)")
    times[0], times[-1] = t0, t_end
    return TimeGrid(times, rho=np.asarray(rho_vals, dtype=float))


def power_rho(spec: DiffusionSpec, t0: float, n: int, kappa: float,
              t_end: float | None = None) -> TimeGrid:
    """Power-law interpolation in rho, mapped back through t(rho)."""
    t_end = spec.t_end if t_end is None else t_end
    _check_bounds(t0, t_end, n)
    if kappa < 1:
        raise ParameterError(f"kappa must be >= 1, got {kappa}")
    r0 = float(rho_of_t(spec, t0))
    r1 = float(rho_of_t(spec, t_end))
    frac = np.arange(n + 1) / n
    rho_vals = ((1 - frac) * r0 ** (1 / kappa) + frac * r1 ** (1 / kappa)) ** kappa
    rho_vals[0], rho_vals[-1] = r0, r1
    return _from_rho_values(spec, rho_vals, t0, t_end)


def log_rho(spec: DiffusionSpec, t0: float, n: int,
            t_end: float | None = None) -> TimeGrid:
    """Geometric spacing in rho (uniform steps in log rho)."""
    t_end = spec.t_end if t_end is None else t_end
    _check_bounds(t0, t_end, n)
    r0 = float(rho_of_t(spec, t0))
    r1 = float(rho_of_t(spec, t_end))
    if r0 <= 0:
        raise ParameterError("log_rho needs rho(t0) > 0")
    rho_vals = np.exp(np.linspace(np.log(r0), np.log(r1), n + 1))
    rho_vals[0], rho_vals[-1] = r0, r1
    return _from_rho_values(spec, rho_vals, t0, t_end)


def make_grid(name: str, *, t0: float, t_end: float, n: int,
              kappa: float | None = None,
              spec: DiffusionSpec | None = None) -> TimeGrid:
    """Build a grid by schedule name (the harness entry point)."""
    if name in KAPPA_SCHEDULES and kappa is None:
        raise ParameterError(f"{name} needs kappa")
    if name == "uniform":
        return uniform(t0, t_end, n)
    if name == "quadratic":
        return quadratic(t0, t_end, n)
    if name == "power_t":
        return power_t(t0, t_end, n, kappa)
    if name in ("power_rho", "log_rho"):
        if spec is None:
            raise ParameterError(f"{name} needs a diffusion spec")
        if name == "power_rho":
            return power_rho(spec, t0, n, kappa, t_end)
        return log_rho(spec, t0, n, t_end)
    raise ParameterError(f"unknown schedule {name!r}; choose from {SCHEDULE_NAMES}")
