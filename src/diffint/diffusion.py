"""Scalar linear forward diffusions and their marginal statistics.

A forward noising process on [0, T] is the linear SDE

    dx = f(t) x dt + sqrt(g2(t)) dw,

whose conditional law given x_0 is Gaussian with mean scale mu(t) and
standard deviation L(t):

    x_t | x_0  ~  N(mu(t) x_0, L(t)^2),
    dmu/dt     = f(t) mu(t),            mu(0) = 1,
    d(L^2)/dt  = 2 f(t) L(t)^2 + g2(t), L(0) = 0  (for the presets).

Two presets cover the standard choices:

* ``vpsde``: variance preserving, alpha(t) = exp(-int_0^t beta(s) ds)
  with a linear rate beta(s) = beta_min + (beta_max - beta_min) s;
  f = -beta/2, g2 = beta, mu = sqrt(alpha), L = sqrt(1 - alpha).
* ``vesde``: variance exploding, sigma(t) = sigma_min (sigma_max /
  sigma_min)^t; f = 0, g2 = d(sigma^2)/dt, mu = 1, L = sigma.

Every spec carries the solution operator of the drift,
Psi(t, s) = exp(int_s^t f), in closed form.

The module also hosts the monotone time reparameterization

    rho(t) = L(t) / mu(t),

under which the noise-prediction form of the sampling ODE becomes
d y / d rho = eps(mu y, t(rho)) with y = x / mu(t).  For the VP preset
this is rho = sqrt((1 - alpha) / alpha); for the VE preset it is
sigma(t).  Every spec also carries its inverse in closed form,
elementwise on arrays: on VP, int_0^t beta = log(1 + rho^2) is a
quadratic in t; on VE, t = log(rho / sigma_min) / log(sigma_max /
sigma_min).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "VpSchedule",
    "DiffusionSpec",
    "vpsde",
    "vesde",
    "transition",
    "rho_of_t",
    "t_of_rho",
]


@dataclass(frozen=True)
class VpSchedule:
    """Linear noise-rate schedule beta(s) = beta_min + (beta_max - beta_min) s."""

    beta_min: float = 0.1
    beta_max: float = 20.0

    def __post_init__(self):
        if not (0 < self.beta_min < self.beta_max < math.inf):
            raise ParameterError(
                f"need 0 < beta_min < beta_max < inf, got {self.beta_min}, {self.beta_max}"
            )

    def beta(self, t):
        return self.beta_min + (self.beta_max - self.beta_min) * np.asarray(t, dtype=float)

    def beta_integral(self, t):
        """int_0^t beta(s) ds, in closed form."""
        t = np.asarray(t, dtype=float)
        return self.beta_min * t + 0.5 * (self.beta_max - self.beta_min) * t * t

    def alpha(self, t):
        """alpha(t) = exp(-int_0^t beta); alpha(0) = 1 exactly."""
        return np.exp(-self.beta_integral(t))


@dataclass(frozen=True)
class DiffusionSpec:
    """A scalar-coefficient linear diffusion on [0, t_end].

    All callables accept floats or numpy arrays and evaluate
    elementwise; the presets give a float the bits of the same element
    of an array call (they square by a product, since ``** 2`` on a
    numpy scalar calls pow).  ``pi_std`` is the standard deviation of
    the terminal sampling distribution (N(0, pi_std^2)).
    ``transition_closed(t, s)`` evaluates Psi(t, s) and
    ``t_of_rho_closed(rho)`` inverts rho(t) = L(t) / mu(t) on
    [rho(0), rho(t_end)], both in closed form.

    Instances are immutable and safe to share across threads.
    """

    f: Callable
    g2: Callable
    mu: Callable
    L: Callable
    transition_closed: Callable = field(repr=False)
    t_of_rho_closed: Callable = field(repr=False)
    t_end: float
    name: str = "custom"
    pi_std: float = 1.0

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ParameterError(f"t_end must be positive and finite, got {self.t_end}")
        if not 0 < self.pi_std < math.inf:
            raise ParameterError(f"pi_std must be positive and finite, got {self.pi_std}")


def vpsde(schedule: VpSchedule | None = None, *, t_end: float = 1.0) -> DiffusionSpec:
    """Variance-preserving preset; default schedule beta in [0.1, 20]."""
    sched = schedule if schedule is not None else VpSchedule()

    def mu(t):
        return np.exp(-0.5 * sched.beta_integral(t))

    def L(t):
        # sqrt(1 - alpha) via expm1 so that L(0) == 0 exactly
        return np.sqrt(-np.expm1(-sched.beta_integral(t)))

    def psi(t, s):
        return np.exp(-0.5 * (sched.beta_integral(t) - sched.beta_integral(s)))

    def t_of_rho_closed(rho):
        # beta_integral(t) = log(1 + rho^2) = c is a quadratic in t; its
        # positive root, written without cancellation
        rho = np.asarray(rho, dtype=float)
        c = np.log1p(rho * rho)
        b0, slope = sched.beta_min, sched.beta_max - sched.beta_min
        return 2.0 * c / (b0 + np.sqrt(b0 * b0 + 2.0 * slope * c))

    return DiffusionSpec(
        f=lambda t: -0.5 * sched.beta(t),
        g2=sched.beta,
        mu=mu,
        L=L,
        t_end=t_end,
        name="vpsde",
        pi_std=1.0,
        transition_closed=psi,
        t_of_rho_closed=t_of_rho_closed,
    )


def vesde(sigma_min: float, sigma_max: float, *, t_end: float = 1.0) -> DiffusionSpec:
    """Variance-exploding preset; geometric sigma from sigma_min to sigma_max."""
    if not (0 < sigma_min < sigma_max < math.inf):
        raise ParameterError(
            f"need 0 < sigma_min < sigma_max < inf, got {sigma_min}, {sigma_max}"
        )
    log_ratio = math.log(sigma_max / sigma_min)

    def sigma(t):
        return sigma_min * np.exp(log_ratio * np.asarray(t, dtype=float))

    def g2(t):
        s = sigma(t)  # squared as a product, see DiffusionSpec
        return 2.0 * log_ratio * (s * s)

    return DiffusionSpec(
        f=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        g2=g2,
        mu=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        L=sigma,
        t_end=t_end,
        name="vesde",
        pi_std=sigma_max,
        transition_closed=lambda t, s: np.ones_like(
            np.asarray(t, dtype=float) * np.asarray(s, dtype=float)
        ),
        t_of_rho_closed=lambda rho: np.log(np.asarray(rho, dtype=float) / sigma_min) / log_ratio,
    )


def transition(spec: DiffusionSpec, t, s):
    """Drift solution operator Psi(t, s) = exp(int_s^t f(tau) dtau)."""
    return spec.transition_closed(t, s)


def rho_of_t(spec: DiffusionSpec, t):
    """Monotone time rescaling rho(t) = L(t) / mu(t)."""
    return spec.L(t) / spec.mu(t)


def t_of_rho(spec: DiffusionSpec, rho):
    """Invert :func:`rho_of_t` elementwise on [0, t_end].

    Applies the spec's ``t_of_rho_closed``, then maps ``rho(0)`` to 0.0
    and ``rho(t_end)`` to ``t_end`` exactly.  Returns a float for a
    scalar ``rho`` and an array otherwise.  Raises :class:`DomainError`
    when any element lies outside [rho(0), rho(t_end)] beyond roundoff
    slack.
    """
    lo = float(rho_of_t(spec, 0.0))
    hi = float(rho_of_t(spec, spec.t_end))
    slack = 1e-9 * max(1.0, abs(hi))
    rho = np.asarray(rho, dtype=float)
    if np.any((rho < lo - slack) | (rho > hi + slack)):
        raise DomainError(f"rho={rho} outside [{lo}, {hi}]")
    rho_clipped = np.clip(rho, lo, hi)
    t = spec.t_of_rho_closed(rho_clipped)
    t = np.where(rho_clipped == lo, 0.0, np.where(rho_clipped == hi, spec.t_end, t))
    return float(t) if t.ndim == 0 else t

