"""Fixed-grid integrators for the reverse-time sampling of scalar
linear diffusions.

Every sampler consumes a noise-prediction field eps(x, t), a
:class:`~diffint.timegrid.TimeGrid`, and an initial state at t_N, and
produces a :class:`SolverRun` holding the state at every grid node.
The cost contract is explicit: single-step and multistep methods
evaluate the field exactly once per step (nfe = N); s-stage
Runge-Kutta methods evaluate it s times per step (nfe = s N).  The
count is taken by a wrapper around the field itself, so hidden
evaluations are impossible.

All samplers except the Runge-Kutta family in rho are one linear
multistep update, x_{i-1} = a_i x_i + sum_j c_ij eps_{i+j} (+ s_i xi_i
for sddim), eps_{i+j} the field value at node i+j.  Each builds a step
plan (a :class:`~diffint.weights.WeightTable`: a_i in ``psi``, rows c_i
in ``c``) from the diffusion and the grid, and one executor runs them
all: it owns the evaluation count, the history buffer, the finite
check and the recorded states.  Plans:

* ``euler``     a = 1 - f dt, c = -g2 dt / (2 L): the sampling ODE.
* ``ei_score``  a = Psi(t_{i-1}, t_i), c = -w / L(t_i): holds the raw
                score fixed (an ablation baseline, stiff near t = 0).
* ``ddim``      a = Psi, c = L(t_{i-1}) - Psi L(t_i): holds eps fixed.
* ``tab``       a = Psi, c = degree-r extrapolation weights in t.
* ``rho_ab``    a = mu_{i-1} / mu_i, c = mu_{i-1} x AB weights in rho.
* ``ipndm``     ddim's a, and ddim's c times a fixed-step blend.
* ``sddim``     stochastic ddim, noise scale eta in [0, 1].

``rho_rk_sample`` (midpoint, heun2, kutta3, rk4 in rho) evaluates the
field between nodes and keeps its own loop.

Deterministic samplers are bitwise reproducible; stochastic ones are
bitwise reproducible given their seed.  The multistep buffer holds
evaluations at grid nodes only; Runge-Kutta stage values are never
shared with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import quadrature
from .diffusion import DiffusionSpec, t_of_rho, transition
from .errors import DivergenceError, GridMismatchError, ParameterError
from .timegrid import TimeGrid
from .weights import WeightTable, _check_order, rho_ab_weights, tab_weights

__all__ = [
    "SolverRun",
    "euler_sample",
    "ei_score_sample",
    "ddim_step",
    "ddim_sample",
    "tab_sample",
    "rho_ab_sample",
    "rho_rk_sample",
    "ipndm_sample",
    "sddim_step",
    "sddim_sample",
    "run_sampler",
    "check_sampler_args",
    "SAMPLER_NAMES",
    "RK_METHODS",
    "IPNDM_BLEND",
]


@dataclass(frozen=True, eq=False)
class SolverRun:
    """One sampling run: per-node states plus cost accounting.

    ``states[i]`` is the state at grid node i (so ``states[n_steps]``
    is the initial condition and ``states[0]`` the terminal sample);
    ``nfe`` counts field evaluations as observed by the counting
    wrapper.
    """

    sampler: str
    order: Optional[int]
    grid: TimeGrid
    states: np.ndarray
    nfe: int
    seed: Optional[int] = None
    notes: tuple = ()

    @property
    def terminal(self):
        return self.states[0]


class _CountingField:
    """Wraps a field so every evaluation increments a counter."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    def __call__(self, x, t):
        self.count += 1
        return self.inner(x, t)


def _start_states(grid: TimeGrid, x_T) -> np.ndarray:
    x = np.asarray(x_T, dtype=float)
    states = np.empty((grid.n_steps + 1,) + x.shape)
    states[grid.n_steps] = x
    return states


def _check_finite(x, i: int, t: float, sampler: str):
    if not np.all(np.isfinite(x)):
        raise DivergenceError(
            f"{sampler} diverged stepping into node {i - 1} (t={t})",
            step_index=i - 1,
            time=t,
        )


def _plan(grid: TimeGrid, order: int, step) -> WeightTable:
    """Step plan from ``step(i, t_i, t_{i-1}) -> (a_i, c_i)``, i = 1..N."""
    t = grid.times
    a, c = zip(*(step(i, t[i], t[i - 1]) for i in range(1, grid.n_steps + 1)))
    return WeightTable(order=order, times=t, psi=a, c=c)


def _execute(sampler: str, order, plan: WeightTable, field, grid: TimeGrid, x_T,
             *, s=None, seed=None, notes=()) -> SolverRun:
    """Run ``plan`` from node N to node 0: one field evaluation per step,
    x <- a_i x + sum_j c_ij eps_{i+j} over the ``row.size`` most recent
    ones, plus s_i xi (one normal per step, Philox(seed)) given ``s``."""
    counting = _CountingField(field)
    rng = None if s is None else np.random.Generator(np.random.Philox(key=seed))
    times = grid.times
    states = _start_states(grid, x_T)
    x = states[grid.n_steps]
    buffer = []  # most recent first: buffer[j] evaluated at t_{i+j}
    for i in range(grid.n_steps, 0, -1):
        row = plan.coeffs_for(i)
        buffer.insert(0, counting(x, times[i]))
        del buffer[row.size :]
        x = plan.psi_for(i) * x
        for j in range(row.size):
            x += row[j] * buffer[j]
        if rng is not None:
            x += s[i - 1] * rng.standard_normal(x.shape)
        _check_finite(x, i, times[i - 1], sampler)
        states[i - 1] = x
    return SolverRun(sampler, order, grid, states, counting.count, seed=seed, notes=notes)


def _ddim_coeffs(spec: DiffusionSpec, t: float, t_prev: float):
    """a = Psi(t_prev, t) and c = L(t_prev) - a L(t) of the transfer step."""
    psi = transition(spec, t_prev, t)
    return psi, spec.L(t_prev) - psi * spec.L(t)


def _check_eta(eta: float):
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must lie in [0, 1], got {eta}")


def _check_ipndm_order(r: int):
    if not 0 <= r <= max(IPNDM_BLEND):
        raise ParameterError(f"order must be in 0..{max(IPNDM_BLEND)}, got {r}")


def _sddim_coeffs(spec: DiffusionSpec, t: float, t_prev: float, eta: float):
    """(a, c, s) of the stochastic transfer step (see :func:`sddim_step`)."""
    _check_eta(eta)
    psi, c = _ddim_coeffs(spec, t, t_prev)
    if eta == 0.0:
        return psi, c, 0.0
    l_t, l_prev = float(spec.L(t)), float(spec.L(t_prev))
    var = eta**2 * max(0.0, l_prev**2 / l_t**2 * (l_t**2 - (l_prev / psi) ** 2))
    return psi, np.sqrt(max(0.0, l_prev**2 - var)) - psi * l_t, np.sqrt(var)


def _euler_plan(spec: DiffusionSpec, grid: TimeGrid) -> WeightTable:
    def step(i, t, t_prev):
        dt = t - t_prev
        return 1.0 - spec.f(t) * dt, -0.5 * spec.g2(t) / spec.L(t) * dt

    return _plan(grid, 0, step)


def _ei_score_plan(spec: DiffusionSpec, grid: TimeGrid) -> WeightTable:
    def step(i, t, t_prev):
        weight = quadrature.integrate(
            lambda tau: -0.5 * transition(spec, t_prev, tau) * spec.g2(tau), t, t_prev
        )
        return transition(spec, t_prev, t), -weight / spec.L(t)

    return _plan(grid, 0, step)


def _ddim_plan(spec: DiffusionSpec, grid: TimeGrid) -> WeightTable:
    return _plan(grid, 0, lambda i, t, t_prev: _ddim_coeffs(spec, t, t_prev))


def _rho_ab_plan(spec: DiffusionSpec, grid: TimeGrid, r: int) -> WeightTable:
    rho, mu = grid.rho_values(spec), spec.mu(grid.times)
    return _plan(grid, r, lambda i, t, t_prev: (
        mu[i - 1] / mu[i], mu[i - 1] * rho_ab_weights(rho, i, r)))


def _ipndm_plan(spec: DiffusionSpec, grid: TimeGrid, r: int) -> WeightTable:
    _check_ipndm_order(r)

    def step(i, t, t_prev):
        psi, c = _ddim_coeffs(spec, t, t_prev)
        return psi, [c * float(b) for b in IPNDM_BLEND[min(r, grid.n_steps - i)]]

    return _plan(grid, r, step)


def _sddim_plan(spec: DiffusionSpec, grid: TimeGrid, eta: float):
    """ddim-shaped plan plus the noise scales s (index i-1; None when eta = 0)."""
    t = grid.times
    coeffs = [_sddim_coeffs(spec, t[i], t[i - 1], eta) for i in range(1, grid.n_steps + 1)]
    s = np.array([s for *_, s in coeffs]) if eta > 0.0 else None
    return _plan(grid, 0, lambda i, *_: coeffs[i - 1][:2]), s


def euler_sample(spec: DiffusionSpec, field, grid: TimeGrid, x_T) -> SolverRun:
    """First-order step on dx/dt = f x + g2 / (2 L) eps."""
    return _execute("euler", None, _euler_plan(spec, grid), field, grid, x_T)


def ei_score_sample(spec: DiffusionSpec, field, grid: TimeGrid, x_T) -> SolverRun:
    """Exponential step that holds the raw score fixed per interval:

        x_{i-1} = Psi(t_{i-1}, t_i) x_i
                  + [int_{t_i}^{t_{i-1}} -1/2 Psi(t_{i-1}, tau) g2(tau) dtau]
                    * score(x_i, t_i),

    with score = -eps / L.  Exact when the score itself is constant on
    the interval.
    """
    return _execute("ei_score", None, _ei_score_plan(spec, grid), field, grid, x_T)


def ddim_step(spec: DiffusionSpec, x_t, eps_val, t: float, t_prev: float):
    """Exponential transfer step holding the noise prediction fixed:

        x_prev = Psi(t_prev, t) x_t + (L(t_prev) - Psi(t_prev, t) L(t)) eps.

    For the VP preset, Psi = sqrt(alpha_prev / alpha_t) and
    L = sqrt(1 - alpha), which is the deterministic DDIM update.
    """
    psi, c = _ddim_coeffs(spec, t, t_prev)
    return psi * x_t + c * eps_val


def ddim_sample(spec: DiffusionSpec, field, grid: TimeGrid, x_T) -> SolverRun:
    return _execute("ddim", 0, _ddim_plan(spec, grid), field, grid, x_T)


def tab_sample(
    spec: DiffusionSpec,
    field,
    grid: TimeGrid,
    r: int,
    x_T,
    weights: WeightTable | None = None,
) -> SolverRun:
    """Exponential multistep with degree-r extrapolation in t.

    Keeps a buffer of the r+1 most recent node evaluations; while the
    buffer is short (the first r steps) the order is lowered to the
    available history.  A supplied ``weights`` table must match the
    grid and order.
    """
    if weights is None:
        weights = tab_weights(spec, grid, r)
    else:
        weights.check_grid(grid)
        if weights.order != r:
            raise GridMismatchError(
                f"weight table has order {weights.order}, requested {r}"
            )
    return _execute("tab", r, weights, field, grid, x_T)


def rho_ab_sample(
    spec: DiffusionSpec, field, grid: TimeGrid, r: int, x_T
) -> SolverRun:
    """Adams-Bashforth in rho on d y / d rho = eps(mu(t) y, t), y = x / mu.

    Written in x, the step is x_{i-1} = (mu_{i-1} / mu_i) x_i
    + mu_{i-1} sum_j w_j eps_{i+j}.  The zero-order method reproduces
    :func:`ddim_step`; higher orders extrapolate the noise prediction
    with a polynomial in rho.
    """
    return _execute("rho_ab", r, _rho_ab_plan(spec, grid, r), field, grid, x_T)


# classical explicit tableaus: stage offsets c, stage rows a, output weights b
RK_METHODS = {
    "midpoint": (
        (0.0, 0.5),
        ((), (0.5,)),
        (0.0, 1.0),
    ),
    "heun2": (
        (0.0, 1.0),
        ((), (1.0,)),
        (0.5, 0.5),
    ),
    "kutta3": (
        (0.0, 0.5, 1.0),
        ((), (0.5,), (-1.0, 2.0)),
        (1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0),
    ),
    "rk4": (
        (0.0, 0.5, 0.5, 1.0),
        ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
        (1.0 / 6.0, 2.0 / 6.0, 2.0 / 6.0, 1.0 / 6.0),
    ),
}


def rho_rk_sample(
    spec: DiffusionSpec, field, grid: TimeGrid, method: str, x_T
) -> SolverRun:
    """Classical explicit Runge-Kutta in rho.

    Stage times are mapped back through t(rho) for field evaluation;
    interval endpoints reuse the grid's own times so no inversion
    error enters there.  A stage time that lands below t_0 (roundoff
    in the inversion) is clamped to t_0 and recorded in the run notes.
    nfe = stages * N.
    """
    if method not in RK_METHODS:
        raise ParameterError(f"unknown RK method {method!r}; choose from {sorted(RK_METHODS)}")
    c, a, b = RK_METHODS[method]
    counting = _CountingField(field)
    times = grid.times
    rho = grid.rho_values(spec)
    mu = spec.mu(times)
    states = _start_states(grid, x_T)
    y = states[grid.n_steps] / mu[grid.n_steps]
    notes = []
    for i in range(grid.n_steps, 0, -1):
        h = rho[i - 1] - rho[i]
        # one inversion per distinct interior offset (rk4 has two stages at 1/2)
        t_inner = {c_s: t_of_rho(spec, rho[i] + c_s * h) for c_s in set(c) - {0.0, 1.0}}
        ks = []
        for s_idx in range(len(c)):
            if c[s_idx] == 0.0:
                t_stage = times[i]
                mu_stage = mu[i]
            elif c[s_idx] == 1.0:
                t_stage = times[i - 1]
                mu_stage = mu[i - 1]
            else:
                t_stage = t_inner[c[s_idx]]
                if t_stage < grid.t0:
                    notes.append(f"stage time clamped to t0 at step {i}")
                    t_stage = grid.t0
                mu_stage = float(spec.mu(t_stage))
            y_stage = y
            for m, a_sm in enumerate(a[s_idx]):
                if a_sm != 0.0:
                    y_stage = y_stage + h * a_sm * ks[m]
            ks.append(counting(mu_stage * y_stage, t_stage))
        for m in range(len(c)):
            y = y + h * b[m] * ks[m]
        x = mu[i - 1] * y
        _check_finite(x, i, times[i - 1], f"rho_{method}")
        states[i - 1] = x
    return SolverRun(
        f"rho_{method}", None, grid, states, counting.count, notes=tuple(notes)
    )


# blend coefficients for the multistep noise estimate, most recent first;
# exact rationals so the published fixed-step values can be asserted as such
IPNDM_BLEND = {
    0: (Fraction(1),),
    1: (Fraction(3, 2), Fraction(-1, 2)),
    2: (Fraction(23, 12), Fraction(-16, 12), Fraction(5, 12)),
    3: (Fraction(55, 24), Fraction(-59, 24), Fraction(37, 24), Fraction(-9, 24)),
}


def ipndm_sample(
    spec: DiffusionSpec, field, grid: TimeGrid, r: int, x_T
) -> SolverRun:
    """Multistep blend of past noise predictions + exponential transfer.

    Step i blends the last j+1 node evaluations with the fixed-step
    multistep coefficients, j = min(history, r) ramping up from zero
    (the first step is therefore exactly a ddim step), and advances
    with :func:`ddim_step`'s coefficients.  The blend coefficients
    assume a uniform grid; a non-uniform grid is accepted but flagged
    in the run notes.
    """
    plan = _ipndm_plan(spec, grid, r)
    spacing = np.diff(grid.times)
    notes = ()
    if spacing.size > 1 and (spacing.max() - spacing.min()) > 1e-9 * spacing.mean():
        notes = ("blend coefficients assume a uniform grid; grid is non-uniform",)
    return _execute("ipndm", r, plan, field, grid, x_T, notes=notes)


def sddim_step(
    spec: DiffusionSpec,
    x_t,
    eps_val,
    t: float,
    t_prev: float,
    eta: float,
    rng: np.random.Generator,
):
    """Stochastic variant of the exponential transfer step:

        var = eta^2 L_prev^2 / L_t^2 (L_t^2 - Psi(t, t_prev)^2 L_prev^2),
        x_prev = Psi(t_prev, t) x_t
                 + (sqrt(L_prev^2 - var) - Psi(t_prev, t) L_t) eps + sqrt(var) xi,

    xi ~ N(0, I).  On VP (alpha = mu^2) var is the DDIM
    eta^2 (1 - a_prev) / (1 - a) (1 - a / a_prev); on VE it is
    eta^2 sigma_prev^2 (sigma^2 - sigma_prev^2) / sigma^2.  eta = 0
    reduces exactly to :func:`ddim_step` and draws nothing; the
    variance terms are clamped at zero so the degenerate endpoint
    L(t_prev) = 0 cannot produce a negative radicand.
    """
    a, c, s = _sddim_coeffs(spec, t, t_prev, eta)
    if eta == 0.0:
        return a * x_t + c * eps_val
    x_t = np.asarray(x_t, dtype=float)
    return a * x_t + c * eps_val + s * rng.standard_normal(x_t.shape)


def sddim_sample(
    spec: DiffusionSpec, field, grid: TimeGrid, eta: float, x_T, seed: int
) -> SolverRun:
    """Iterate :func:`sddim_step` over the grid; Philox keyed by seed."""
    if seed is None:
        raise ParameterError("sddim needs a seed")
    plan, s = _sddim_plan(spec, grid, eta)
    return _execute("sddim", None, plan, field, grid, x_T, s=s, seed=seed)


# public name -> runner(spec, field, grid, x_T, **keyword arguments of run_sampler)
_RUNNERS = {
    "euler": lambda sp, fd, g, x, **_: euler_sample(sp, fd, g, x),
    "ei_score": lambda sp, fd, g, x, **_: ei_score_sample(sp, fd, g, x),
    "ddim": lambda sp, fd, g, x, **_: ddim_sample(sp, fd, g, x),
    "tab": lambda sp, fd, g, x, order, weights, **_: tab_sample(sp, fd, g, order, x, weights),
    "rho_ab": lambda sp, fd, g, x, order, **_: rho_ab_sample(sp, fd, g, order, x),
    "rho_mid": lambda sp, fd, g, x, **_: rho_rk_sample(sp, fd, g, "midpoint", x),
    "rho_heun2": lambda sp, fd, g, x, **_: rho_rk_sample(sp, fd, g, "heun2", x),
    "rho_kutta3": lambda sp, fd, g, x, **_: rho_rk_sample(sp, fd, g, "kutta3", x),
    "rho_rk4": lambda sp, fd, g, x, **_: rho_rk_sample(sp, fd, g, "rk4", x),
    "ipndm": lambda sp, fd, g, x, order, **_: ipndm_sample(sp, fd, g, order, x),
    "sddim": lambda sp, fd, g, x, eta, seed, **_: sddim_sample(sp, fd, g, eta, x, seed),
}

SAMPLER_NAMES = tuple(_RUNNERS)

# the order or eta check each sampler's plan builder applies
_ARG_CHECKS = {
    "tab": lambda order, eta: _check_order(order),
    "rho_ab": lambda order, eta: _check_order(order),
    "ipndm": lambda order, eta: _check_ipndm_order(order),
    "sddim": lambda order, eta: _check_eta(eta),
}


def check_sampler_args(name: str, order: int = 0, eta: float = 0.0):
    """Raise :class:`ParameterError` where :func:`run_sampler` would
    reject ``order`` or ``eta`` for sampler ``name``, without running it."""
    check = _ARG_CHECKS.get(name)
    if check is not None:
        check(order, eta)


def run_sampler(
    name: str,
    spec: DiffusionSpec,
    field,
    grid: TimeGrid,
    x_T,
    *,
    order: int = 0,
    eta: float = 0.0,
    seed: int | None = None,
    weights: WeightTable | None = None,
) -> SolverRun:
    """Dispatch a sampler by its public name (the harness entry point)."""
    if name not in SAMPLER_NAMES:
        raise ParameterError(f"unknown sampler {name!r}; choose from {SAMPLER_NAMES}")
    runner = _RUNNERS[name]
    return runner(spec, field, grid, x_T, order=order, eta=eta, seed=seed, weights=weights)
