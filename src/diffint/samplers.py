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
in ``c``) from the diffusion and the grid arrays in one pass:
elementwise expressions in t_i and t_{i-1} for all steps at once, or
one weight build for ``ei_score``, ``tab`` and ``rho_ab``.  One executor
runs them all, in place on its own copy of the state: it owns the
evaluation count, the history buffer, the finite check and the recorded
states (none for EM, which keeps the terminal only).  Plans:

* ``euler``     a = 1 - f dt, c = -g2 dt / (2 L): the sampling ODE.
* ``ei_score``  a = Psi(t_{i-1}, t_i), c = -w / L(t_i): holds the raw
                score fixed (an ablation baseline, stiff near t = 0).
* ``ddim``      a = Psi, c = L(t_{i-1}) - Psi L(t_i): holds eps fixed.
* ``tab``       a = Psi, c = degree-r extrapolation weights in t.
* ``rho_ab``    a = mu_{i-1} / mu_i, c = mu_{i-1} x AB weights in rho.
* ``ipndm``     ddim's a, and ddim's c times a fixed-step blend.
* ``sddim``     stochastic ddim, noise scale eta in [0, 1].
* EM            euler's a, c times (1 + lam^2) and s = lam sqrt(g2 dt) on
                the fixed-step grid: Euler-Maruyama on the reverse-time
                family dx = [f x - (1 + lam^2)/2 g2 score] dt + lam g dw
                (:func:`em_terminal_batch`).

The Runge-Kutta family in rho (``rho_mid``, ``rho_heun2``,
``rho_kutta3``, ``rho_rk4``) evaluates the field between nodes and keeps
its own loop.  :func:`run_sampler` runs every sampler by name, through
one table that also holds the order each run reports and the arguments
each sampler reads (:func:`check_sampler_args`).

Deterministic samplers are bitwise reproducible; stochastic ones are
bitwise reproducible given their seed.  The multistep buffer holds
evaluations at grid nodes only; Runge-Kutta stage values are never
shared with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import quadrature
from .diffusion import DiffusionSpec, t_of_rho, transition
from .errors import DivergenceError, ParameterError
from .oracle import draw_terminal_states, fixed_step_times, normals
from .timegrid import TimeGrid
from .weights import WeightTable, _check_order, rho_ab_weights, tab_weights

__all__ = [
    "SolverRun",
    "em_terminal_batch",
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


def _diverged(sampler: str, i: int, t: float) -> DivergenceError:
    return DivergenceError(f"{sampler} diverged stepping into node {i - 1} (t={t})",
                           step_index=i - 1, time=t)


def _execute(sampler: str, plan: WeightTable, field, x_T, *, s=None, seed=None,
             states=None, nan_diverged=False):
    """Run ``plan`` from node N to node 0 of ``plan.times``: one field
    evaluation per step, x <- a_i x + sum_j c_ij eps_{i+j} over the
    ``row.size`` most recent ones, plus s_i xi given ``s``: the k-th step
    taken (k = N - i) draws xi from :func:`~diffint.oracle.normals`
    stream 1 + k of ``seed``, state j at position j.  x is the executor's
    own copy of ``x_T``, updated in place with step buffers reused from
    step to step (an evaluation that shares its memory is copied first),
    and written to ``states[i - 1]`` given ``states``.  A non-finite state
    raises :class:`DivergenceError`, or is set to NaN given
    ``nan_diverged``.  Returns x at node 0 (a numpy scalar if 0-d) and
    the evaluation count."""
    counting = _CountingField(field)
    times = plan.times
    n = times.size - 1
    x = np.array(x_T, dtype=float)
    term = np.empty(x.shape)
    noise = None if s is None else np.empty(x.shape)
    finite = np.empty(x.shape, dtype=bool)
    buffer = []  # most recent first: buffer[j] evaluated at t_{i+j}
    for i in range(n, 0, -1):
        row = plan.coeffs_for(i)
        eps = counting(x, times[i])
        if np.may_share_memory(eps, x):
            eps = np.copy(eps)
        buffer.insert(0, eps)
        del buffer[row.size :]
        x *= plan.psi_for(i)
        for j in range(row.size):
            np.multiply(row[j], buffer[j], out=term)
            x += term
        if s is not None:
            normals(seed, 1 + n - i, x.shape, out=noise)
            noise *= s[i - 1]
            x += noise
        if not np.isfinite(x, out=finite).all():
            if not nan_diverged:
                raise _diverged(sampler, i, times[i - 1])
            x[~finite] = np.nan
        if states is not None:
            states[i - 1] = x
    return x[()], counting.count


def _ddim_coeffs(spec: DiffusionSpec, t, t_prev):
    """a = Psi(t_prev, t) and c = L(t_prev) - a L(t), elementwise, of the
    exponential transfer step that holds the noise prediction fixed,
    x_prev = a x_t + c eps.  For the VP preset, a = sqrt(alpha_prev /
    alpha_t) and L = sqrt(1 - alpha), which is the deterministic DDIM
    update."""
    psi = transition(spec, t_prev, t)
    return psi, spec.L(t_prev) - psi * spec.L(t)


def _check_eta(eta: float):
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must lie in [0, 1], got {eta}")


def _check_ipndm_order(r: int):
    if not 0 <= r <= max(IPNDM_BLEND):
        raise ParameterError(f"order must be in 0..{max(IPNDM_BLEND)}, got {r}")


def _sddim_coeffs(spec: DiffusionSpec, t, t_prev, eta: float):
    """(a, c, s) of the stochastic transfer step x_prev = a x_t + c eps
    + s xi, xi ~ N(0, 1), elementwise:

        var = eta^2 L_prev^2 / L_t^2 (L_t^2 - Psi(t, t_prev)^2 L_prev^2),
        a = Psi(t_prev, t),  c = sqrt(L_prev^2 - var) - a L_t,  s = sqrt(var).

    On VP (alpha = mu^2) var is the DDIM eta^2 (1 - alpha_prev) /
    (1 - alpha) (1 - alpha / alpha_prev); on VE it is
    eta^2 sigma_prev^2 (sigma^2 - sigma_prev^2) / sigma^2.  eta = 0 gives
    :func:`_ddim_coeffs` and s = 0; the variance terms are clamped at
    zero so the degenerate endpoint L(t_prev) = 0 cannot produce a
    negative radicand."""
    _check_eta(eta)
    psi, c = _ddim_coeffs(spec, t, t_prev)
    if eta == 0.0:
        return psi, c, 0.0
    l_t, l_prev = spec.L(t), spec.L(t_prev)
    var = eta**2 * np.maximum(0.0, l_prev**2 / l_t**2 * (l_t**2 - (l_prev / psi) ** 2))
    return psi, np.sqrt(np.maximum(0.0, l_prev**2 - var)) - psi * l_t, np.sqrt(var)


def _zero_order_plan(grid: TimeGrid, psi, c) -> WeightTable:
    """Plan with a_i = psi[i - 1] and the one-entry row c[i - 1]."""
    return WeightTable(order=0, times=grid.times, psi=psi, c=tuple(c[:, None]))


def _euler_plan(spec: DiffusionSpec, grid: TimeGrid, scale: float = 1.0) -> WeightTable:
    """euler's plan, with c times ``scale`` (exact at 1)."""
    t, t_prev = grid.times[1:], grid.times[:-1]
    dt = t - t_prev
    return _zero_order_plan(grid, 1.0 - spec.f(t) * dt,
                            scale * (-0.5 * spec.g2(t) / spec.L(t) * dt))


def _ei_score_plan(spec: DiffusionSpec, grid: TimeGrid) -> WeightTable:
    """The exponential step that holds the raw score = -eps / L fixed per
    interval, exact when the score is constant on it:

        x_{i-1} = Psi(t_{i-1}, t_i) x_i
                  + [int_{t_i}^{t_{i-1}} -1/2 Psi(t_{i-1}, tau) g2(tau) dtau]
                    * score(x_i, t_i).
    """
    t = grid.times
    weight = quadrature.integrate(
        lambda tau: -0.5 * transition(spec, t[:-1, None], tau) * spec.g2(tau), t[1:], t[:-1]
    )
    return _zero_order_plan(grid, transition(spec, t[:-1], t[1:]), -weight / spec.L(t[1:]))


def _ddim_plan(spec: DiffusionSpec, grid: TimeGrid) -> WeightTable:
    return _zero_order_plan(grid, *_ddim_coeffs(spec, grid.times[1:], grid.times[:-1]))


def _rho_ab_plan(spec: DiffusionSpec, grid: TimeGrid, r: int) -> WeightTable:
    """Adams-Bashforth in rho on d y / d rho = eps(mu(t) y, t), y = x / mu,
    written in x: x_{i-1} = (mu_{i-1} / mu_i) x_i + mu_{i-1} sum_j w_j
    eps_{i+j}.  Order 0 is ddim's step; higher orders extrapolate the
    noise prediction with a polynomial in rho."""
    mu = spec.mu(grid.times)
    rows = rho_ab_weights(grid.rho_values(spec), r)
    return WeightTable(order=r, times=grid.times, psi=mu[:-1] / mu[1:],
                       c=tuple(m * row for m, row in zip(mu[:-1], rows)))


def _ipndm_plan(spec: DiffusionSpec, grid: TimeGrid, r: int) -> WeightTable:
    """ddim's step with eps replaced by the fixed-step blend of the last
    j + 1 node evaluations, j = min(history, r), so the first step is
    exactly ddim's.  The blend assumes a uniform grid."""
    _check_ipndm_order(r)
    psi, c = _ddim_coeffs(spec, grid.times[1:], grid.times[:-1])
    n = grid.n_steps
    rows = tuple(c_i * np.array(IPNDM_BLEND[min(r, n - i)], dtype=float)
                 for i, c_i in enumerate(c, 1))
    return WeightTable(order=r, times=grid.times, psi=psi, c=rows)


def _sddim_plan(spec: DiffusionSpec, grid: TimeGrid, eta: float):
    """ddim-shaped plan plus the noise scales s (index i-1; None when eta = 0)."""
    psi, c, s = _sddim_coeffs(spec, grid.times[1:], grid.times[:-1], eta)
    return _zero_order_plan(grid, psi, c), s if eta > 0.0 else None


def _check_lam(lam: float) -> float:
    """1 + lam^2 of the reverse-time family; raises :class:`ParameterError`
    unless lam >= 0 and that is finite."""
    lam = float(lam)
    scale = 1.0 + lam * lam  # a float product overflows to inf, not an error
    if not (lam >= 0.0 and math.isfinite(scale)):
        raise ParameterError(f"lambda must be >= 0 with 1 + lambda^2 finite, got {lam}")
    return scale


def _em_plan(spec: DiffusionSpec, lam: float, dt: float, t0: float):
    """The Euler-Maruyama step of the reverse-time family on the grid of
    :func:`~diffint.oracle.fixed_step_times` from t_end down to t0:
    euler's plan with c times (1 + lam^2), plus the noise scales
    s = lam sqrt(g2) sqrt(h) (index i-1; None when lam = 0)."""
    scale = _check_lam(lam)
    grid = TimeGrid(fixed_step_times(spec.t_end, t0, dt)[::-1])
    t = grid.times[1:]
    s = lam * np.sqrt(spec.g2(t)) * np.sqrt(t - grid.times[:-1]) if lam > 0 else None
    return _euler_plan(spec, grid, scale), s


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


def _rho_rk(spec: DiffusionSpec, field, grid: TimeGrid, method: str, x_T) -> SolverRun:
    """Classical explicit Runge-Kutta in rho with the ``RK_METHODS``
    tableau ``method``, on d y / d rho = eps(mu(t) y, t), y = x / mu.

    Stage times are mapped back through t(rho) for field evaluation,
    all interior stages of the run in one call before the first step;
    interval endpoints reuse the grid's own times so no inversion
    error enters there.  A stage time that lands below t_0 (roundoff
    in the inversion) is clamped to t_0 and recorded in the run notes;
    mu is then taken at all the interior stage times in one call.
    nfe = stages * N.
    """
    c, a, b = RK_METHODS[method]
    counting = _CountingField(field)
    times = grid.times
    rho = grid.rho_values(spec)
    mu = spec.mu(times)
    states = _start_states(grid, x_T)
    y = states[grid.n_steps] / mu[grid.n_steps]
    notes = []
    # t_inner[i - 1, k]: step i's stage time at the k-th distinct interior
    # offset (rk4's two stages at 1/2 share one)
    inner = sorted(set(c) - {0.0, 1.0})
    if inner:
        t_inner = t_of_rho(spec, rho[1:, None] + np.array(inner) * (rho[:-1] - rho[1:])[:, None])
        clamped = t_inner < grid.t0
        t_inner = np.where(clamped, grid.t0, t_inner)
        mu_inner = spec.mu(t_inner)
    for i in range(grid.n_steps, 0, -1):
        h = rho[i - 1] - rho[i]
        ks = []
        for s_idx in range(len(c)):
            if c[s_idx] == 0.0:
                t_stage = times[i]
                mu_stage = mu[i]
            elif c[s_idx] == 1.0:
                t_stage = times[i - 1]
                mu_stage = mu[i - 1]
            else:
                j = inner.index(c[s_idx])
                if clamped[i - 1, j]:
                    notes.append(f"stage time clamped to t0 at step {i}")
                t_stage = float(t_inner[i - 1, j])
                mu_stage = float(mu_inner[i - 1, j])
            y_stage = y
            for m, a_sm in enumerate(a[s_idx]):
                if a_sm != 0.0:
                    y_stage = y_stage + h * a_sm * ks[m]
            ks.append(counting(mu_stage * y_stage, t_stage))
        for m in range(len(c)):
            y = y + h * b[m] * ks[m]
        x = mu[i - 1] * y
        if not np.all(np.isfinite(x)):
            raise _diverged(f"rho_{method}", i, times[i - 1])
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


def em_terminal_batch(spec: DiffusionSpec, field, lam: float, dt: float, t0: float,
                      seed: int, n_traj: int) -> np.ndarray:
    """Terminal states of ``n_traj`` independent Euler-Maruyama
    trajectories of the reverse-time family

        dx = [f x - (1 + lam^2)/2 * g2 * score] dt + lam sqrt(g2) dw

    from t_end down to t0 in steps of at most ``dt``, with
    score = -eps / L taken from ``field``.  lam = 0 recovers the
    deterministic sampling ODE, with the bits of the ``euler`` sampler on
    the same grid; lam = 1 is the reverse SDE.  Trajectory i starts from
    draw i of :func:`~diffint.oracle.draw_terminal_states` and takes the
    noise of step k from position i of :func:`~diffint.oracle.normals`
    stream 1 + k, so its result does not depend on ``n_traj``.
    Non-finite trajectories are returned as NaN rather than raising.
    """
    plan, s = _em_plan(spec, lam, dt, t0)
    x = draw_terminal_states(spec, seed, n_traj)
    return _execute("em", plan, field, x, s=s, seed=seed, nan_diverged=True)[0]


# public name -> (plan builder (spec, grid, order, eta) -> (plan, noise
# scales or None), or the RK_METHODS tableau the name runs in rho; whether
# the run reports the plan's order; the arguments the sampler reads -> their
# range checks).  The builders resolve tab_weights, rho_ab_weights,
# transition and t_of_rho when called, so the names can be rebound.
_SAMPLERS = {
    "euler": (lambda spec, grid, order, eta: (_euler_plan(spec, grid), None), False, {}),
    "ei_score": (lambda spec, grid, order, eta: (_ei_score_plan(spec, grid), None), False, {}),
    "ddim": (lambda spec, grid, order, eta: (_ddim_plan(spec, grid), None), True, {}),
    "tab": (lambda spec, grid, order, eta: (tab_weights(spec, grid, order), None), True,
            {"order": _check_order}),
    "rho_ab": (lambda spec, grid, order, eta: (_rho_ab_plan(spec, grid, order), None), True,
               {"order": _check_order}),
    "rho_mid": ("midpoint", False, {}),
    "rho_heun2": ("heun2", False, {}),
    "rho_kutta3": ("kutta3", False, {}),
    "rho_rk4": ("rk4", False, {}),
    "ipndm": (lambda spec, grid, order, eta: (_ipndm_plan(spec, grid, order), None), True,
              {"order": _check_ipndm_order}),
    "sddim": (lambda spec, grid, order, eta: _sddim_plan(spec, grid, eta), False,
              {"eta": _check_eta}),
}

SAMPLER_NAMES = tuple(_SAMPLERS)


def _sampler(name: str) -> tuple:
    if name not in _SAMPLERS:
        raise ParameterError(f"unknown sampler {name!r}; choose from {SAMPLER_NAMES}")
    return _SAMPLERS[name]


def check_sampler_args(name: str, order: int = 0, eta: float = 0.0):
    """Raise :class:`ParameterError` where :func:`run_sampler` would
    reject ``name``, or the ``order`` or ``eta`` it reads, without
    running it."""
    args = {"order": order, "eta": eta}
    for key, check in _sampler(name)[2].items():
        check(args[key])


def run_sampler(name: str, spec: DiffusionSpec, field, grid: TimeGrid, x_T, *,
                order: int = 0, eta: float = 0.0, seed: int | None = None) -> SolverRun:
    """Run sampler ``name`` (one of ``SAMPLER_NAMES``) from ``x_T`` at the
    last node of ``grid``, recording the state at every node.  A sampler
    ignores an ``order`` or ``eta`` it does not read; ``sddim`` needs a
    ``seed``."""
    build, ranked, _ = _sampler(name)
    if isinstance(build, str):
        return _rho_rk(spec, field, grid, build, x_T)
    if name == "sddim" and seed is None:
        raise ParameterError("sddim needs a seed")
    plan, s = build(spec, grid, order, eta)
    notes = ()
    if name == "ipndm":
        spacing = np.diff(grid.times)
        if spacing.size > 1 and (spacing.max() - spacing.min()) > 1e-9 * spacing.mean():
            notes = ("blend coefficients assume a uniform grid; grid is non-uniform",)
    states = _start_states(grid, x_T)
    _, nfe = _execute(name, plan, field, states[grid.n_steps], s=s, seed=seed, states=states)
    return SolverRun(name, plan.order if ranked else None, grid, states, nfe,
                     seed=seed if name == "sddim" else None, notes=notes)
