"""Fixed-grid integrators for the reverse-time sampling of scalar
linear diffusions.

Every sampler consumes a noise-prediction field eps(x, t), a
:class:`~diffint.timegrid.TimeGrid`, and an initial state at t_N, and
produces a :class:`SolverRun` holding the state at every grid node.
The cost contract is explicit: single-step and multistep methods
evaluate the field exactly once per step (nfe = N); s-stage
Runge-Kutta methods evaluate it s times per step (nfe = s N).  The
executor counts every call it makes, and it is the only caller of the
field in a run, so hidden evaluations are impossible.

Every sampler is a plan that one executor runs, in place on its own
copy of the state: it owns the field calls and their count, the memo
fill of an :class:`~diffint.oracle.EpsilonField`, the history buffer,
the finite check at the nodes and the recorded states (none for EM,
which keeps the terminal only).  Most samplers are one linear multistep
update, x_{i-1} = a_i x_i + sum_j c_ij eps_{i+j} (+ s_i xi_i for sddim),
eps_{i+j} the field value at node i+j.  Each builder returns one plan, a
:class:`~diffint.weights.WeightTable` that is all the run needs: a_i in
``psi``, rows c_i in ``c``, the noise scales s_i in ``noise`` (None for
a deterministic plan), and the ``order`` and ``notes`` the run reports.
It is built from the diffusion and the grid arrays in one pass:
elementwise expressions in t_i and t_{i-1} for all steps at once, or one
weight build for ``ei_score``, ``tab`` and ``rho_ab``.  Plans:

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
``rho_kutta3``, ``rho_rk4``) builds stage plans: each step evaluates the
field at its stages, between nodes, and after each evaluation sets the
next stage's state, or after the last x_{i-1}, to a multiple of the node
state x_i plus a row over the step's own evaluations (:func:`_rho_rk_plan`).
A step plan is the one-stage case, whose rows reach back over earlier
node evaluations.  :func:`run_sampler` runs every sampler by name,
through one table of builders and of the arguments each sampler reads
(:func:`check_sampler_args`).

Deterministic samplers are bitwise reproducible; stochastic ones are
bitwise reproducible given their seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

import numpy as np

from . import quadrature
from .diffusion import DiffusionSpec, t_of_rho, transition
from .errors import DivergenceError, ParameterError
from .oracle import EpsilonField, draw_terminal_states, fixed_step_times, normals
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
    ``nfe`` counts the field calls that :func:`_execute` made.
    """

    sampler: str
    order: Optional[int]
    grid: TimeGrid
    states: np.ndarray
    nfe: int
    notes: tuple = ()

    @property
    def terminal(self):
        return self.states[0]


# Fewest states whose step noise a worker thread draws; smaller states
# draw it in the stepping thread.  A hand-off to the worker costs about
# 30 us a step in thread wake-ups and interpreter-lock switches, which the
# overlap pays for only once the field and the draw take long enough.
# Measured with sddim at N = 40, K = 2, on a shared 2-vCPU machine (median
# ms, drawing in the stepping thread -> on the worker): 64 states 1.5 ->
# 2.8, 4096 6.6 -> 7.1, 8192 11.0 -> 9.0, 16384 20.4 -> 14.4.
_WORKER_STATES = 8192


def _worker_pays(x) -> bool:
    """Whether a worker thread should draw the step noise of state ``x``:
    it is large enough, and this process may run on a second CPU, without
    which the hand-offs buy no overlap (on one CPU, Euler-Maruyama at
    lam = 1 took 10-12% longer with the worker on 8192 states and 4-9%
    longer on 16384)."""
    if x.size < _WORKER_STATES:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _draw(seed: int, stream: int, scale, out):
    """``scale`` times :func:`~diffint.oracle.normals` stream ``stream`` of
    ``seed``, written into ``out``."""
    normals(seed, stream, out.shape, out=out)
    out *= scale
    return out


class _Drawn:
    """A draw made at once in the calling thread, read as a future's is."""

    def __init__(self, fn, *args):
        self.value = fn(*args)

    def result(self):
        return self.value


def _execute(sampler: str, plan: WeightTable, field, x_T, *, seed=None, states=None,
             nan_diverged=False):
    """Run ``plan`` from node N to node 0 of ``plan.times``: each step
    evaluates the field at its stages in turn, and after each evaluation
    sets the next stage's state, or x, to psi x + sum_j c_j eps_j over
    the ``row.size`` most recent evaluations, x the step's node state;
    given ``plan.noise`` (s), the step then adds s_i xi: the k-th step taken
    (k = N - i) draws xi from :func:`~diffint.oracle.normals` stream
    1 + k of ``seed``, state j at position j.  x is the executor's own
    copy of ``x_T``, updated in place with step buffers reused from step
    to step (an evaluation that shares its memory with the state it was
    given is copied first), and written to ``states[i - 1]`` given
    ``states``.  A non-finite node state raises :class:`DivergenceError`,
    or is set to NaN given ``nan_diverged``.  Returns x at node 0 (a
    numpy scalar if 0-d) and the evaluation count.

    This is the only caller of the field in a run, so its count is the
    run's nfe: it calls ``field(y, t)`` once per evaluation and counts
    each call.  An :class:`~diffint.oracle.EpsilonField` first gets its
    memo entries for ``plan.eval_times`` from one array call
    (``EpsilonField._fill``), instead of one miss per time.

    The noise does not depend on the state, so it is drawn one step
    ahead, into the other of two step buffers: s xi of step k + 1 is
    drawn as step k starts, and step k adds its own once it is drawn.
    For a state of at least ``_WORKER_STATES`` elements, in a process
    that may run on two CPUs or more, one worker thread, started for this
    run, makes the draws while the stepping thread evaluates the field;
    it is shut down and joined before this returns or raises.  Otherwise
    the stepping thread draws them itself.
    Each draw is a pure function of (seed, stream, shape), so the bits
    depend on neither.  An error of a draw (such as
    :class:`ParameterError` for a missing seed) is raised unchanged."""
    times, at, psi, rows, s = (plan.times, plan.eval_times.ravel(), plan.psi.tolist(),
                               plan.c, plan.noise)
    n, stages = plan.eval_times.shape
    if isinstance(field, EpsilonField):
        field._fill(at.tolist())
    nfe = 0
    width = max(map(len, rows))  # the last stage reads the step's first
    x = np.array(x_T, dtype=float)
    stage = np.empty(x.shape)
    term = np.empty(x.shape)
    finite = np.empty(x.shape, dtype=bool)
    buffer = []  # most recent evaluation first
    pool = None
    try:
        if s is not None:
            submit = _Drawn
            if _worker_pays(x):
                from concurrent.futures import ThreadPoolExecutor

                pool = ThreadPoolExecutor(1)
                submit = pool.submit
            # the step leaving node i adds noise[i % 2]
            noise = (np.empty(x.shape), np.empty(x.shape))
            ahead = submit(_draw, seed, 1, s[n - 1], noise[n % 2])
        for i in range(n, 0, -1):
            if s is not None:
                drawing = ahead
                if i > 1:
                    ahead = submit(_draw, seed, 2 + n - i, s[i - 2], noise[(i - 1) % 2])
            y = x
            for k in range((i - 1) * stages, i * stages):
                eps = field(y, at[k])
                nfe += 1
                if np.may_share_memory(eps, y):
                    eps = np.copy(eps)
                buffer.insert(0, eps)
                del buffer[width:]
                y = x if k == i * stages - 1 else stage
                np.multiply(x, psi[k], out=y)
                row = rows[k]
                for j in range(row.size):
                    np.multiply(row[j], buffer[j], out=term)
                    y += term
            if s is not None:
                x += drawing.result()
            if not np.isfinite(x, out=finite).all():
                if not nan_diverged:
                    t = times[i - 1]
                    raise DivergenceError(f"{sampler} diverged stepping into node {i - 1} "
                                          f"(t={t})", step_index=i - 1, time=t)
                x[~finite] = np.nan
            if states is not None:
                states[i - 1] = x
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return x[()], nfe


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


def _zero_order_plan(grid: TimeGrid, psi, c, order=None, noise=None) -> WeightTable:
    """Plan with a_i = psi[i - 1] and the one-entry row c[i - 1]."""
    return WeightTable(order=order, times=grid.times, psi=psi, c=tuple(c[:, None]),
                       noise=noise)


def _euler_plan(spec: DiffusionSpec, grid: TimeGrid, scale: float = 1.0,
                noise=None) -> WeightTable:
    """euler's plan, with c times ``scale`` (exact at 1) and the step noise
    scales ``noise``."""
    t, t_prev = grid.times[1:], grid.times[:-1]
    dt = t - t_prev
    return _zero_order_plan(grid, 1.0 - spec.f(t) * dt,
                            scale * (-0.5 * spec.g2(t) / spec.L(t) * dt), noise=noise)


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
    return _zero_order_plan(grid, *_ddim_coeffs(spec, grid.times[1:], grid.times[:-1]), order=0)


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
    exactly ddim's.  ddim's c is mu_{i-1} (rho_{i-1} - rho_i), so the
    blend is Adams-Bashforth in rho with the weights of even steps; on a
    grid whose steps in rho are uneven the plan carries a run note
    saying so."""
    _check_ipndm_order(r)
    psi, c = _ddim_coeffs(spec, grid.times[1:], grid.times[:-1])
    n = grid.n_steps
    rows = tuple(c_i * np.array(IPNDM_BLEND[min(r, n - i)], dtype=float)
                 for i, c_i in enumerate(c, 1))
    spacing = np.diff(grid.rho_values(spec))
    uneven = spacing.size > 1 and (spacing.max() - spacing.min()) > 1e-9 * spacing.mean()
    notes = ("blend weights assume even steps in rho; the grid's are uneven",) if uneven else ()
    return WeightTable(order=r, times=grid.times, psi=psi, c=rows, notes=notes)


def _sddim_plan(spec: DiffusionSpec, grid: TimeGrid, eta: float) -> WeightTable:
    """ddim-shaped plan with the noise scales s (None when eta = 0)."""
    psi, c, s = _sddim_coeffs(spec, grid.times[1:], grid.times[:-1], eta)
    return _zero_order_plan(grid, psi, c, noise=s if eta > 0.0 else None)


def _check_lam(lam: float) -> float:
    """1 + lam^2 of the reverse-time family; raises :class:`ParameterError`
    unless lam >= 0 and that is finite."""
    lam = float(lam)
    scale = 1.0 + lam * lam  # a float product overflows to inf, not an error
    if not (lam >= 0.0 and math.isfinite(scale)):
        raise ParameterError(f"lambda must be >= 0 with 1 + lambda^2 finite, got {lam}")
    return scale


def _em_plan(spec: DiffusionSpec, lam: float, dt: float, t0: float) -> WeightTable:
    """The Euler-Maruyama step of the reverse-time family on the grid of
    :func:`~diffint.oracle.fixed_step_times` from t_end down to t0:
    euler's plan with c times (1 + lam^2) and the noise scales
    s = lam sqrt(g2) sqrt(h) (None when lam = 0)."""
    scale = _check_lam(lam)
    grid = TimeGrid(fixed_step_times(spec.t_end, t0, dt)[::-1])
    t = grid.times[1:]
    s = lam * np.sqrt(spec.g2(t)) * np.sqrt(t - grid.times[:-1]) if lam > 0 else None
    return _euler_plan(spec, grid, scale, s)


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


def _rho_rk_plan(spec: DiffusionSpec, grid: TimeGrid, method: str):
    """Classical explicit Runge-Kutta in rho with the ``RK_METHODS``
    tableau ``method``, on d y / d rho = eps(mu(t) y, t), y = x / mu, as
    a stage plan in x: with h = rho_{i-1} - rho_i, stage s of step i
    evaluates the field at t(rho_i + c_s h) on x_s = (mu_s / mu_i) x_i +
    mu_s h sum_m a_sm k_m, and the step is x_{i-1} = (mu_{i-1} / mu_i)
    x_i + mu_{i-1} h sum_m b_m k_m.  All interior stage times of the run
    are mapped back through t(rho) in one call; interval endpoints reuse
    the grid's own times so no inversion error enters there.  A stage
    time that lands below t_0 (roundoff in the inversion) is clamped to
    t_0, with one plan note per stage evaluated there.
    """
    c, a, b = RK_METHODS[method]
    times, rho = grid.times, grid.rho_values(spec)
    mu = spec.mu(times)
    h = rho[:-1] - rho[1:]
    at = {0.0: (times[1:], mu[1:]), 1.0: (times[:-1], mu[:-1])}  # offset -> (t, mu) by step
    notes = ()
    inner = sorted(set(c) - {0.0, 1.0})  # rk4's two stages at 1/2 share one
    if inner:
        t_inner = t_of_rho(spec, rho[1:, None] + np.array(inner) * h[:, None])
        clamped = t_inner < grid.t0
        t_inner = np.where(clamped, grid.t0, t_inner)
        at.update(zip(inner, zip(t_inner.T, spec.mu(t_inner).T)))
        clamped = clamped[:, [inner.index(c_s) for c_s in c if c_s in inner]]
        notes = tuple(f"stage time clamped to t0 at step {grid.n_steps - k}"
                      for k in np.nonzero(clamped[::-1])[0])
    # mu of the state each evaluation sets: the next stage's, then x_{i-1}'s
    mu_next = [at[c_s][1] for c_s in c[1:]] + [mu[:-1]]
    # each evaluation's weights, most recent first, less the oldest zero ones
    weights = [w[::-1][: len(w) - next(j for j, v in enumerate(w) if v)] for w in a[1:] + (b,)]
    rows = [(m * h)[:, None] * np.array(w) for m, w in zip(mu_next, weights)]
    return WeightTable(order=None, times=times,
                       psi=(np.column_stack(mu_next) / mu[1:, None]).ravel(),
                       c=tuple(chain.from_iterable(zip(*rows))),
                       eval_times=np.column_stack([at[c_s][0] for c_s in c]), notes=notes)


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
    The run goes through :func:`_execute`, which alone calls the field.
    """
    plan = _em_plan(spec, lam, dt, t0)
    x = draw_terminal_states(spec, seed, n_traj)
    return _execute("em", plan, field, x, seed=seed, nan_diverged=True)[0]


# public name -> (plan builder (spec, grid, order, eta) -> plan; the
# arguments the sampler reads -> their range checks).  The builders resolve
# tab_weights, rho_ab_weights, transition and t_of_rho when called, so the
# names can be rebound.
_SAMPLERS = {
    "euler": (lambda spec, grid, order, eta: _euler_plan(spec, grid), {}),
    "ei_score": (lambda spec, grid, order, eta: _ei_score_plan(spec, grid), {}),
    "ddim": (lambda spec, grid, order, eta: _ddim_plan(spec, grid), {}),
    "tab": (lambda spec, grid, order, eta: tab_weights(spec, grid, order),
            {"order": _check_order}),
    "rho_ab": (lambda spec, grid, order, eta: _rho_ab_plan(spec, grid, order),
               {"order": _check_order}),
    "rho_mid": (lambda spec, grid, order, eta: _rho_rk_plan(spec, grid, "midpoint"), {}),
    "rho_heun2": (lambda spec, grid, order, eta: _rho_rk_plan(spec, grid, "heun2"), {}),
    "rho_kutta3": (lambda spec, grid, order, eta: _rho_rk_plan(spec, grid, "kutta3"), {}),
    "rho_rk4": (lambda spec, grid, order, eta: _rho_rk_plan(spec, grid, "rk4"), {}),
    "ipndm": (lambda spec, grid, order, eta: _ipndm_plan(spec, grid, order),
              {"order": _check_ipndm_order}),
    "sddim": (lambda spec, grid, order, eta: _sddim_plan(spec, grid, eta), {"eta": _check_eta}),
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
    for key, check in _sampler(name)[1].items():
        check(args[key])


def run_sampler(name: str, spec: DiffusionSpec, field, grid: TimeGrid, x_T, *,
                order: int = 0, eta: float = 0.0, seed: int | None = None) -> SolverRun:
    """Run sampler ``name`` (one of ``SAMPLER_NAMES``) from ``x_T`` at the
    last node of ``grid``, recording the state at every node.  A sampler
    ignores an ``order`` or ``eta`` it does not read; ``sddim`` needs a
    ``seed``."""
    build = _sampler(name)[0]
    if name == "sddim" and seed is None:
        raise ParameterError("sddim needs a seed")
    plan = build(spec, grid, order, eta)
    x = np.asarray(x_T, dtype=float)
    states = np.empty((grid.n_steps + 1,) + x.shape)
    states[grid.n_steps] = x
    _, nfe = _execute(name, plan, field, x, seed=seed, states=states)
    return SolverRun(name, plan.order, grid, states, nfe, notes=plan.notes)
