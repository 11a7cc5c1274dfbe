"""Analytic ground truth: Gaussian-mixture marginals, exact scores,
a reference ODE solver, a stochastic simulator, and exact likelihood.

A linear diffusion pushes a Gaussian mixture forward to another
Gaussian mixture: component k of the data law N(m_k, s_k^2) becomes
N(mu(t) m_k, mu(t)^2 s_k^2 + L(t)^2) with unchanged weight.  Every
quantity a sampler consumes (score, noise prediction) is therefore
available in closed form, which is what makes the integrators in this
package testable without a trained network.

Conventions:

* ``score(x, t)`` is the gradient of the log marginal density.
* The noise-prediction field is eps(x, t) = -L(t) * score(x, t); it is
  the whitened quantity a denoising network would regress, and stays
  O(1) near t = 0 where the raw score blows up for concentrated data.
* Arrays are processed elementwise, so a vector input doubles as a
  batch of independent scalar states (and, for multi-axis arrays, as a
  per-axis factorized product distribution with iid axes).

All operations are pure functions of their inputs (plus an explicit
seed for the stochastic ones), so instances can be shared freely
across threads; Monte-Carlo batching derives one child stream per
trajectory as ``seed XOR index``, making results independent of batch
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .diffusion import DiffusionSpec
from .errors import DivergenceError, DomainError, OracleTrustError, ParameterError

__all__ = [
    "GaussianMixture",
    "Trajectory",
    "marginal_at",
    "score",
    "EpsilonField",
    "epsilon_field",
    "reference_solve",
    "reference_states",
    "reference_self_check",
    "em_simulate",
    "em_terminal_batch",
    "trajectory_streams",
    "pf_loglik",
]

_VARIANCE_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """A one-dimensional Gaussian mixture with exact density and score."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        m = np.atleast_1d(np.asarray(self.means, dtype=float))
        s = np.atleast_1d(np.asarray(self.stds, dtype=float))
        if not (w.size == m.size == s.size) or w.size < 1:
            raise ParameterError("weights, means, stds must share a length >= 1")
        if np.any(w <= 0):
            raise ParameterError("mixture weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError(f"weights sum to {w.sum()!r}, expected 1 within 1e-12")
        if np.any(s <= 0):
            raise ParameterError("component stds must be strictly positive")
        for name, arr in (("weights", w), ("means", m), ("stds", s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return self.weights.size

    def _log_terms(self, x):
        x = np.asarray(x, dtype=float)
        var = self.stds**2
        shape = (self.n_components,) + (1,) * x.ndim
        w = self.weights.reshape(shape)
        mean = self.means.reshape(shape)
        var = var.reshape(shape)
        log_terms = (
            np.log(w) - 0.5 * np.log(2 * np.pi * var) - 0.5 * (x - mean) ** 2 / var
        )
        return x, mean, var, log_terms

    def logpdf(self, x):
        _, _, _, log_terms = self._log_terms(x)
        return logsumexp(log_terms, axis=0)

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def score(self, x):
        """Gradient of the log density."""
        x, mean, var, log_terms = self._log_terms(x)
        resp = np.exp(log_terms - logsumexp(log_terms, axis=0, keepdims=True))
        return np.sum(resp * (-(x - mean) / var), axis=0)

    def score_dx(self, x):
        """Derivative of the score (exact divergence in the scalar case)."""
        x, mean, var, log_terms = self._log_terms(x)
        resp = np.exp(log_terms - logsumexp(log_terms, axis=0, keepdims=True))
        a = -(x - mean) / var
        first = np.sum(resp * (a**2 - 1.0 / var), axis=0)
        return first - np.sum(resp * a, axis=0) ** 2

    def mean(self) -> float:
        return float(np.sum(self.weights * self.means))

    def variance(self) -> float:
        second = np.sum(self.weights * (self.stds**2 + self.means**2))
        return float(second - self.mean() ** 2)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        ks = rng.choice(self.n_components, size=n, p=self.weights)
        return self.means[ks] + self.stds[ks] * rng.standard_normal(n)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded along an integration, in integration order."""

    times: np.ndarray
    states: np.ndarray

    @property
    def terminal(self):
        return self.states[-1]


def marginal_at(gmm: GaussianMixture, spec: DiffusionSpec, t: float) -> GaussianMixture:
    """Forward marginal of the mixture at time t (again a mixture)."""
    mu_t = float(spec.mu(t))
    l_t = float(spec.L(t))
    return GaussianMixture(
        weights=gmm.weights,
        means=mu_t * gmm.means,
        stds=np.sqrt((mu_t * gmm.stds) ** 2 + l_t**2),
    )


def score(gmm: GaussianMixture, spec: DiffusionSpec, x, t: float):
    """Exact score of the time-t marginal, evaluated elementwise."""
    mu_t = float(spec.mu(t))
    l_t = float(spec.L(t))
    total_var = (mu_t * gmm.stds) ** 2 + l_t**2
    if np.any(total_var < _VARIANCE_FLOOR):
        raise DomainError(f"marginal variance underflow at t={t}")
    return marginal_at(gmm, spec, t).score(x)


class EpsilonField:
    """Noise-prediction field eps(x, t) = -L(t) * score(x, t) of a mixture."""

    def __init__(self, gmm: GaussianMixture, spec: DiffusionSpec):
        self.gmm = gmm
        self.spec = spec

    def __call__(self, x, t: float):
        return -float(self.spec.L(t)) * score(self.gmm, self.spec, x, t)

    def score(self, x, t: float):
        return score(self.gmm, self.spec, x, t)


def epsilon_field(gmm: GaussianMixture, spec: DiffusionSpec) -> EpsilonField:
    return EpsilonField(gmm, spec)


def ode_rhs(spec: DiffusionSpec, field, x, t: float):
    """Right side of the sampling ODE in noise-prediction form:
    dx/dt = f(t) x + g2(t) / (2 L(t)) * eps(x, t)."""
    return spec.f(t) * x + 0.5 * spec.g2(t) / spec.L(t) * field(x, t)


def _rk4_span(spec, field, x, t_hi: float, t_lo: float, dt: float):
    """Classical RK4 from t_hi down to t_lo with fixed step <= dt."""
    n = max(1, int(np.ceil((t_hi - t_lo) / dt - 1e-12)))
    h = (t_hi - t_lo) / n
    t = t_hi
    for k in range(n):
        k1 = ode_rhs(spec, field, x, t)
        k2 = ode_rhs(spec, field, x - 0.5 * h * k1, t - 0.5 * h)
        k3 = ode_rhs(spec, field, x - 0.5 * h * k2, t - 0.5 * h)
        k4 = ode_rhs(spec, field, x - h * k3, t - h)
        x = x - h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"reference solve diverged at step {k} (t={t - h})",
                step_index=k,
                time=t - h,
            )
        t -= h
    return x


def reference_solve(
    spec: DiffusionSpec, field, x_T, dt: float = 1e-3, t0: float = 1e-3
) -> Trajectory:
    """Ground-truth solve of the sampling ODE, t_end down to t0.

    Fixed-step classical RK4; ``dt`` must be <= 1e-3 so that the
    result can serve as the reference for every error metric in the
    package (run :func:`reference_self_check` before trusting it for
    a new oracle).
    """
    if dt > 1e-3:
        raise ParameterError(f"reference solver requires dt <= 1e-3, got {dt}")
    if t0 <= 0:
        raise ParameterError("t0 must be positive")
    n = max(1, int(np.ceil((spec.t_end - t0) / dt - 1e-12)))
    times = np.linspace(spec.t_end, t0, n + 1)
    x = np.asarray(x_T, dtype=float)
    states = np.empty((n + 1,) + x.shape)
    states[0] = x
    for k in range(n):
        x = _rk4_span(spec, field, x, times[k], times[k + 1], dt)
        states[k + 1] = x
    return Trajectory(times=times, states=states)


def reference_states(
    spec: DiffusionSpec, field, x_T, times, dt: float = 1e-3
) -> np.ndarray:
    """Reference states aligned with ``times`` (strictly increasing).

    Integration starts at times[-1] with state x_T and proceeds
    downward; the returned array is indexed like ``times`` (entry i is
    the state at times[i], entry -1 the initial condition).
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(x_T, dtype=float)
    out = np.empty((times.size,) + x.shape)
    out[-1] = x
    for i in range(times.size - 1, 0, -1):
        x = _rk4_span(spec, field, x, times[i], times[i - 1], dt)
        out[i - 1] = x
    return out


def reference_self_check(
    spec: DiffusionSpec, field, x_T, dt: float = 1e-3, t0: float = 1e-3,
    tol: float = 1e-6,
) -> float:
    """Step-halving trust check for the reference solver.

    Solves at ``dt`` and ``dt/2`` and returns the max terminal gap;
    raises :class:`OracleTrustError` when it exceeds ``tol``.
    """
    coarse = reference_solve(spec, field, x_T, dt, t0).terminal
    fine = reference_solve(spec, field, x_T, dt / 2, t0).terminal
    gap = float(np.max(np.abs(coarse - fine)))
    if gap > tol:
        raise OracleTrustError(
            f"reference dt-halving changed the terminal state by {gap:.3e} > {tol:.1e}"
        )
    return gap


def _em_times(t_end: float, t0: float, dt: float) -> np.ndarray:
    n = max(1, int(np.ceil((t_end - t0) / dt - 1e-12)))
    return np.linspace(t_end, t0, n + 1)


def _em_step(spec: DiffusionSpec, field, lam: float, times, k: int, x, noise):
    """Euler-Maruyama step k, from times[k] down to times[k+1];
    ``noise[k]`` is its standard-normal draw (unused when lam = 0)."""
    t = times[k]
    h = times[k] - times[k + 1]
    s_val = -field(x, t) / spec.L(t)
    drift = spec.f(t) * x - 0.5 * (1 + lam**2) * spec.g2(t) * s_val
    x = x - drift * h
    if lam > 0:
        x = x + lam * np.sqrt(spec.g2(t)) * np.sqrt(h) * noise[k]
    return x


def trajectory_streams(spec: DiffusionSpec, seed: int, start: int, stop: int):
    """Yield (initial state, Philox stream keyed ``seed XOR i``) for each trajectory
    i in [start, stop); the state is pi_std times the stream's first normal."""
    for i in range(start, stop):
        rng = np.random.Generator(np.random.Philox(key=seed ^ i))
        yield spec.pi_std * rng.standard_normal(), rng


def em_simulate(
    spec: DiffusionSpec,
    field,
    lam: float,
    x_T,
    dt: float,
    t0: float,
    rng_seed: int,
):
    """Euler-Maruyama simulation of the reverse-time family

        dx = [f x - (1 + lam^2)/2 * g2 * score] dt + lam sqrt(g2) dw

    from t_end down to t0, with score = -eps / L taken from ``field``.
    lam = 0 recovers the deterministic sampling ODE; lam = 1 is the
    reverse SDE.  Deterministic given ``rng_seed``; the noise stream
    is Philox keyed by the seed, one draw per step.
    """
    if lam < 0:
        raise ParameterError(f"lam must be >= 0, got {lam}")
    if dt > 1e-3:
        raise ParameterError(f"em_simulate requires dt <= 1e-3, got {dt}")
    times = _em_times(spec.t_end, t0, dt)
    x = np.asarray(x_T, dtype=float)
    n = times.size - 1
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    noise = rng.standard_normal((n,) + x.shape) if lam > 0 else None
    for k in range(n):
        x = _em_step(spec, field, lam, times, k, x, noise)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"EM simulation diverged at step {k} (t={times[k]})",
                step_index=k,
                time=times[k],
            )
    return x


def em_terminal_batch(
    spec: DiffusionSpec,
    field,
    lam: float,
    dt: float,
    t0: float,
    seed: int,
    n_traj: int,
    chunk: int = 8192,
) -> np.ndarray:
    """Terminal states of ``n_traj`` independent EM trajectories.

    Trajectory i draws its initial state from N(0, pi_std^2) and its
    step noise from a private Philox stream keyed ``seed XOR i``, so
    the result is independent of ``chunk`` and identical to running
    :func:`em_simulate` one trajectory at a time.  Non-finite
    trajectories are returned as NaN rather than raising.
    """
    times = _em_times(spec.t_end, t0, dt)
    n = times.size - 1
    out = np.empty(n_traj)
    for lo in range(0, n_traj, chunk):
        hi = min(lo + chunk, n_traj)
        width = hi - lo
        x = np.empty(width)
        noise = np.empty((n, width)) if lam > 0 else None
        for j, (x_j, rng) in enumerate(trajectory_streams(spec, seed, lo, hi)):
            x[j] = x_j
            if lam > 0:
                noise[:, j] = rng.standard_normal(n)
        for k in range(n):
            x = _em_step(spec, field, lam, times, k, x, noise)
            bad = ~np.isfinite(x)
            if np.any(bad):
                x[bad] = np.nan
        out[lo:hi] = x
    return out


def pf_loglik(gmm: GaussianMixture, spec: DiffusionSpec, x0, dt: float = 1e-3):
    """Exact-divergence log-likelihood along the sampling ODE.

    Integrates the scalar state together with the accumulated
    divergence of the ODE drift forward from (x0, 0) to t_end, then
    evaluates the terminal density under the pushed-forward mixture:

        log p_0(x0) = log p_T(x_T) + int_0^T  d(drift)/dx  dt.

    p_0 here is the diffusion's time-0 marginal: equal to the data
    density whenever L(0) = 0 (the VP preset), and the data convolved
    with N(0, L(0)^2) otherwise (the VE preset's noise floor).

    Scalar case only (arrays are treated elementwise as independent
    scalar evaluations).  Returns nats.
    """
    if dt > 1e-3:
        raise ParameterError(f"pf_loglik requires dt <= 1e-3, got {dt}")
    x = np.asarray(x0, dtype=float)
    acc = np.zeros_like(x)

    def rhs(state_x, state_a, t):
        mt = marginal_at(gmm, spec, t)
        f_t = float(spec.f(t))
        g2_t = float(spec.g2(t))
        dx = f_t * state_x - 0.5 * g2_t * mt.score(state_x)
        da = f_t - 0.5 * g2_t * mt.score_dx(state_x)
        return dx, da

    n = max(1, int(np.ceil(spec.t_end / dt - 1e-12)))
    h = spec.t_end / n
    t = 0.0
    for k in range(n):
        k1x, k1a = rhs(x, acc, t)
        k2x, k2a = rhs(x + 0.5 * h * k1x, acc + 0.5 * h * k1a, t + 0.5 * h)
        k3x, k3a = rhs(x + 0.5 * h * k2x, acc + 0.5 * h * k2a, t + 0.5 * h)
        k4x, k4a = rhs(x + h * k3x, acc + h * k3a, t + h)
        x = x + h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        acc = acc + h * (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(acc))):
            raise DivergenceError(
                f"likelihood ODE diverged at step {k}", step_index=k, time=t
            )
        t += h
    terminal = marginal_at(gmm, spec, spec.t_end)
    return terminal.logpdf(x) + acc
