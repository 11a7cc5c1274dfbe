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
* The field, :func:`score` and each ``pf_loglik`` stage form the
  marginal's means and variances directly (``_marginal``) instead of
  building a :class:`GaussianMixture`, and every mixture evaluation
  runs as one plain-numpy kernel whose log-sum-exp (``_logsumexp``)
  repeats ``scipy.special.logsumexp``'s float64 steps, so the results
  have the bits of ``marginal_at(gmm, spec, t).score(x)``.

All operations are pure functions of their inputs (plus an explicit
seed for the stochastic ones), so instances can be shared freely
across threads.  Every random draw comes from :func:`normals`, Philox
keyed by the two words (seed, stream): stream 0 holds the initial
states of a batch and stream 1 + k the noise of the k-th step taken,
with trajectory i at position i of each.  A shorter draw is a prefix
of a longer one, so a trajectory sees the same draws at every batch
size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionSpec
from .errors import DivergenceError, DomainError, OracleTrustError, ParameterError

__all__ = [
    "GaussianMixture",
    "Trajectory",
    "marginal_at",
    "score",
    "EpsilonField",
    "epsilon_field",
    "fixed_step_times",
    "reference_solve",
    "reference_states",
    "reference_self_check",
    "em_simulate",
    "em_terminal_batch",
    "draw_terminal_states",
    "normals",
    "pf_loglik",
]

_VARIANCE_FLOOR = 1e-300


def _logsumexp(a, keepdims=False):
    """``scipy.special.logsumexp(a, axis=0, keepdims=keepdims)`` for a
    real float64 ``a``, bit for bit, without scipy's array-API dispatch.

    The steps are scipy 1.17's, in its order: the max and its tie count
    m, the sum of exp(a - max) with the max entries set to -inf, then
    log1p(s/m) + log(m) + max, replaced by log(sum(exp(a))) where it is
    not finite.  scipy's sign bookkeeping and its s == 0 guard never
    change a result here (s >= 0, and s is nan where m = 0), so they are
    left out.
    """
    # ufunc.reduce is np.max / np.sum without their Python-level wrappers
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum.reduce(a, axis=0, keepdims=True)
        at_max = a == a_max
        m = np.add.reduce(at_max, axis=0, keepdims=True, dtype=float)
        s = np.add.reduce(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=0, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.add.reduce(np.exp(a), axis=0, keepdims=True))
            out = np.where(finite, out, direct)
    if not keepdims:
        out = out[0]
    return out[()] if out.ndim == 0 else out


def _log_terms(x, weights, means, var):
    """log w_k + log N(x; m_k, var_k) with the components on axis 0,
    plus x - m_k and the variances broadcast against x."""
    x = np.asarray(x, dtype=float)
    shape = (weights.size,) + (1,) * x.ndim
    var = var.reshape(shape)
    dev = x - means.reshape(shape)
    log_terms = (
        np.log(weights.reshape(shape)) - 0.5 * np.log(2 * np.pi * var)
        - 0.5 * dev**2 / var
    )
    return dev, var, log_terms


def _responsibilities(x, weights, means, var):
    """Posterior component weights at x, the component scores
    -(x - m_k) / var_k and the broadcast variances."""
    dev, var, log_terms = _log_terms(x, weights, means, var)
    resp = np.exp(log_terms - _logsumexp(log_terms, keepdims=True))
    return resp, -dev / var, var


def _score(x, weights, means, var):
    """Score of the mixture (weights, means, var) at x."""
    resp, slopes, _ = _responsibilities(x, weights, means, var)
    return np.add.reduce(resp * slopes, axis=0)


def _pow_square(s):
    """s**2 elementwise through the C library's pow, as numpy squares a
    float64 scalar; an array it squares by multiplication, which differs
    in the last bit for about one value in a thousand."""
    return np.array([v**2 for v in np.ravel(s).tolist()]).reshape(np.shape(s))


def _score_pair(x, weights, means, var):
    """Score of the mixture and its x-derivative, from one set of log
    terms and one logsumexp.  The score is squared as for a scalar x,
    so an array x gives the bits of one call per element."""
    resp, slopes, var = _responsibilities(x, weights, means, var)
    s = np.sum(resp * slopes, axis=0)
    return s, np.sum(resp * (slopes**2 - 1.0 / var), axis=0) - _pow_square(s)


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
        if not (np.isfinite(w).all() and np.isfinite(m).all() and np.isfinite(s).all()):
            raise ParameterError("weights, means, stds must be finite")
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

    def logpdf(self, x):
        _, _, log_terms = _log_terms(x, self.weights, self.means, self.stds**2)
        return _logsumexp(log_terms)

    def score(self, x):
        """Gradient of the log density."""
        return _score(x, self.weights, self.means, self.stds**2)

    def score_dx(self, x):
        """Derivative of the score (exact divergence in the scalar case)."""
        return _score_pair(x, self.weights, self.means, self.stds**2)[1]

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


def _marginal(gmm: GaussianMixture, spec: DiffusionSpec, t: float):
    """L(t) and the means and variances of the time-t marginal, with the
    bits of :func:`marginal_at`'s mixture, without building and
    validating one; raises :class:`DomainError` when a variance
    underflows."""
    mu_t = float(spec.mu(t))
    l_t = float(spec.L(t))
    total_var = (mu_t * gmm.stds) ** 2 + l_t**2
    if (total_var < _VARIANCE_FLOOR).any():
        raise DomainError(f"marginal variance underflow at t={t}")
    return l_t, mu_t * gmm.means, np.sqrt(total_var) ** 2


def score(gmm: GaussianMixture, spec: DiffusionSpec, x, t: float):
    """Exact score of the time-t marginal, evaluated elementwise."""
    _, means, var = _marginal(gmm, spec, t)
    return _score(x, gmm.weights, means, var)


class EpsilonField:
    """Noise-prediction field eps(x, t) = -L(t) * score(x, t) of a mixture."""

    def __init__(self, gmm: GaussianMixture, spec: DiffusionSpec):
        self.gmm = gmm
        self.spec = spec

    def __call__(self, x, t: float):
        l_t, means, var = _marginal(self.gmm, self.spec, t)
        return -l_t * _score(x, self.gmm.weights, means, var)

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

    Fixed-step classical RK4 (:func:`reference_states` on
    :func:`fixed_step_times`); ``dt`` must lie in (0, 1e-3] so that the
    result can serve as the reference for every error metric in the
    package (run :func:`reference_self_check` before trusting it for
    a new oracle).
    """
    if t0 <= 0:
        raise ParameterError("t0 must be positive")
    times = fixed_step_times(spec.t_end, t0, dt)
    states = reference_states(spec, field, x_T, times[::-1], dt)[::-1]
    return Trajectory(times=times, states=states)


def reference_states(
    spec: DiffusionSpec, field, x_T, times, dt: float = 1e-3
) -> np.ndarray:
    """Reference states aligned with ``times`` (strictly increasing).

    Integration starts at times[-1] with state x_T and proceeds
    downward; the returned array is indexed like ``times`` (entry i is
    the state at times[i], entry -1 the initial condition).
    """
    _check_step(dt)
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


def _check_step(dt: float):
    """Raise :class:`ParameterError` unless 0 < dt <= 1e-3, the step
    bound of every fixed-step oracle solve (reference, EM, likelihood)."""
    if not 0 < dt <= 1e-3:
        raise ParameterError(f"fixed-step oracle solves require 0 < dt <= 1e-3, got {dt}")


def fixed_step_times(t_hi: float, t_lo: float, dt: float) -> np.ndarray:
    """Equal steps of at most ``dt`` (checked by :func:`_check_step`) from
    t_hi down to t_lo, endpoints included."""
    _check_step(dt)
    n = max(1, int(np.ceil((t_hi - t_lo) / dt - 1e-12)))
    return np.linspace(t_hi, t_lo, n + 1)


def normals(seed: int, stream: int, n) -> np.ndarray:
    """Standard normals ``standard_normal(n)`` of Philox keyed by the two
    words (seed, stream), 0 <= seed, stream < 2**64.  The draw of a
    smaller n is a prefix of the draw of a larger one."""
    return np.random.Generator(np.random.Philox(key=seed + (stream << 64))).standard_normal(n)


def draw_terminal_states(spec: DiffusionSpec, seed: int, n: int) -> np.ndarray:
    """n draws from the terminal law N(0, pi_std^2): draw i is pi_std
    times position i of :func:`normals` stream 0 of ``seed``.  They are
    the initial states of :func:`em_terminal_batch`'s trajectories, so
    deterministic and stochastic batch runs start from the same states,
    and the first n draws are the same for every larger n."""
    return spec.pi_std * normals(seed, 0, n)


def _em_step(spec: DiffusionSpec, field, lam: float, times, k: int, x, noise):
    """Euler-Maruyama step k, from times[k] down to times[k+1];
    ``noise`` is its standard-normal draw (unused when lam = 0)."""
    t = times[k]
    h = times[k] - times[k + 1]
    s_val = -field(x, t) / spec.L(t)
    drift = spec.f(t) * x - 0.5 * (1 + lam**2) * spec.g2(t) * s_val
    x = x - drift * h
    if lam > 0:
        x = x + lam * np.sqrt(spec.g2(t)) * np.sqrt(h) * noise
    return x


def _em(spec: DiffusionSpec, field, lam: float, x, dt: float, t0: float, seed: int,
        nan_diverged: bool):
    """The EM loop from t_end down to t0 on states x: step k draws its
    noise from stream 1 + k of ``seed``, state i at position i.  A
    non-finite state is set to NaN given ``nan_diverged``, and raises
    :class:`DivergenceError` otherwise."""
    if lam < 0:
        raise ParameterError(f"lam must be >= 0, got {lam}")
    times = fixed_step_times(spec.t_end, t0, dt)
    for k in range(times.size - 1):
        noise = normals(seed, 1 + k, np.shape(x)) if lam > 0 else None
        x = _em_step(spec, field, lam, times, k, x, noise)
        bad = ~np.isfinite(x)
        if bad.any():
            if not nan_diverged:
                raise DivergenceError(
                    f"EM simulation diverged at step {k} (t={times[k]})",
                    step_index=k,
                    time=times[k],
                )
            x[bad] = np.nan
    return x


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
    reverse SDE.  Deterministic given ``rng_seed``: step k takes its
    noise from :func:`normals` stream 1 + k of that seed, so a vector
    ``x_T`` gets the noise :func:`em_terminal_batch` gives its
    trajectories.
    """
    return _em(spec, field, lam, np.asarray(x_T, dtype=float), dt, t0, rng_seed,
               nan_diverged=False)


def em_terminal_batch(
    spec: DiffusionSpec,
    field,
    lam: float,
    dt: float,
    t0: float,
    seed: int,
    n_traj: int,
) -> np.ndarray:
    """Terminal states of ``n_traj`` independent EM trajectories.

    Trajectory i starts from draw i of :func:`draw_terminal_states` and
    takes the noise of step k from position i of :func:`normals` stream
    1 + k, so its result does not depend on ``n_traj``; the steps are
    :func:`em_simulate`'s.  Non-finite trajectories are returned as NaN
    rather than raising.
    """
    x = draw_terminal_states(spec, seed, n_traj)
    return _em(spec, field, lam, x, dt, t0, seed, nan_diverged=True)


def _marginal_score_pair(gmm: GaussianMixture, spec: DiffusionSpec, x, t: float):
    """``marginal_at(gmm, spec, t).score(x)`` and ``.score_dx(x)``, bit for
    bit, from the marginal's means and variances without building and
    validating the marginal mixture."""
    _, means, var = _marginal(gmm, spec, t)
    return _score_pair(x, gmm.weights, means, var)


def pf_loglik(gmm: GaussianMixture, spec: DiffusionSpec, x0, dt: float = 1e-3):
    """Exact-divergence log-likelihood along the sampling ODE.

    Integrates the scalar state together with the accumulated
    divergence of the ODE drift forward from (x0, 0) to t_end, then
    evaluates the terminal density under the pushed-forward mixture:

        log p_0(x0) = log p_T(x_T) + int_0^T  d(drift)/dx  dt.

    p_0 here is the diffusion's time-0 marginal: equal to the data
    density whenever L(0) = 0 (the VP preset), and the data convolved
    with N(0, L(0)^2) otherwise (the VE preset's noise floor).

    Scalar case only: an array ``x0`` holds independent points, which
    are integrated together and give the same bits as one call per
    point.  A point whose state or divergence turns non-finite fails
    the whole call with :class:`DivergenceError`.  Returns nats.
    """
    _check_step(dt)
    x = np.asarray(x0, dtype=float)
    acc = np.zeros_like(x)

    def rhs(state_x, t):
        s, s_dx = _marginal_score_pair(gmm, spec, state_x, t)
        f_t = float(spec.f(t))
        g2_t = float(spec.g2(t))
        return f_t * state_x - 0.5 * g2_t * s, f_t - 0.5 * g2_t * s_dx

    n = max(1, int(np.ceil(spec.t_end / dt - 1e-12)))
    h = spec.t_end / n
    t = 0.0
    for k in range(n):
        k1x, k1a = rhs(x, t)
        k2x, k2a = rhs(x + 0.5 * h * k1x, t + 0.5 * h)
        k3x, k3a = rhs(x + 0.5 * h * k2x, t + 0.5 * h)
        k4x, k4a = rhs(x + h * k3x, t + h)
        x = x + h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        acc = acc + h * (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(acc))):
            raise DivergenceError(
                f"likelihood ODE diverged at step {k}", step_index=k, time=t
            )
        t += h
    terminal = marginal_at(gmm, spec, spec.t_end)
    return terminal.logpdf(x) + acc
