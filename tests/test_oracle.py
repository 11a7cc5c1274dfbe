import dataclasses
import sys
import threading
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from diffint import (
    DivergenceError,
    DomainError,
    GaussianMixture,
    ParameterError,
    VpSchedule,
    em_simulate,
    em_terminal_batch,
    epsilon_field,
    marginal_at,
    pf_loglik,
    reference_self_check,
    reference_solve,
    score,
    uniform,
    vesde,
    vpsde,
)
from diffint import oracle
from diffint.oracle import (
    _MEMO_SIZE,
    _score_pair,
    draw_terminal_states,
    normals,
    reference_states,
)
from diffint.samplers import euler_sample, run_sampler
from diffint.timegrid import TimeGrid

from helpers import central_difference, gaussian_pf_terminal


# -- GaussianMixture --------------------------------------------------


def test_mixture_validation():
    with pytest.raises(ParameterError):
        GaussianMixture([0.5, 0.6], [0.0, 1.0], [1.0, 1.0])  # weights sum != 1
    with pytest.raises(ParameterError):
        GaussianMixture([1.0], [0.0], [0.0])  # zero std
    with pytest.raises(ParameterError):
        GaussianMixture([], [], [])


def test_mixture_moments():
    gmm = GaussianMixture([0.5, 0.5], [1.0, -1.0], [0.2, 0.2])
    assert gmm.mean() == pytest.approx(0.0)
    assert gmm.variance() == pytest.approx(1.04)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=4),
    st.floats(min_value=-3, max_value=3),
)
def test_mixture_score_matches_logpdf_gradient(raw_weights, x):
    w = np.asarray(raw_weights)
    w = w / w.sum()
    means = np.linspace(-1.0, 1.0, w.size)
    stds = np.full(w.size, 0.7)
    gmm = GaussianMixture(w, means, stds)
    fd = central_difference(gmm.logpdf, x, 1e-6)
    assert np.isclose(float(gmm.score(x)), fd, rtol=1e-5, atol=1e-7)


def test_mixture_score_dx_matches_fd():
    gmm = GaussianMixture([0.3, 0.7], [-0.5, 1.2], [0.4, 0.9])
    rng = np.random.default_rng(0)
    for x in rng.uniform(-2, 3, 20):
        fd = central_difference(gmm.score, x, 1e-5)
        assert np.isclose(float(gmm.score_dx(x)), fd, rtol=1e-5, atol=1e-7)


# -- marginal_at ------------------------------------------------------


def test_marginal_identity_at_zero(vp):
    gmm = GaussianMixture([0.4, 0.6], [0.0, 2.0], [0.3, 0.5])
    pushed = marginal_at(gmm, vp, 0.0)
    assert np.array_equal(pushed.weights, gmm.weights)
    assert np.array_equal(pushed.means, gmm.means)
    assert np.array_equal(pushed.stds, gmm.stds)


def test_marginal_single_component_variance(vp):
    sched = VpSchedule()
    gmm = GaussianMixture([1.0], [0.0], [0.1])
    for t in (0.1, 0.5, 0.9):
        alpha = float(sched.alpha(t))
        pushed = marginal_at(gmm, vp, t)
        assert np.isclose(pushed.stds[0] ** 2, 0.01 * alpha + 1 - alpha, rtol=1e-12)


def test_marginal_weights_unchanged(vp):
    gmm = GaussianMixture([0.2, 0.3, 0.5], [0.0, 1.0, -1.0], [0.5, 0.5, 0.5])
    assert np.array_equal(marginal_at(gmm, vp, 0.7).weights, gmm.weights)


def test_marginal_pushforward_moments_match_simulation(vp):
    gmm = GaussianMixture([0.5, 0.5], [1.0, -1.0], [0.2, 0.2])
    rng = np.random.default_rng(11)
    t = 0.4
    x0 = gmm.sample(10000, rng)
    xt = float(vp.mu(t)) * x0 + float(vp.L(t)) * rng.standard_normal(x0.size)
    pushed = marginal_at(gmm, vp, t)
    pm = float(np.sum(pushed.weights * pushed.means))
    pv = float(
        np.sum(pushed.weights * (pushed.stds**2 + pushed.means**2)) - pm**2
    )
    se_mean = xt.std() / np.sqrt(xt.size)
    m4 = np.mean((xt - xt.mean()) ** 4)
    se_var = np.sqrt((m4 - xt.var() ** 2) / xt.size)
    assert abs(xt.mean() - pm) <= 3 * se_mean
    assert abs(xt.var() - pv) <= 3 * se_var


# -- score ------------------------------------------------------------


def test_score_zero_at_single_component_mean(vp):
    gmm = GaussianMixture([1.0], [0.7], [0.3])
    t = 0.35
    mean_t = float(vp.mu(t)) * 0.7
    assert float(score(gmm, vp, mean_t, t)) == pytest.approx(0.0, abs=1e-14)


def test_score_matches_density_gradient(vp):
    gmm = GaussianMixture([0.5, 0.5], [1.0, -1.0], [0.2, 0.2])
    rng = np.random.default_rng(12)
    for _ in range(50):
        t = rng.uniform(0.05, 1.0)
        x = rng.uniform(-2.5, 2.5)
        pushed = marginal_at(gmm, vp, t)
        fd = central_difference(pushed.logpdf, x, 1e-5)
        assert np.isclose(float(score(gmm, vp, x, t)), fd, rtol=1e-5, atol=1e-7)


def test_score_symmetric_midpoint_is_zero(vp):
    gmm = GaussianMixture([0.5, 0.5], [1.0, -1.0], [0.3, 0.3])
    assert float(score(gmm, vp, 0.0, 0.6)) == pytest.approx(0.0, abs=1e-14)


def test_score_variance_underflow_guard():
    from diffint import DiffusionSpec

    tiny = DiffusionSpec(
        f=lambda t: -400.0 * np.ones_like(np.asarray(t, dtype=float)),
        g2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        mu=lambda t: np.exp(-400.0 * np.asarray(t, dtype=float)),
        L=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        t_end=1.0,
    )
    gmm = GaussianMixture([1.0], [0.0], [1.0])
    with pytest.raises(DomainError):
        score(gmm, tiny, 0.0, 1.0)
    field = epsilon_field(gmm, tiny)
    for _ in range(2):  # a failure is never memoised
        with pytest.raises(DomainError):
            field(0.0, 1.0)
        with pytest.raises(DomainError):
            field.score(0.0, 1.0)


# -- mixture kernel ---------------------------------------------------


def _same_bits(got, want):
    return (
        type(got) is type(want)
        and np.shape(got) == np.shape(want)
        and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    )


LOGSUMEXP_BATCHES = [(), (0,), (5000,), (40, 30)]


# The kernel's log-sum-exp is a_max + log(sum(e)), not scipy's
# a_max + log1p(s / m) + log(m), so for two or more terms it may differ
# in the last bit (its accuracy is checked below).  It keeps scipy's
# bits for one term, non-finite ones included, and scipy's shapes.
@pytest.mark.parametrize(
    ("batch", "k"),
    [pytest.param(b, 1, id=f"batch{i}-1") for i, b in enumerate(LOGSUMEXP_BATCHES)]
    + [pytest.param((0,), k, id=f"batch1-{k}") for k in (2, 3, 4)],
)
def test_logsumexp_matches_scipy_bit_for_bit(k, batch):
    rng = np.random.default_rng(k)
    a = rng.normal(0.0, 1.0, (k,) + batch) * 10.0 ** rng.uniform(-3, 3, (k,) + batch)
    flat = a.reshape(k, -1)
    if flat.shape[1]:
        special = [np.inf, -np.inf, np.nan, 1e308, -1e308, 0.0, -0.0, 710.0, -745.0]
        hit = rng.random(flat.shape) < 0.1
        flat[hit] = rng.choice(special, hit.sum())
        flat[:, : flat.shape[1] // 4] = np.round(flat[:, : flat.shape[1] // 4])  # ties
        flat[-1, -10:] = flat[0, -10:]  # ties across every component
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # scipy's own log(0) at nan
        want = scipy.special.logsumexp(a, axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf, as in _shifted_weights
        assert _same_bits(oracle._log_sum(*oracle._shift(a)), want)


# K = 1, 2 and 3 components, and a tie: two equal components
KERNEL_MIXTURES = [
    ([1.0], [0.5], [0.25]),
    ([0.3, 0.7], [1.0, -0.5], [0.2, 0.4]),
    ([0.3, 0.5, 0.2], [1.0, -0.5, 0.1], [0.2, 0.4, 0.05]),
    ([0.25, 0.25, 0.5], [1.0, 1.0, -1.0], [0.2, 0.2, 0.3]),
]
ACCURACY_X = np.concatenate([np.linspace(-3.0, 3.0, 61), [-40.0, -15.0, 15.0, 40.0]])
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _decimal_mixture(weights, means, var, x):
    """logpdf, score and score_dx at x of the mixture with these float64
    weights, means and variances, in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(float(x))
        terms = []
        for w, m, v in zip(weights, means, var):
            w, dev, v = Decimal(float(w)), x - Decimal(float(m)), Decimal(float(v))
            terms.append((w.ln() - (2 * _PI * v).ln() / 2 - dev * dev / (2 * v), dev / v, v))
        a_max = max(a for a, _, _ in terms)
        e = [(a - a_max).exp() for a, _, _ in terms]
        total = sum(e)
        s = -sum(ek * slope for ek, (_, slope, _) in zip(e, terms)) / total
        s2 = sum(ek * (slope * slope - 1 / v) for ek, (_, slope, v) in zip(e, terms)) / total
        return a_max + total.ln(), s, s2 - s * s


def _rel_error(got, want):
    """max |got - want| / max(1, |want|) over the points."""
    return max(
        float(abs(Decimal(float(g)) - w) / max(Decimal(1), abs(w)))
        for g, w in zip(np.ravel(got), want)
    )


@pytest.mark.parametrize("mixture", KERNEL_MIXTURES)
@pytest.mark.parametrize("preset", ["vp", "ve"])
def test_kernel_matches_high_precision_reference(mixture, preset, request):
    spec = request.getfixturevalue(preset)
    gmm = GaussianMixture(*mixture)
    field = epsilon_field(gmm, spec)
    x = ACCURACY_X
    for t in (0.0, 1e-3, 0.37, spec.t_end):
        l_t, means, var, _ = oracle._marginal(gmm, spec, t)
        refs = [_decimal_mixture(gmm.weights, means, var, v) for v in x]
        logpdf, s, s_dx = ([r[i] for r in refs] for i in range(3))
        pushed = marginal_at(gmm, spec, t)
        assert _rel_error(field(x, t), [-Decimal(l_t) * v for v in s]) < 1e-13
        for got in (field.score(x, t), score(gmm, spec, x, t), pushed.score(x)):
            assert _rel_error(got, s) < 1e-13
        assert _rel_error(pushed.logpdf(x), logpdf) < 1e-13
        assert _rel_error(pushed.score_dx(x), s_dx) < 1e-12
        # what each pf_loglik stage evaluates
        pair = _score_pair(x, *field._marginal(t)[1:])
        assert _rel_error(pair[0], s) < 1e-13
        assert _rel_error(pair[1], s_dx) < 1e-12


# eight or more components is where numpy would sum a scalar x's terms
# pairwise
NINE = ([0.1] * 8 + [0.2], np.linspace(-2.0, 2.0, 9), [0.6] * 9)


@pytest.mark.parametrize("mixture", KERNEL_MIXTURES[:3] + [NINE])
@pytest.mark.parametrize("shape", [(5000,), (40, 30)])
def test_array_gives_the_bits_of_one_call_per_element(mixture, shape, vp, ve):
    gmm = GaussianMixture(*mixture)
    x = np.random.default_rng(len(shape)).normal(0.0, 3.0, shape)
    x.flat[:4] = (0.0, -0.0, gmm.means[0], -gmm.means[-1])
    for spec, t in ((vp, 0.37), (ve, 1e-3)):
        field = epsilon_field(gmm, spec)
        pushed = marginal_at(gmm, spec, t)
        for fn in (lambda v: field(v, t), pushed.score, pushed.score_dx, pushed.logpdf):
            want = np.array([fn(v) for v in x.ravel().tolist()]).reshape(shape)
            assert _same_bits(fn(x), want)


@pytest.mark.parametrize("mixture", KERNEL_MIXTURES[:2])
def test_kernel_non_finite_inputs(mixture, vp):
    gmm = GaussianMixture(*mixture)
    t = 0.37
    field = epsilon_field(gmm, vp)
    pushed = marginal_at(gmm, vp, t)
    x = np.array([np.inf, -np.inf, 1e200, -1e200, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # every log term is -inf at x = +-inf and where dev**2 overflows
        logpdf = pushed.logpdf(x)
        assert np.array_equal(logpdf[:4], np.full(4, -np.inf))
        assert np.isnan(logpdf[4])
        assert pushed.logpdf(np.inf) == -np.inf
        assert np.isnan(pushed.logpdf(np.nan))
        for got in (field(x, t), field.score(x, t), score(gmm, vp, x, t), pushed.score(x),
                    pushed.score_dx(x)):
            assert np.isnan(got).all()
        assert np.isnan(field(np.inf, t))
        # finite points with finite log terms raise no warning
        finite = np.array([-40.0, -1e10, 0.0, 1e10, 40.0])
        for fn in (lambda v: field(v, t), pushed.score, pushed.score_dx, pushed.logpdf):
            assert np.isfinite(fn(finite)).all()


# -- epsilon field ----------------------------------------------------


def test_eps_zero_at_marginal_mean(vp):
    gmm = GaussianMixture([1.0], [0.4], [0.2])
    field = epsilon_field(gmm, vp)
    t = 0.5
    assert float(field(float(vp.mu(t)) * 0.4, t)) == pytest.approx(0.0, abs=1e-14)


def test_eps_late_time_limit(vp):
    gmm = GaussianMixture([1.0], [0.0], [0.5])
    field = epsilon_field(gmm, vp)
    t = 1.0
    l_t = float(vp.L(t))
    var = float(vp.mu(t)) ** 2 * 0.25 + l_t**2
    for x in (-1.5, 0.3, 2.0):
        assert np.isclose(float(field(x, t)), x * l_t / var, rtol=1e-12)
        assert np.isclose(float(field(x, t)), x, rtol=1e-3)


def test_eps_score_consistency(vp):
    gmm = GaussianMixture([0.5, 0.5], [1.0, -1.0], [0.2, 0.2])
    field = epsilon_field(gmm, vp)
    rng = np.random.default_rng(13)
    for _ in range(20):
        t = rng.uniform(0.05, 1.0)
        x = rng.uniform(-2, 2)
        assert np.isclose(
            -float(field(x, t)) / float(vp.L(t)),
            float(score(gmm, vp, x, t)),
            rtol=1e-12,
        )


def test_eps_finite_everywhere(vp, bimodal_oracle):
    _, field = bimodal_oracle
    rng = np.random.default_rng(14)
    t = rng.uniform(1e-6, 1.0, 200)
    x = rng.uniform(-50, 50, 200)
    vals = np.array([field(xi, ti) for xi, ti in zip(x, t)])
    assert np.all(np.isfinite(vals))


# -- reference solver -------------------------------------------------


def test_reference_zero_field_is_constant(ve):
    traj = reference_solve(ve, lambda x, t: np.zeros_like(x), np.array([1.5, -2.0]))
    assert np.all(traj.states == traj.states[0])


def test_reference_self_check(vp, gauss_oracle, x_batch):
    _, field = gauss_oracle
    gap = reference_self_check(vp, field, x_batch)
    assert gap < 1e-6


def test_reference_matches_linear_closed_form(vp, x_batch):
    gmm = GaussianMixture([1.0], [0.0], [0.5])
    field = epsilon_field(gmm, vp)
    got = reference_solve(vp, field, x_batch).terminal
    expected = gaussian_pf_terminal(vp, 0.5, x_batch, 1e-3)
    assert np.max(np.abs(got - expected)) < 1e-6


def test_reference_rejects_coarse_dt(vp, gauss_oracle):
    _, field = gauss_oracle
    with pytest.raises(ParameterError):
        reference_solve(vp, field, 1.0, dt=5e-3)


def test_reference_batch_invariance(vp, gauss_oracle):
    _, field = gauss_oracle
    batch = np.array([0.5, -1.0, 2.0])
    together = reference_solve(vp, field, batch).terminal
    single = np.array(
        [float(reference_solve(vp, field, np.asarray(x)).terminal) for x in batch]
    )
    assert np.array_equal(together, single)


def test_reference_states_align_with_reference_solve(vp, gauss_oracle):
    _, field = gauss_oracle
    t0 = 1e-3
    traj = reference_solve(vp, field, 1.0, t0=t0)
    nodes = reference_states(vp, field, 1.0, traj.times[::-1])
    assert np.allclose(nodes[::-1], traj.states, atol=1e-12)


def test_reference_divergence_error(vp):
    exploding = lambda x, t: np.full_like(np.asarray(x, dtype=float), 1e308)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as err:
            reference_solve(vp, exploding, 1.0)
    assert err.value.step_index is not None


# -- hold-error parameterization ordering (concentrated data) ----------


def test_final_step_hold_error_prefers_eps_param(vp, concentrated_oracle):
    _, field = concentrated_oracle
    grid = np.linspace(np.sqrt(1e-3), 1.0, 11) ** 2
    states = reference_states(vp, field, 1.2, grid)
    t_hi, t_lo = grid[1], grid[0]
    taus = np.linspace(t_hi, t_lo, 10)[1:-1]
    tau_states = reference_states(vp, field, states[1], taus[::-1])[::-1]
    s_hold = field.score(states[1], t_hi)
    e_hold = field(states[1], t_hi)
    ds_score = [abs(field.score(x, t) - s_hold) for x, t in zip(tau_states, taus)]
    ds_eps = [abs(field(x, t) - e_hold) for x, t in zip(tau_states, taus)]
    assert np.mean(ds_score) > np.mean(ds_eps)


# -- EM simulation ----------------------------------------------------


def test_em_lambda_zero_matches_euler(vp, gauss_oracle):
    _, field = gauss_oracle
    dt, t0 = 1e-3, 1e-3
    n = int(round((vp.t_end - t0) / dt))
    em = em_simulate(vp, field, 0.0, 1.3, dt, t0, rng_seed=0)
    grid = TimeGrid(np.linspace(vp.t_end, t0, n + 1)[::-1].copy())
    eu = euler_sample(vp, field, grid, 1.3).terminal
    assert abs(float(em) - float(eu)) < 1e-12


def test_em_deterministic_given_seed(vp, gauss_oracle):
    _, field = gauss_oracle
    a = em_simulate(vp, field, 1.0, 0.7, 1e-3, 1e-3, rng_seed=42)
    b = em_simulate(vp, field, 1.0, 0.7, 1e-3, 1e-3, rng_seed=42)
    assert np.array_equal(a, b)


def test_em_rejects_bad_args(vp, gauss_oracle):
    _, field = gauss_oracle
    with pytest.raises(ParameterError):
        em_simulate(vp, field, -0.5, 1.0, 1e-3, 1e-3, rng_seed=0)
    with pytest.raises(ParameterError):
        em_simulate(vp, field, 1.0, 1.0, 5e-3, 1e-3, rng_seed=0)


# -- random streams ---------------------------------------------------


def test_seeds_draw_different_batches(vp):
    # each seed keys its own streams: at batch 64, seeds 0..63 share no
    # draw, so no two of them hold the same states in another order
    draws = [draw_terminal_states(vp, seed, 64) for seed in range(64)]
    assert len({tuple(np.sort(d)) for d in draws}) == 64
    assert np.unique(np.concatenate(draws)).size == 64 * 64


def test_streams_do_not_depend_on_batch_size(vp, gauss_oracle):
    _, field = gauss_oracle
    seed = 9
    assert np.array_equal(draw_terminal_states(vp, seed, 8),
                          draw_terminal_states(vp, seed, 64)[:8])
    small = em_terminal_batch(vp, field, 1.0, 1e-3, 1e-3, seed, 8)
    assert np.array_equal(small, em_terminal_batch(vp, field, 1.0, 1e-3, 1e-3, seed, 64)[:8])
    grid = uniform(1e-3, 1.0, 10)
    x = draw_terminal_states(vp, seed, 64)
    big = run_sampler("sddim", vp, field, grid, x, eta=1.0, seed=seed)
    small = run_sampler("sddim", vp, field, grid, x[:8], eta=1.0, seed=seed)
    assert np.array_equal(small.states, big.states[:, :8])


def test_em_batch_is_the_loop_on_its_streams(vp, gauss_oracle):
    # initial states from stream 0, the noise of step k from stream 1 + k
    _, field = gauss_oracle
    seed, n, lam, dt, t0 = 9, 5, 1.0, 1e-3, 1e-3
    terminal = em_terminal_batch(vp, field, lam, dt, t0, seed, n)
    x_t = vp.pi_std * normals(seed, 0, n)
    times = np.linspace(vp.t_end, t0, int(round((vp.t_end - t0) / dt)) + 1)
    x = x_t
    for k in range(times.size - 1):
        t = times[k]
        h = times[k] - times[k + 1]
        s_val = -field(x, t) / vp.L(t)
        drift = vp.f(t) * x - 0.5 * (1 + lam**2) * vp.g2(t) * s_val
        x = x - drift * h
        x = x + lam * np.sqrt(vp.g2(t)) * np.sqrt(h) * normals(seed, 1 + k, n)
    assert np.array_equal(terminal, x)
    # em_simulate runs the same loop on the same streams
    assert np.array_equal(terminal, em_simulate(vp, field, lam, x_t, dt, t0, rng_seed=seed))


@pytest.mark.parametrize("seed, stream", [(0, 0), (0, 1), (1, 0), (7919, 999),
                                          (2**64 - 1, 2**64 - 1)])
def test_normals_are_standard_normal(seed, stream):
    n = 20000
    z = normals(seed, stream, n)
    se_mean = z.std() / np.sqrt(n)
    se_var = np.sqrt((np.mean((z - z.mean()) ** 4) - z.var() ** 2) / n)
    assert abs(z.mean()) <= 3 * se_mean
    assert abs(z.var() - 1.0) <= 3 * se_var
    assert scipy.stats.kstest(z, "norm").pvalue > 1e-3


def test_normals_key_words_are_not_interchangeable():
    # (seed, stream) = (0, 1) and (1, 0) are different keys, and the two
    # streams of one seed are uncorrelated
    assert not np.array_equal(normals(0, 1, 8), normals(1, 0, 8))
    a, b = normals(3, 0, 20000), normals(3, 1, 20000)
    assert abs(np.corrcoef(a, b)[0, 1]) <= 3 / np.sqrt(a.size)


def test_em_standard_normal_mean(vp):
    # N(0, 1) data: the reverse-time family should return standard
    # normal terminals; 50k trajectory mean within 3 standard errors.
    gmm = GaussianMixture([1.0], [0.0], [1.0])
    field = epsilon_field(gmm, vp)
    terminal = em_terminal_batch(vp, field, 1.0, 1e-3, 1e-3, seed=0, n_traj=50000)
    assert np.all(np.isfinite(terminal))
    se = terminal.std() / np.sqrt(terminal.size)
    assert abs(terminal.mean()) <= 3 * se


# -- likelihood -------------------------------------------------------


def test_loglik_standard_normal_mode(vp):
    gmm = GaussianMixture([1.0], [0.0], [1.0])
    got = float(pf_loglik(gmm, vp, 0.0))
    assert abs(got - (-0.5 * np.log(2 * np.pi))) < 1e-3


def test_loglik_matches_gaussian_density(vp):
    gmm = GaussianMixture([1.0], [0.4], [0.8])
    x0 = np.random.default_rng(15).uniform(-1.5, 2.0, 10)
    exact = -0.5 * np.log(2 * np.pi * 0.8**2) - 0.5 * (x0 - 0.4) ** 2 / 0.8**2
    assert np.all(np.abs(pf_loglik(gmm, vp, x0) - exact) < 1e-3)


def test_loglik_matches_mixture_density(vp, bimodal_oracle):
    gmm, _ = bimodal_oracle
    x0 = np.random.default_rng(16).uniform(-2.0, 2.0, 10)
    assert np.all(np.abs(pf_loglik(gmm, vp, x0) - gmm.logpdf(x0)) < 1e-3)


def test_loglik_rejects_coarse_dt(vp, bimodal_oracle):
    gmm, _ = bimodal_oracle
    with pytest.raises(ParameterError):
        pf_loglik(gmm, vp, 0.0, dt=2e-3)


def test_loglik_on_ve_preset():
    # the VE preset's time-0 marginal carries the sigma_min noise
    # floor, so the likelihood ODE recovers data * N(0, sigma_min^2)
    spec = vesde(0.01, 10.0)
    gmm = GaussianMixture([0.5, 0.5], [1.0, -1.0], [0.4, 0.4])
    data_law = marginal_at(gmm, spec, 0.0)
    x0 = np.array([-1.2, 0.0, 0.9])
    got = pf_loglik(gmm, spec, x0)
    assert np.all(np.abs(got - data_law.logpdf(x0)) < 1e-3)
    # against the raw data density the floor shows up as a small bias
    assert np.all(np.abs(got - gmm.logpdf(x0)) < 5e-3)


@pytest.mark.parametrize("preset", ["vp", "ve"])
def test_loglik_array_equals_scalar_calls(preset, request):
    spec = request.getfixturevalue(preset)
    gmm = GaussianMixture([0.3, 0.7], [1.0, -0.5], [0.2, 0.4])
    x0 = np.array([-1.3, -0.5, 0.0, 0.8, 1.7])
    batched = pf_loglik(gmm, spec, x0, dt=1e-3)
    singles = np.array([pf_loglik(gmm, spec, float(x), dt=1e-3) for x in x0])
    assert batched.shape == x0.shape
    assert np.array_equal(batched, singles)


@pytest.mark.parametrize("preset, t0", [("vp", 1e-3), ("ve", 1e-5)])
def test_field_equals_marginal_mixture_score(preset, t0, request):
    spec = request.getfixturevalue(preset)
    gmm = GaussianMixture([0.3, 0.5, 0.2], [1.0, -0.5, 0.1], [0.2, 0.4, 0.05])
    field = epsilon_field(gmm, spec)
    rng = np.random.default_rng(3)
    xs = (0.7, rng.normal(0, 2, 1), rng.normal(0, 2, 64), rng.normal(0, 20, 8192),
          np.zeros(0), rng.normal(0, 2, (40, 30)))

    def check(x, t):
        mixture = marginal_at(gmm, spec, t)
        want = -float(spec.L(t)) * mixture.score(x)
        for _ in range(2):  # a memo miss, then a hit
            assert _same_bits(field(x, t), want)
            assert _same_bits(field.score(x, t), mixture.score(x))
        assert _same_bits(score(gmm, spec, x, t), mixture.score(x))

    for x in xs:
        for t in (t0, 0.37, spec.t_end):
            check(x, t)
    # more distinct times than the memo holds, then the first ones again
    for t in np.linspace(t0, spec.t_end, _MEMO_SIZE + 10):
        field(0.7, t)
    assert len(field._memo) <= _MEMO_SIZE
    # the memo is only valid for the field's own mixture and diffusion
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.spec = vesde(0.01, 10.0)
    for x in xs:
        for t in (t0, 0.37, spec.t_end):
            check(x, t)


def test_field_shared_by_threads_matches_serial(vp, monkeypatch):
    gmm = GaussianMixture([0.3, 0.5, 0.2], [1.0, -0.5, 0.1], [0.2, 0.4, 0.05])
    x = np.random.default_rng(5).normal(0, 2, 16)
    # each thread walks the same times from its own offset, so the threads
    # interleave misses, hits and memo clears on the same entries; a small
    # bound makes the clears frequent
    monkeypatch.setattr(oracle, "_MEMO_SIZE", 64)
    times = np.linspace(1e-3, vp.t_end, 500)
    n_threads = 4
    serial = epsilon_field(gmm, vp)
    want = [serial(x, t) for t in times]
    shared = epsilon_field(gmm, vp)
    got = [[None] * times.size for _ in range(n_threads)]

    def work(j):
        for i in range(times.size):
            k = (i + j * times.size // n_threads) % times.size
            got[j][k] = shared(x, times[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for j in range(n_threads):
        assert all(_same_bits(g, w) for g, w in zip(got[j], want))


def test_marginal_score_pair_matches_marginal_mixture(vp, ve):
    gmm = GaussianMixture([0.3, 0.7], [1.0, -0.5], [0.2, 0.4])
    x = np.linspace(-2.0, 2.0, 9)
    for spec in (vp, ve):
        field = epsilon_field(gmm, spec)
        for t in (0.0, 1e-3, 0.37, 0.5, 1.0):
            # what each pf_loglik stage evaluates
            s, s_dx = _score_pair(x, *field._marginal(t)[1:])
            mixture = marginal_at(gmm, spec, t)
            assert np.array_equal(s, mixture.score(x))
            assert np.array_equal(s_dx, mixture.score_dx(x))


def test_em_vector_state_shape_and_independence(vp, gauss_oracle):
    _, field = gauss_oracle
    out = em_simulate(vp, field, 1.0, np.array([0.5, -0.5]), 1e-3, 1e-3, rng_seed=21)
    assert out.shape == (2,)
    assert np.all(np.isfinite(out))
    # lam=0 is deterministic, so each axis matches its scalar run
    vec = em_simulate(vp, field, 0.0, np.array([0.5, -0.5]), 1e-3, 1e-3, rng_seed=21)
    for k, x in enumerate((0.5, -0.5)):
        single = em_simulate(vp, field, 0.0, np.asarray(x), 1e-3, 1e-3, rng_seed=21)
        assert vec[k] == single
