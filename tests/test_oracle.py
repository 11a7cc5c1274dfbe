import dataclasses
import hashlib
import os
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
    EpsilonField,
    GaussianMixture,
    OracleTrustError,
    ParameterError,
    VpSchedule,
    marginal_at,
    pf_loglik,
    reference_self_check,
    reference_solve,
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
from diffint.samplers import _WORKER_STATES, _em_plan, _execute, em_terminal_batch, run_sampler
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
    ks = rng.choice(gmm.weights.size, size=10000, p=gmm.weights)
    x0 = gmm.means[ks] + gmm.stds[ks] * rng.standard_normal(ks.size)
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
    assert float(EpsilonField(gmm, vp).score(mean_t, t)) == pytest.approx(0.0, abs=1e-14)


def test_score_matches_density_gradient(vp):
    gmm = GaussianMixture([0.5, 0.5], [1.0, -1.0], [0.2, 0.2])
    field = EpsilonField(gmm, vp)
    rng = np.random.default_rng(12)
    for _ in range(50):
        t = rng.uniform(0.05, 1.0)
        x = rng.uniform(-2.5, 2.5)
        pushed = marginal_at(gmm, vp, t)
        fd = central_difference(pushed.logpdf, x, 1e-5)
        assert np.isclose(float(field.score(x, t)), fd, rtol=1e-5, atol=1e-7)


def test_score_symmetric_midpoint_is_zero(vp):
    gmm = GaussianMixture([0.5, 0.5], [1.0, -1.0], [0.3, 0.3])
    assert float(EpsilonField(gmm, vp).score(0.0, 0.6)) == pytest.approx(0.0, abs=1e-14)


def test_score_variance_underflow_guard():
    from diffint import DiffusionSpec

    tiny = DiffusionSpec(
        f=lambda t: -400.0 * np.ones_like(np.asarray(t, dtype=float)),
        g2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        mu=lambda t: np.exp(-400.0 * np.asarray(t, dtype=float)),
        L=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        transition_closed=lambda t, s: np.exp(
            -400.0 * (np.asarray(t, dtype=float) - np.asarray(s, dtype=float))
        ),
        t_of_rho_closed=lambda rho: np.zeros_like(np.asarray(rho, dtype=float)),
        t_end=1.0,
    )
    gmm = GaussianMixture([1.0], [0.0], [1.0])
    field = EpsilonField(gmm, tiny)
    # a fill that meets the underflow at t = 1 stores nothing, not even
    # the sound t = 0.1, and leaves the call at t = 1 to raise
    field._fill([0.1, 1.0])
    assert not field._memo
    for _ in range(2):  # a failure is never memoised
        with pytest.raises(DomainError):
            field(0.0, 1.0)
        with pytest.raises(DomainError):
            field.score(0.0, 1.0)
    assert np.isfinite(field(0.5, 0.1))


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
    # the score routine's log terms are a itself at x = m = 0, var = 1 and
    # bias = a: a - 0.5 * 0**2 / 1 = a, bit for bit
    m = flat.shape[1]
    rows, out = oracle._rows(k, m), np.empty((1, m))
    with np.errstate(invalid="ignore"):  # inf - inf, as in the kernel's blocks
        oracle._score_half(np.zeros(m), np.zeros((k, 1)), np.ones((k, 1)), flat, rows, out[0])
        oracle._logpdf_block(rows, out, None)
    assert _same_bits(out[0].reshape(batch)[()], want)


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
    field = EpsilonField(gmm, spec)
    x = ACCURACY_X
    for t in (0.0, 1e-3, 0.37, spec.t_end):
        l_t, means, var, bias = field._marginal(t)
        refs = [_decimal_mixture(gmm.weights, means.ravel(), var.ravel(), v) for v in x]
        logpdf, s, s_dx = ([r[i] for r in refs] for i in range(3))
        pushed = marginal_at(gmm, spec, t)
        assert _rel_error(field(x, t), [-Decimal(l_t) * v for v in s]) < 1e-13
        for got in (field.score(x, t), pushed.score(x)):
            assert _rel_error(got, s) < 1e-13
        assert _rel_error(pushed.logpdf(x), logpdf) < 1e-13
        assert _rel_error(pushed.score_dx(x), s_dx) < 1e-12
        # the pair code of score_dx and of each pf_loglik stage, run as a
        # stage runs it: in rows of its own, under the solve's errstate
        k = len(means)
        rows = oracle._rows_of(np.empty((2 * k + 2) * x.size), k, x.size)
        pair = np.empty((2, x.size))
        with np.errstate(over="ignore", invalid="ignore"):
            oracle._score_half(x, means, var, bias, rows, pair[0])
            oracle._pair_block(rows, pair, x, means, var, 1.0 / var)
        assert _rel_error(-pair[0], s) < 1e-13
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
        field = EpsilonField(gmm, spec)
        pushed = marginal_at(gmm, spec, t)
        for fn in (lambda v: field(v, t), pushed.score, pushed.score_dx, pushed.logpdf):
            want = np.array([fn(v) for v in x.ravel().tolist()]).reshape(shape)
            assert _same_bits(fn(x), want)


@pytest.mark.parametrize("mixture", KERNEL_MIXTURES[:2])
def test_kernel_non_finite_inputs(mixture, vp):
    gmm = GaussianMixture(*mixture)
    t = 0.37
    field = EpsilonField(gmm, vp)
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
        for got in (field(x, t), field.score(x, t), pushed.score(x), pushed.score_dx(x)):
            assert np.isnan(got).all()
        assert np.isnan(field(np.inf, t))
        # finite points with finite log terms raise no warning
        finite = np.array([-40.0, -1e10, 0.0, 1e10, 40.0])
        for fn in (lambda v: field(v, t), pushed.score, pushed.score_dx, pushed.logpdf):
            assert np.isfinite(fn(finite)).all()
        # the same five values across a block edge of a wider array
        wide = np.linspace(-3.0, 3.0, oracle._BLOCK + 7)
        edge = slice(oracle._BLOCK - 2, oracle._BLOCK + 3)
        wide[edge] = x
        rest = np.ones(wide.size, dtype=bool)
        rest[edge] = False
        logpdf = pushed.logpdf(wide)
        assert _same_bits(logpdf[edge], pushed.logpdf(x))
        assert np.isfinite(logpdf[rest]).all()
        for got in (field(wide, t), field.score(wide, t), pushed.score(wide),
                    pushed.score_dx(wide)):
            assert np.isnan(got[edge]).all()
            assert np.isfinite(got[rest]).all()


# widths on both sides of one block, over several blocks, and a 2-d array
# whose flattened blocks cut across its rows
BLOCK_SHAPES = [(oracle._BLOCK - 1,), (oracle._BLOCK,), (oracle._BLOCK + 1,),
                (3 * oracle._BLOCK + 5,), (3, oracle._BLOCK + 1)]


@pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=str)
def test_blocks_give_the_bits_of_slices_across_each_edge(shape, vp):
    gmm = GaussianMixture([0.3, 0.5, 0.2], [1.0, -0.5, 0.1], [0.2, 0.4, 0.05])
    t = 0.37
    field = EpsilonField(gmm, vp)
    pushed = marginal_at(gmm, vp, t)
    columns = field._marginal(t)[1:]
    x = np.random.default_rng(shape[-1]).normal(0.0, 2.0, shape)
    flat = x.reshape(-1)
    fns = (lambda v: field(v, t), lambda v: field.score(v, t), pushed.score_dx,
           pushed.logpdf, lambda v: _score_pair(v, *columns)[0],
           lambda v: _score_pair(v, *columns)[1])
    edges = list(range(oracle._BLOCK, flat.size, oracle._BLOCK)) + [flat.size]
    for fn in fns:
        whole = fn(x)
        assert whole.shape == shape
        whole = whole.reshape(-1)
        for edge in edges:
            part = slice(max(0, edge - 3), edge + 3)
            assert _same_bits(whole[part], fn(flat[part]))


# K = 1, 2, 3 and 5 components; no other test takes K = 5
PLAIN_MIXTURES = {
    1: ([1.0], [0.5], [0.25]),
    2: ([0.3, 0.7], [1.0, -0.5], [0.2, 0.4]),
    3: ([0.3, 0.5, 0.2], [1.0, -0.5, 0.1], [0.2, 0.4, 0.05]),
    5: ([0.1, 0.3, 0.2, 0.25, 0.15], [-2.0, -0.5, 0.0, 0.7, 1.5], [0.3, 0.2, 0.5, 0.1, 0.4]),
}
# every log term is -inf at +-inf and where (x - m)**2 overflows, nan at nan
PLAIN_SPECIAL = [np.inf, -np.inf, np.nan, 1e155, -1e155]


def _plain(x, means, var, bias):
    """What the score routine gives at the 1-d states x for the mixture
    with (K, 1) columns (means, var, bias), by plain numpy in the order its
    docstrings give, one component after another: q (minus the score),
    the score's x-derivative and the log density."""
    k = len(means)
    with np.errstate(all="ignore"):
        dev = [x - means[i] for i in range(k)]
        a = [bias[i] - dev[i] * dev[i] * 0.5 / var[i] for i in range(k)]
        a_max = a[0]
        for i in range(1, k):
            a_max = np.maximum(a_max, a[i])
        e = [np.exp(a[i] - a_max) for i in range(k)]
        u = [dev[i] / var[i] for i in range(k)]
        total, q = e[0], e[0] * u[0]
        for i in range(1, k):
            total = total + e[i]
            q = q + e[i] * u[i]
        q = q / total
        d = [e[i] * ((u[i] - q) * (u[i] - q) - 1.0 / var[i]) for i in range(k)]
        s_dx = d[0]
        for i in range(1, k):
            s_dx = s_dx + d[i]
        s_dx = s_dx / total
        logpdf = np.where(np.isinf(a_max), a_max, a_max + np.log(total))
    return q, s_dx, logpdf


def _plain_states(shape, means, rng):
    """States of ``shape`` for the plain-numpy test: for shape (), one
    state of each kind in turn; otherwise one array with the special values
    and each component mean at its start, and again at the end."""
    kinds = PLAIN_SPECIAL + [float(m) for m in means.ravel()] + [0.3]
    if shape == ():
        return [np.float64(v) for v in kinds]
    x = rng.normal(0.0, 2.0, shape)
    flat = x.reshape(-1)
    size = min(len(kinds), flat.size)
    flat[:size] = kinds[:size]
    flat[flat.size - size :] = kinds[-size:]
    return [x]


def _plain_check(fns, x, columns, scale=1.0):
    """Each of fns (field, score, score_dx, logpdf; None to skip) at x has
    the bits of :func:`_plain` on these columns, the field and score as q
    times their scale, shaped as x, a numpy scalar for a 0-d x."""
    q, s_dx, logpdf = (np.reshape(v, np.shape(x))[()]
                       for v in _plain(np.reshape(x, -1), *columns))
    for fn, want in zip(fns, (q * scale, q * -1.0, s_dx, logpdf)):
        if fn is not None:
            assert _same_bits(fn(x), want)


@pytest.mark.parametrize("k", sorted(PLAIN_MIXTURES))
@pytest.mark.parametrize("shape", [(), (7,), (2, 3), (oracle._BLOCK + 1,)], ids=str)
def test_score_routine_matches_plain_numpy(k, shape, vp):
    gmm = GaussianMixture(*PLAIN_MIXTURES[k])
    t = 0.37
    field = EpsilonField(gmm, vp)
    pushed = marginal_at(gmm, vp, t)
    l_t, *columns = field._marginal(t)
    rng = np.random.default_rng(k)
    for x in _plain_states(shape, columns[0], rng):
        _plain_check((lambda v: field(v, t), lambda v: field.score(v, t), None, None),
                     x, columns, l_t)
    for x in _plain_states(shape, pushed.means, rng):
        _plain_check((None, pushed.score, pushed.score_dx, pushed.logpdf), x,
                     pushed._kernel_args())


def _in_thread(fn):
    """fn() run in a new thread, whose scratch starts empty."""
    got = []
    th = threading.Thread(target=lambda: got.append(fn()))
    th.start()
    th.join(timeout=120)
    assert not th.is_alive() and got
    return got[0]


def test_cached_rows_give_the_bits_of_a_fresh_call(vp):
    t = 0.37
    fields = {k: EpsilonField(GaussianMixture(*PLAIN_MIXTURES[k]), vp) for k in (2, 5)}
    rng = np.random.default_rng(7)
    # 50000 states end in a block of 848, so each call switches widths
    xs = {n: rng.normal(0.0, 2.0, n) for n in (1, 64, 848, 50000)}
    assert 50000 % oracle._BLOCK == 848
    want = {(k, n): q * fields[k]._marginal(t)[0]
            for k in fields for n, x in xs.items()
            for q in [_plain(x, *fields[k]._marginal(t)[1:])[0]]}
    # widths that alternate, and a buffer that grows: 64 states of K = 2
    # first, then whole blocks of K = 5, then the small widths again
    order = [(2, 64), (2, 50000), (2, 64), (5, 50000), (2, 848), (5, 1), (2, 50000),
             (5, 64), (2, 1), (5, 848)]

    def run():
        sizes, got = [], []
        for k, n in order:
            got.append(fields[k](xs[n], t))
            sizes.append(oracle._scratch.buf.size)
        return sizes, got

    sizes, got = _in_thread(run)
    assert sizes[0] < sizes[1] < sizes[3]
    for (k, n), g in zip(order, got):
        assert _same_bits(g, want[k, n]), (k, n)
    # four threads calling one field at once, each in its own order of
    # widths; a short switch interval interleaves their blocks
    field = fields[5]
    n_threads, runs = 4, 3
    got = [[] for _ in range(n_threads)]
    widths = list(xs)

    def work(j):
        for i in range(runs * len(widths)):
            n = widths[(i + j) % len(widths)]
            got[j].append((n, field(xs[n], t)))

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
        assert len(got[j]) == runs * len(widths)
        assert all(_same_bits(g, want[5, n]) for n, g in got[j])


# -- epsilon field ----------------------------------------------------


def test_eps_zero_at_marginal_mean(vp):
    gmm = GaussianMixture([1.0], [0.4], [0.2])
    field = EpsilonField(gmm, vp)
    t = 0.5
    assert float(field(float(vp.mu(t)) * 0.4, t)) == pytest.approx(0.0, abs=1e-14)


def test_eps_late_time_limit(vp):
    gmm = GaussianMixture([1.0], [0.0], [0.5])
    field = EpsilonField(gmm, vp)
    t = 1.0
    l_t = float(vp.L(t))
    var = float(vp.mu(t)) ** 2 * 0.25 + l_t**2
    for x in (-1.5, 0.3, 2.0):
        assert np.isclose(float(field(x, t)), x * l_t / var, rtol=1e-12)
        assert np.isclose(float(field(x, t)), x, rtol=1e-3)


def test_eps_score_consistency(vp):
    gmm = GaussianMixture([0.5, 0.5], [1.0, -1.0], [0.2, 0.2])
    field = EpsilonField(gmm, vp)
    rng = np.random.default_rng(13)
    for _ in range(20):
        t = rng.uniform(0.05, 1.0)
        x = rng.uniform(-2, 2)
        assert np.isclose(
            -float(field(x, t)) / float(vp.L(t)),
            float(field.score(x, t)),
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
    # a caller holding the solve at dt passes it and gets the same gap
    coarse = reference_solve(vp, field, x_batch).terminal
    assert reference_self_check(vp, field, x_batch, coarse=coarse) == gap


def test_reference_matches_linear_closed_form(vp, x_batch):
    gmm = GaussianMixture([1.0], [0.0], [0.5])
    field = EpsilonField(gmm, vp)
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
    assert np.array_equal(nodes[::-1], traj.states)


def test_reference_divergence_error(vp, gauss_oracle):
    exploding = lambda x, t: np.full_like(np.asarray(x, dtype=float), 1e308)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as err:
            reference_solve(vp, exploding, 1.0)
    assert err.value.step_index is not None
    # a field that turns inf below t = 0.5: the error counts steps from
    # the start of the solve and names the time its step starts from
    _, field = gauss_oracle

    def blowup(x, t):
        eps = field(x, t)
        return eps * np.inf if t < 0.5 else eps

    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match="at step 500$") as err:
            reference_solve(vp, blowup, 1.0)
        assert (err.value.step_index, err.value.time) == (500, 0.5)
        # nodes 1.0 and 0.6 are 400 steps apart; from 0.6, t accumulates
        # to just below 0.501 in 99 steps, so step 99 of that span ends below 0.5
        with pytest.raises(DivergenceError) as err:
            reference_states(vp, blowup, 1.0, [0.1, 0.6, 1.0])
        assert (err.value.step_index, err.value.time) == (499, 0.5009999999999999)


# sha256 of the tobytes() of _reference_pins, as computed before each
# solve ran as one RK4 loop over a stage table: a K = 2 mixture's
# reference_solve terminals at batch 64, dt 1e-3 and 5e-4, and its
# reference_states on an uneven 11-node grid from 8 states and from a 0-d
# one (as run_trace passes), on VP and VE; then one span longer than a
# stage window (4750 steps at dt 2e-4), which carries t across windows
REFERENCE_MIXTURE = ([0.3, 0.7], [1.0, -0.5], [0.2, 0.4])
REFERENCE_SHA256 = "909abc57c9a13cd4f4836629cfe94158ac3ec9dcd6b62e2a3f33dd6ff4abef97"
UNEVEN = np.linspace(np.sqrt(1e-3), 1.0, 11) ** 2


def _reference_pins(vp, ve):
    gmm = GaussianMixture(*REFERENCE_MIXTURE)
    x = np.random.default_rng(28).standard_normal(64)
    for spec in (vp, ve):
        field = EpsilonField(gmm, spec)
        x_T = spec.pi_std * x
        for dt in (1e-3, 5e-4):
            yield reference_solve(spec, field, x_T, dt).terminal
        yield reference_states(spec, field, x_T[:8], UNEVEN)
        yield reference_states(spec, field, 0.7 * spec.pi_std, UNEVEN)
    yield reference_states(vp, EpsilonField(gmm, vp), x[:4], [0.05, 1.0], 2e-4)


def test_reference_bits_are_pinned(vp, ve):
    digest = hashlib.sha256()
    for states in _reference_pins(vp, ve):
        digest.update(np.asarray(states).tobytes())
    assert digest.hexdigest() == REFERENCE_SHA256


@pytest.mark.parametrize("preset", ["vp", "ve"])
def test_reference_field_paths_agree_and_leave_the_memo_alone(preset, request):
    # an EpsilonField runs the score routine on the solve's own stage
    # table; any other callable is called; both give the same bits
    spec = request.getfixturevalue(preset)
    field = EpsilonField(GaussianMixture(*REFERENCE_MIXTURE), spec)
    plain = lambda x, t: field(x, t)
    x = spec.pi_std * np.random.default_rng(3).standard_normal(5)
    got = reference_solve(spec, field, x)
    assert not field._memo
    assert _same_bits(got.states, reference_solve(spec, plain, x).states)
    for x_T in (x, x[0]):
        want = reference_states(spec, plain, x_T, UNEVEN)
        field._memo.clear()
        assert _same_bits(reference_states(spec, field, x_T, UNEVEN), want)
        assert not field._memo


def test_reference_rejects_times_outside_its_domain(vp, gauss_oracle):
    _, field = gauss_oracle
    for t0 in (2.0, 1.0, 0.0, -1e-3, np.nan):
        with pytest.raises(ParameterError):
            reference_solve(vp, field, 1.0, 1e-3, t0=t0)
    for times in ([0.5, 0.2, 1.0], [0.2, 0.5, 2.0], [0.2, 0.2, 1.0], [0.0, 0.5, 1.0],
                  [0.2, np.nan, 1.0], [], [[0.2, 1.0]]):
        with pytest.raises(ParameterError):
            reference_states(vp, field, 1.0, times)


def test_reference_self_check_rejects_a_nan_gap_or_tol(vp, gauss_oracle):
    _, field = gauss_oracle
    with pytest.raises(OracleTrustError):
        reference_self_check(vp, field, 1.0, coarse=np.nan)
    for tol in (np.nan, np.inf, -1e-6):
        with pytest.raises(ParameterError):
            reference_self_check(vp, field, 1.0, tol=tol, coarse=0.0)


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
    dt, t0, seed = 1e-3, 1e-3, 0
    n = int(round((vp.t_end - t0) / dt))
    em = em_terminal_batch(vp, field, 0.0, dt, t0, seed, 8)
    grid = TimeGrid(np.linspace(vp.t_end, t0, n + 1)[::-1].copy())
    eu = run_sampler("euler", vp, field, grid, draw_terminal_states(vp, seed, 8)).terminal
    assert _same_bits(em, eu)


def test_em_deterministic_given_seed(vp, gauss_oracle):
    _, field = gauss_oracle
    a = em_terminal_batch(vp, field, 1.0, 1e-3, 1e-3, 42, 4)
    b = em_terminal_batch(vp, field, 1.0, 1e-3, 1e-3, 42, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, em_terminal_batch(vp, field, 1.0, 1e-3, 1e-3, 43, 4))


def test_em_batch_across_a_block_edge_keeps_its_prefix(vp, bimodal_oracle):
    _, field = bimodal_oracle
    small = em_terminal_batch(vp, field, 1.0, 1e-3, 1e-3, 4, 8)
    wide = em_terminal_batch(vp, field, 1.0, 1e-3, 1e-3, 4, oracle._BLOCK + 8)
    assert _same_bits(wide[:8], small)


def test_em_and_sddim_leave_the_callers_states_alone(vp, bimodal_oracle):
    _, field = bimodal_oracle
    seed, grid = 3, uniform(1e-3, 1.0, 10)
    x_T = draw_terminal_states(vp, seed, 16)
    plan = _em_plan(vp, 1.0, 1e-3, 1e-3)
    want_em = _execute("em", plan, field, x_T.copy(), seed=seed)[0]
    want_sddim = run_sampler("sddim", vp, field, grid, x_T.copy(), eta=1.0, seed=seed).states
    before = x_T.copy()
    x_T.setflags(write=False)
    assert _same_bits(_execute("em", plan, field, x_T, seed=seed)[0], want_em)
    got = run_sampler("sddim", vp, field, grid, x_T, eta=1.0, seed=seed).states
    assert _same_bits(got, want_sddim)
    assert _same_bits(x_T, before)


def test_em_rejects_bad_args(vp, gauss_oracle):
    _, field = gauss_oracle
    cases = [
        (-0.5, 1e-3, 1e-3), (np.nan, 1e-3, 1e-3), (np.inf, 1e-3, 1e-3),
        # 1 + lam^2 overflows
        (1e200, 1e-3, 1e-3),
        (1.0, 5e-3, 1e-3),
        # the EM grid is a TimeGrid, whose first time must be positive
        (1.0, 1e-3, 0.0),
    ]
    for lam, dt, t0 in cases:
        with pytest.raises(ParameterError):
            em_terminal_batch(vp, field, lam, dt, t0, 0, 4)
    # the noise of lam > 0 needs an integer seed
    with pytest.raises(ParameterError):
        em_terminal_batch(vp, field, 1.0, 1e-3, 1e-3, None, 4)


def test_em_divergence_is_nan_in_the_batch(vp, gauss_oracle):
    # a field that sends one trajectory to -inf once t falls below 0.5
    _, field = gauss_oracle
    seed, n, pos, dt, t0 = 5, 16, 3, 1e-3, 1e-3

    def blowup(x, t):
        eps = field(x, t)
        if t < 0.5:
            eps[pos] = np.inf
        return eps

    want = em_terminal_batch(vp, field, 1.0, dt, t0, seed, n)
    got = em_terminal_batch(vp, blowup, 1.0, dt, t0, seed, n)
    assert np.isnan(got[pos]) and np.isfinite(want).all()
    keep = np.arange(n) != pos
    assert _same_bits(got[keep], want[keep])


@pytest.mark.parametrize("n", [8, _WORKER_STATES])
def test_a_failed_stochastic_run_leaves_no_worker_behind(vp, gauss_oracle, n, monkeypatch):
    # at n = _WORKER_STATES a worker thread draws the noise; it is joined
    # before the error reaches the caller, which sees the error of a serial run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    _, field = gauss_oracle
    grid = uniform(1e-3, 1.0, 10)
    x = draw_terminal_states(vp, 0, n)

    def blowup(x, t):
        eps = field(x, t)
        if t < 0.5:
            eps[0] = np.inf
        return eps

    i = max(i for i in range(1, grid.n_steps + 1) if grid.times[i] < 0.5)
    before = threading.active_count()
    with pytest.raises(DivergenceError) as err:
        run_sampler("sddim", vp, blowup, grid, x, eta=1.0, seed=0)
    assert str(err.value) == f"sddim diverged stepping into node {i - 1} (t={grid.times[i - 1]})"
    assert threading.active_count() == before
    plan = _em_plan(vp, 1.0, 1e-3, 1e-3)
    with pytest.raises(ParameterError) as err:
        _execute("em", plan, field, x, seed=None, nan_diverged=True)
    assert str(err.value) == "seed and stream must be integers in [0, 2**64), got None, 1"
    assert threading.active_count() == before


def test_the_noise_worker_runs_only_where_it_can_pay(vp, gauss_oracle, monkeypatch):
    # the field sees one more live thread while a worker draws the noise
    _, field = gauss_oracle
    seen = set()

    def counting(x, t):
        seen.add(threading.active_count())
        return field(x, t)

    def threads_seen(n):
        seen.clear()
        x = draw_terminal_states(vp, 0, n)
        run_sampler("sddim", vp, counting, uniform(1e-3, 1.0, 4), x, eta=1.0, seed=0)
        return seen

    before = threading.active_count()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert threads_seen(_WORKER_STATES - 1) == {before}
    assert threads_seen(_WORKER_STATES) == {before + 1}
    # a process that may run on one CPU only gains nothing from a worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert threads_seen(_WORKER_STATES) == {before}
    assert threading.active_count() == before


@pytest.mark.parametrize("preset, t0", [("vp", 1e-3), ("ve", 1e-5)])
def test_em_fills_the_field_memo_as_misses_would(preset, t0, request, monkeypatch):
    spec = request.getfixturevalue(preset)
    gmm = GaussianMixture([0.3, 0.7], [1.0, -0.5], [0.2, 0.4])
    times = _em_plan(spec, 0.0, 1e-3, t0).eval_times.ravel().tolist()
    filled, missed = EpsilonField(gmm, spec), EpsilonField(gmm, spec)
    held = filled._marginal(times[5])
    em_terminal_batch(spec, filled, 0.5, 1e-3, t0, 0, 4)
    assert set(filled._memo) == set(times) and filled._memo[times[5]] is held
    for t in times:
        got, want = filled._memo[t], missed._marginal(t)
        assert type(got[0]) is float and got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == (2, 1) and _same_bits(a, b)
            assert a.flags.owndata and not a.flags.writeable
    # times that would not fit in the memo are left to the misses
    monkeypatch.setattr(oracle, "_MEMO_SIZE", len(times))
    full = EpsilonField(gmm, spec)
    other = (times[0] + times[1]) / 2
    full._marginal(other)
    full._fill(times)
    assert list(full._memo) == [other]


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
    # a worker thread draws the big batch's noise, the small one draws its own
    x = draw_terminal_states(vp, seed, _WORKER_STATES)
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
    # the executor's step (1 - f h) x + (1 + lam^2) c eps rounds
    # differently from the SDE form: 1.8e-15 relative here, and at most
    # 3.9e-13 on VP and VE batches up to lam = 2; drawing step k's noise
    # from stream 2 + k instead moves a terminal by 13%
    assert np.max(np.abs(terminal - x) / np.abs(x)) <= 1e-11


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


def test_normals_into_a_buffer_are_the_same_draw():
    buf = np.empty((3, 4))
    assert normals(5, 2, (3, 4), out=buf) is buf
    assert _same_bits(buf, normals(5, 2, (3, 4)))
    scalar = np.empty(())
    normals(5, 2, (), out=scalar)
    assert _same_bits(scalar, normals(5, 2, ()))


_WORDS = (0, 1, 2**63, 2**64 - 1)


def _fresh_normals(seed, stream, shape):
    return np.random.Generator(np.random.Philox(key=seed + (stream << 64))).standard_normal(shape)


@pytest.mark.parametrize("seed", _WORDS)
@pytest.mark.parametrize("stream", _WORDS)
def test_normals_have_the_bits_of_a_fresh_generator(seed, stream):
    # each call rekeys this thread's generator: a draw under another key
    # just before, which leaves part of a Philox block in its buffer,
    # must not carry into the next
    for shape in ((), (0,), (5,), (2, 3)):
        want = _fresh_normals(seed, stream, shape)
        normals(seed ^ 1, stream, 7)
        assert _same_bits(normals(seed, stream, shape), want)
        normals(seed, stream ^ 1, 3)
        out = np.empty(shape)
        assert normals(seed, stream, shape, out=out) is out
        assert _same_bits(out, want)


def test_normals_from_threads_at_once():
    # every thread rekeys its own generator; four threads on two cores with
    # a short switch interval interleave their draws
    keys = [(seed, stream) for seed in _WORDS for stream in _WORDS]
    want = {key: _fresh_normals(*key, 1001) for key in keys}
    n_threads = 4
    start = threading.Barrier(n_threads)
    bad = [0] * n_threads

    def work(j):
        start.wait(timeout=60)
        for _ in range(50):
            for key in keys[j:] + keys[:j]:
                bad[j] += not _same_bits(normals(*key, 1001), want[key])

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
    assert bad == [0] * n_threads


def test_normals_key_words_are_not_interchangeable():
    # (seed, stream) = (0, 1) and (1, 0) are different keys, and the two
    # streams of one seed are uncorrelated
    assert not np.array_equal(normals(0, 1, 8), normals(1, 0, 8))
    a, b = normals(3, 0, 20000), normals(3, 1, 20000)
    assert abs(np.corrcoef(a, b)[0, 1]) <= 3 / np.sqrt(a.size)


@pytest.mark.parametrize("seed, stream", [(2**64, 0), (-1, 1), (-1, 0), (0, 2**64), (0, -1),
                                          (None, 0), (1.5, 0), (0, 2.5)])
def test_normals_reject_words_outside_64_bits(seed, stream):
    # (2**64, 0) would alias key (0, 1), (-1, 1) key (2**64 - 1, 0) and
    # (1.5, 0) key (1, 0)
    with pytest.raises(ParameterError, match=r"\[0, 2\*\*64\)"):
        normals(seed, stream, 4)


def test_em_standard_normal_mean(vp):
    # N(0, 1) data: the reverse-time family should return standard
    # normal terminals; 50k trajectory mean within 3 standard errors.
    gmm = GaussianMixture([1.0], [0.0], [1.0])
    field = EpsilonField(gmm, vp)
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
    # 600 points fill the records in fewer steps than a chunk may hold
    wide = np.linspace(-3.0, 3.0, 600)
    assert oracle._loglik_chunk(2, wide.size, 1000)[0] < oracle._CHUNK_STEPS
    batched = pf_loglik(gmm, spec, wide)
    for i in (0, 1, 299, 599):
        assert _same_bits(batched[i], pf_loglik(gmm, spec, wide[i]))


LOGLIK_MIXTURES = [([1.0], [0.4], [0.8]), ([0.3, 0.7], [1.0, -0.5], [0.2, 0.4]),
                   ([0.2, 0.5, 0.3], [-1.0, 0.1, 1.2], [0.3, 0.25, 0.5])]


class _TableTaken(Exception):
    pass


@pytest.mark.parametrize("preset", ["vp", "ve"])
def test_loglik_table_has_the_bits_of_one_call_per_time(preset, request, monkeypatch):
    # pf_loglik takes f, g2 and the marginal's columns of a window from
    # one array call each; every column must have the bits of a call at
    # its time alone (a numpy scalar's ** 2 calls pow, and an array's
    # square would differ from it at a few of these times)
    spec = request.getfixturevalue(preset)
    taken = {}

    def taking(name, fn):
        def call(*args):
            out = fn(*args)
            taken[name] = (args[-1], out)
            if len(taken) == 3:
                raise _TableTaken
            return out
        return call

    monkeypatch.setattr(oracle, "_marginals", taking("marginals", oracle._marginals))
    recording = dataclasses.replace(spec, f=taking("f", spec.f), g2=taking("g2", spec.g2))
    # every stage time of the default dt: t_k by t += h, and t_k + h/2
    h = spec.t_end / 1000
    t, want_times = 0.0, [0.0]
    for _ in range(1000):
        want_times += [t + 0.5 * h, t + h]
        t += h
    tables = []
    for mixture in LOGLIK_MIXTURES:
        gmm = GaussianMixture(*mixture)
        taken.clear()
        with pytest.raises(_TableTaken):
            pf_loglik(gmm, recording, 0.3)
        tables.append((gmm, dict(taken)))
    monkeypatch.undo()
    for gmm, table in tables:
        for name in ("f", "g2"):
            times, got = table[name]
            assert times.tolist() == want_times
            want = np.array([getattr(spec, name)(t) for t in want_times])
            assert got.tobytes() == want.tobytes()
        times, (_, means, var, bias) = table["marginals"]
        assert times.tolist() == want_times
        for i, t in enumerate(want_times):
            for columns in (EpsilonField(gmm, spec)._marginal(t)[1:],
                            marginal_at(gmm, spec, t)._kernel_args()):
                for got, want in zip((means, var, bias), columns):
                    assert _same_bits(got[:, i : i + 1], want)


# (steps, slots) of the divergence's chunks and passes, as
# oracle._loglik_chunk gives them: 1 step with a pass after every stage,
# every second stage or every step, and 7 steps
LOGLIK_CHUNKS = [(1, 1), (1, 2), (1, 4), (7, 28)]


def _with_chunks(name, values):
    """Parametrize (name, chunk): each value with the chunk
    _loglik_chunk gives (None), under the value's own id, then with each
    of LOGLIK_CHUNKS."""
    params = [pytest.param(v, None, id=str(v)) for v in values]
    params += [pytest.param(v, c, id=f"{v}-chunk{c[0]}-pass{c[1]}")
               for v in values for c in LOGLIK_CHUNKS]
    return pytest.mark.parametrize(f"{name}, chunk", params)


def _set_chunk(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(oracle, "_loglik_chunk", lambda k, m, n: chunk)


@_with_chunks("preset", ["vp", "ve"])
def test_loglik_windows_keep_the_bits(preset, chunk, request, monkeypatch):
    spec = request.getfixturevalue(preset)
    gmm = GaussianMixture(*LOGLIK_MIXTURES[1])
    x0s = (0.3, np.array([-1.3, 0.0, 1.7]))
    whole = [pf_loglik(gmm, spec, x0) for x0 in x0s]
    assert type(whole[0]) is np.float64
    _set_chunk(monkeypatch, chunk)
    sizes = []
    marginals = oracle._marginals
    monkeypatch.setattr(oracle, "_marginals",
                        lambda gmm, spec, times: sizes.append(times.size)
                        or marginals(gmm, spec, times))
    # a window holds at most _MEMO_SIZE times; at 15 each window has
    # 7 steps (15 times), but the last, which has the 6 steps left of 1000
    for memo_size in (_MEMO_SIZE, 15):
        monkeypatch.setattr(oracle, "_MEMO_SIZE", memo_size)
        sizes.clear()
        got = [pf_loglik(gmm, spec, x0) for x0 in x0s]
        assert all(_same_bits(g, w) for g, w in zip(got, whole))
        assert max(sizes) <= memo_size
    assert sizes[:143] == [15] * 142 + [13]


@_with_chunks("memo_size", [_MEMO_SIZE, 15])
def test_loglik_divergence_names_its_step(memo_size, chunk, vp, ve, monkeypatch):
    # step 819 is the first of a window when each window has 7 steps
    monkeypatch.setattr(oracle, "_MEMO_SIZE", memo_size)
    _set_chunk(monkeypatch, chunk)
    gmm = GaussianMixture(*LOGLIK_MIXTURES[1])
    with pytest.raises(DivergenceError, match="at step 819$") as err:
        pf_loglik(gmm, ve, np.array([0.0, 5e152]))
    assert err.value.step_index == 819
    assert err.value.time == 0.8190000000000006
    # where the divergence turns non-finite before the state, its step is
    # named: at step 0 here, while the state lasts to step 737 on VE and
    # to the end on VP
    for spec in (vp, ve):
        with pytest.raises(DivergenceError, match="at step 0$") as err:
            pf_loglik(gmm, spec, np.array([0.0, 1e153]))
        assert (err.value.step_index, err.value.time) == (0, 0.0)
    # and at step 442, one step before the state, under a drift f = 800
    # that blows the state up; step 442 is the second of a 7-step window
    blowup = dataclasses.replace(ve, f=lambda t: np.full(np.shape(t), 800.0))
    sharp = GaussianMixture([0.3, 0.7], [1.0, -0.5], [0.02, 0.4])
    x0 = np.array([0.0, 1.0, 1.05])
    with pytest.raises(DivergenceError, match="at step 442$") as err:
        pf_loglik(sharp, blowup, x0)
    assert (err.value.step_index, err.value.time) == (442, 0.44200000000000034)
    # with a divergence that stays finite, the state names its own step
    monkeypatch.setattr(oracle, "_divergence_slopes",
                        lambda per_stage, records, lo, out: out.fill(0.0))
    with pytest.raises(DivergenceError, match="at step 443$"):
        pf_loglik(sharp, blowup, x0)


# sha256 of the tobytes() of pf_loglik over LOGLIK_MIXTURES + [NINE] x
# (VP, VE) x LOGLIK_X0S, in that order, as computed before the likelihood
# stage was stepped in place
LOGLIK_X0S = (0.3, np.array([-1.3, 0.0, 1.7]), np.linspace(-2.5, 2.5, 20).reshape(4, 5))
LOGLIK_SHA256 = "70f9889090581303bad7978d0ca688a5ecd618397fc0be0cdd4416e568b87d08"


def test_loglik_bits_are_pinned(vp, ve):
    digest = hashlib.sha256()
    for mixture in LOGLIK_MIXTURES + [NINE]:
        gmm = GaussianMixture(*mixture)
        for spec in (vp, ve):
            for x0 in LOGLIK_X0S:
                digest.update(np.asarray(pf_loglik(gmm, spec, x0)).tobytes())
    assert digest.hexdigest() == LOGLIK_SHA256


@pytest.mark.parametrize("preset", ["vp", "ve"])
def test_loglik_stage_is_the_drift_and_its_x_derivative(preset, request):
    # the state's right side writes f x - c s, c = g2 / 2, and the
    # divergence pass f - c s_dx at each recorded stage, with the bits of
    # the time-t marginal mixture's score and score_dx at its stage state
    spec = request.getfixturevalue(preset)
    x = np.linspace(-2.0, 2.0, 9)
    times = [0.0, 1e-3, 0.37, 0.5, spec.t_end]
    # the stages of two steps are at t_k, t_k + h/2 twice and t_k + h
    at = [0, 1, 1, 2, 2, 3, 3, 4]
    states = [x + 0.25 * i for i in range(len(at))]
    for mixture in LOGLIK_MIXTURES + [NINE]:
        gmm = GaussianMixture(*mixture)
        table = oracle._loglik_table(gmm, spec, times)
        records = oracle._StageRecords(len(gmm.weights), x.size, 2, len(at))
        rhs, _ = oracle._loglik_stages(table, records, np.zeros(x.size), 1e-3, times, 0)
        for state, j in zip(states, at):
            out = np.empty(x.size)
            rhs(state, j, out)
            pushed = marginal_at(gmm, spec, times[j])
            f, c = spec.f(times[j]), 0.5 * spec.g2(times[j])
            assert _same_bits(out, f * state - c * pushed.score(state))
        slopes = np.empty((len(at), x.size))
        oracle._divergence_slopes(table[1], records, 0, slopes)
        for row, state, j in zip(slopes, states, at):
            pushed = marginal_at(gmm, spec, times[j])
            f, c = spec.f(times[j]), 0.5 * spec.g2(times[j])
            assert _same_bits(row, f - c * pushed.score_dx(state))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e300])
@pytest.mark.parametrize("preset", ["vp", "ve"])
@pytest.mark.parametrize("solve", ["pf_loglik", "reference_solve"])
def test_non_finite_start_diverges_at_step_0(solve, preset, bad, request):
    # VE has f = 0, and 0 * inf must not stop the solve with a warning
    # before its finite check names the step
    spec = request.getfixturevalue(preset)
    gmm = GaussianMixture(*LOGLIK_MIXTURES[1])
    x = np.array([0.3, bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match="at step 0$") as err:
            if solve == "pf_loglik":
                pf_loglik(gmm, spec, x)
            else:
                reference_solve(spec, EpsilonField(gmm, spec), x)
    assert err.value.step_index == 0
    assert err.value.time == (0.0 if solve == "pf_loglik" else spec.t_end)


def test_solves_leave_the_callers_state_alone(vp):
    gmm = GaussianMixture(*LOGLIK_MIXTURES[1])
    x = np.array([-1.3, 0.0, 1.7])
    kept = x.copy()
    pf_loglik(gmm, vp, x)
    reference_solve(vp, EpsilonField(gmm, vp), x)
    reference_states(vp, EpsilonField(gmm, vp), x, [0.5, vp.t_end])
    assert x.tobytes() == kept.tobytes()


@pytest.mark.parametrize("preset, t0", [("vp", 1e-3), ("ve", 1e-5)])
def test_field_equals_marginal_mixture_score(preset, t0, request):
    spec = request.getfixturevalue(preset)
    gmm = GaussianMixture([0.3, 0.5, 0.2], [1.0, -0.5, 0.1], [0.2, 0.4, 0.05])
    field = EpsilonField(gmm, spec)
    rng = np.random.default_rng(3)
    xs = (0.7, rng.normal(0, 2, 1), rng.normal(0, 2, 64), rng.normal(0, 20, 8192),
          np.zeros(0), rng.normal(0, 2, (40, 30)))

    def check(x, t):
        mixture = marginal_at(gmm, spec, t)
        want = -float(spec.L(t)) * mixture.score(x)
        for _ in range(2):  # a memo miss, then a hit
            assert _same_bits(field(x, t), want)
            assert _same_bits(field.score(x, t), mixture.score(x))

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
    serial = EpsilonField(gmm, vp)
    want = [serial(x, t) for t in times]
    shared = EpsilonField(gmm, vp)
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
        field = EpsilonField(gmm, spec)
        for t in (0.0, 1e-3, 0.37, 0.5, 1.0):
            # the pair code of score_dx and of each pf_loglik stage
            s, s_dx = _score_pair(x, *field._marginal(t)[1:])
            mixture = marginal_at(gmm, spec, t)
            assert np.array_equal(s, mixture.score(x))
            assert np.array_equal(s_dx, mixture.score_dx(x))


def test_em_vector_state_shape_and_independence(vp, gauss_oracle):
    _, field = gauss_oracle
    out = em_terminal_batch(vp, field, 1.0, 1e-3, 1e-3, 21, 2)
    assert out.shape == (2,)
    assert np.all(np.isfinite(out))
    # lam=0 is deterministic, so each trajectory matches its scalar run
    vec = em_terminal_batch(vp, field, 0.0, 1e-3, 1e-3, 21, 2)
    plan = _em_plan(vp, 0.0, 1e-3, 1e-3)
    for k, x in enumerate(draw_terminal_states(vp, 21, 2)):
        assert vec[k] == _execute("em", plan, field, np.asarray(x))[0]
