import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from diffint import (
    DivergenceError,
    EpsilonField,
    GaussianMixture,
    IPNDM_BLEND,
    ParameterError,
    log_rho,
    make_grid,
    power_rho,
    power_t,
    quadratic,
    reference_solve,
    run_sampler,
    tab_weights,
    uniform,
    vesde,
)
from diffint.diffusion import rho_of_t, t_of_rho, transition
from diffint.harness import fit_order
from diffint.samplers import (
    RK_METHODS,
    _ddim_coeffs,
    _ddim_plan,
    _ei_score_plan,
    _em_plan,
    _euler_plan,
    _ipndm_plan,
    _rho_ab_plan,
    _rho_rk_plan,
    _sddim_coeffs,
    _sddim_plan,
    _SAMPLERS,
    SAMPLER_NAMES,
)
from diffint.timegrid import TimeGrid


def _terminal_errors(spec, field, name, n_values, x_batch, grid_fn, **kwargs):
    reference = reference_solve(spec, field, x_batch).terminal
    errors = []
    for n in n_values:
        run = run_sampler(name, spec, field, grid_fn(n), x_batch, **kwargs)
        errors.append(float(np.mean(np.abs(run.terminal - reference))))
    return np.array(errors)


# -- euler -------------------------------------------------------------


def test_euler_zero_field_constant(ve):
    grid = uniform(1e-5, 1.0, 12)
    run = run_sampler("euler", ve, lambda x, t: np.zeros_like(x), grid, np.array([2.0, -1.0]))
    assert np.all(run.states == run.states[-1])


def test_euler_first_order_convergence(vp, gauss_oracle, x_batch):
    _, field = gauss_oracle
    n_values = (10, 20, 40, 80)
    errors = _terminal_errors(
        vp, field, "euler", n_values, x_batch, lambda n: uniform(1e-3, 1.0, n)
    )
    order, _ = fit_order(n_values, errors)
    assert 0.7 <= order <= 1.3


# -- ei_score ----------------------------------------------------------


def test_ei_score_exact_for_constant_score(ve):
    # field chosen so the raw score is the constant -c
    c = 0.8
    field = lambda x, t: c * ve.L(t) * np.ones_like(np.asarray(x, dtype=float))
    grid = uniform(1e-5, 1.0, 4)
    run = run_sampler("ei_score", ve, field, grid, 1.0)
    # exact solution of dx/dt = +g2 c / 2: x(t) = x_T + c/2 (sigma_t^2 - sigma_T^2)
    for i in range(5):
        sig2_hi = float(ve.L(1.0)) ** 2
        sig2_lo = float(ve.L(grid.times[i])) ** 2
        assert np.isclose(run.states[i], 1.0 + 0.5 * c * (sig2_lo - sig2_hi), rtol=1e-12)


def test_ei_score_worse_than_euler_on_concentrated_data(vp, concentrated_oracle, x_batch):
    _, field = concentrated_oracle
    grid = power_t(1e-3, 1.0, 10, 7.0)
    reference = reference_solve(vp, field, x_batch).terminal
    err_ei, err_euler = (
        np.mean(np.abs(run_sampler(name, vp, field, grid, x_batch).terminal - reference))
        for name in ("ei_score", "euler")
    )
    assert err_ei > err_euler


def test_ei_score_halving_improves(vp, gauss_oracle, x_batch):
    _, field = gauss_oracle
    errors = _terminal_errors(
        vp, field, "ei_score", (20, 40, 80), x_batch,
        lambda n: uniform(1e-3, 1.0, n),
    )
    assert errors[1] < errors[0] and errors[2] < errors[1]
    # first-order method: halving the step should roughly halve the error
    assert errors[0] / errors[1] > 1.5


# -- ddim --------------------------------------------------------------


def test_ddim_coeffs_identity_when_times_equal(vp):
    # (a, c) of x_prev = a x + c eps
    assert _ddim_coeffs(vp, 0.5, 0.5) == (1.0, 0.0)


def test_ddim_zero_eps_is_pure_scaling(vp):
    t, t_prev = 0.8, 0.5
    run = run_sampler("ddim", vp, lambda x, t: np.zeros_like(x), TimeGrid([t_prev, t]), 2.0)
    assert run.terminal == 2.0 * transition(vp, t_prev, t)


def test_ddim_equals_zero_order_tab(vp, gauss_oracle):
    _, field = gauss_oracle
    grid = quadratic(1e-3, 1.0, 10)
    a = run_sampler("ddim", vp, field, grid, 1.0)
    b = run_sampler("tab", vp, field, grid, 1.0, order=0)
    assert np.max(np.abs(a.states - b.states)) < 1e-8


# -- tab ---------------------------------------------------------------


def test_tab_error_decreases_with_n_and_order(vp, gauss_oracle, x_batch):
    _, field = gauss_oracle
    reference = reference_solve(vp, field, x_batch).terminal
    errs = {}
    for r in (0, 2):
        for n in (10, 20, 40):
            run = run_sampler("tab", vp, field, quadratic(1e-3, 1.0, n), x_batch, order=r)
            errs[r, n] = float(np.mean(np.abs(run.terminal - reference)))
    for r in (0, 2):
        assert errs[r, 10] > errs[r, 20] > errs[r, 40]
    assert errs[2, 10] < errs[0, 10]


def test_tab_exact_for_constant_field(vp):
    const = 0.9
    field = lambda x, t: const * np.ones_like(np.asarray(x, dtype=float))
    grid = quadratic(1e-3, 1.0, 8)
    for r in (0, 1, 2, 3):
        run = run_sampler("tab", vp, field, grid, 1.0, order=r)
        for i in range(grid.n_steps + 1):
            psi = transition(vp, grid.times[i], 1.0)
            coeff = float(vp.L(grid.times[i])) - psi * float(vp.L(1.0))
            assert abs(float(run.states[i]) - (psi * 1.0 + coeff * const)) < 1e-10


# -- rho_ab ------------------------------------------------------------


def test_rho_ab_zero_order_is_ddim_exactly(vp, gauss_oracle):
    _, field = gauss_oracle
    grid = quadratic(1e-3, 1.0, 10)
    a = run_sampler("ddim", vp, field, grid, 1.0)
    b = run_sampler("rho_ab", vp, field, grid, 1.0, order=0)
    assert np.max(np.abs(a.states - b.states)) < 1e-12


def test_rho_ab_constant_field_advances_linearly(vp):
    const = -0.6
    field = lambda x, t: const * np.ones_like(np.asarray(x, dtype=float))
    grid = quadratic(1e-3, 1.0, 6)
    run = run_sampler("rho_ab", vp, field, grid, 1.0, order=2)
    rho = grid.rho_values(vp)
    mu = vp.mu(grid.times)
    y_init = 1.0 / mu[-1]
    for i in range(7):
        expected = mu[i] * (y_init + const * (rho[i] - rho[-1]))
        assert abs(float(run.states[i]) - expected) < 1e-10


def test_rho_ab_and_tab_gap_vanishes(vp, gauss_oracle, x_batch):
    # the two multistep families integrate different variables but
    # approximate the same solution; their terminal gap shrinks as the
    # grid refines
    _, field = gauss_oracle
    gaps = []
    for n in (20, 40, 80):
        grid = quadratic(1e-3, 1.0, n)
        gap = np.max(
            np.abs(
                run_sampler("tab", vp, field, grid, x_batch, order=2).terminal
                - run_sampler("rho_ab", vp, field, grid, x_batch, order=2).terminal
            )
        )
        gaps.append(float(gap))
    assert gaps[0] > gaps[1] > gaps[2], gaps


@pytest.mark.parametrize("r,min_order", [(1, 1.5), (2, 2.5)])
def test_rho_ab_convergence_order(vp, gauss_oracle, x_batch, r, min_order):
    _, field = gauss_oracle
    n_values = (10, 20, 40, 80)
    errors = _terminal_errors(
        vp, field, "rho_ab", n_values, x_batch, lambda n: uniform(1e-3, 1.0, n), order=r
    )
    order, _ = fit_order(n_values, errors)
    assert order >= min_order


# -- rho Runge-Kutta ----------------------------------------------------


def test_rho_midpoint_stage_time(vp, gauss_oracle):
    _, field = gauss_oracle
    grid = quadratic(1e-3, 1.0, 5)
    calls = []

    def recording(x, t):
        calls.append(float(t))
        return field(x, t)

    run_sampler("rho_mid", vp, recording, grid, 1.0)
    rho = grid.rho_values(vp)
    for step, i in enumerate(range(5, 0, -1)):
        t_first, t_mid = calls[2 * step], calls[2 * step + 1]
        assert t_first == grid.times[i]
        expected_mid = t_of_rho(vp, 0.5 * (rho[i] + rho[i - 1]))
        assert abs(t_mid - expected_mid) < 1e-12


def test_rho_rk_constant_field_exact(vp):
    const = 1.1
    field = lambda x, t: const * np.ones_like(np.asarray(x, dtype=float))
    grid = quadratic(1e-3, 1.0, 5)
    rho = grid.rho_values(vp)
    mu = vp.mu(grid.times)
    for name in ("rho_mid", "rho_heun2", "rho_kutta3", "rho_rk4"):
        run = run_sampler(name, vp, field, grid, 1.0)
        expected = mu[0] * (1.0 / mu[-1] + const * (rho[0] - rho[-1]))
        assert abs(float(run.terminal) - expected) < 1e-10


@pytest.mark.parametrize("preset, t0", [("vp", 1e-3), ("ve", 1e-5)])
def test_rho_rk_stage_mu_is_mu_of_the_stage_time(preset, t0, request):
    # Under a zero field y = x / mu stays put, so each evaluation gets
    # mu(t) y at its stage time t, with mu(t) as one scalar call gives it,
    # up to the rounding of the plan's mu ratios.  t(rho) moved down by
    # 0.02 puts the first steps' interior stages below t0, where they are
    # clamped to t0 before mu is taken, which moves mu by far more.
    spec = request.getfixturevalue(preset)
    shifted = dataclasses.replace(
        spec, t_of_rho_closed=lambda rho: spec.t_of_rho_closed(rho) - 0.02
    )
    grid = quadratic(t0, 1.0, 12)
    x = np.array([-1.0, 0.2, 1.4]) * spec.pi_std
    y = x / spec.mu(grid.times)[-1]
    calls = []

    def zero(x, t):
        calls.append((np.copy(x), t))  # the executor reuses its state buffers
        return np.zeros_like(x)

    for name, method in (("rho_mid", "midpoint"), ("rho_heun2", "heun2"),
                         ("rho_kutta3", "kutta3"), ("rho_rk4", "rk4")):
        calls.clear()
        run = run_sampler(name, shifted, zero, grid, x)
        for x_t, t in calls:
            want = float(spec.mu(t)) * y
            assert np.all(np.abs(x_t - want) <= 1e-15 * np.abs(want))
        # one note per clamped stage; a stage at c = 1 of the last step
        # is t0 itself, and heun2 has no interior stages to clamp
        at_t0 = sum(t == t0 for _, t in calls)
        assert at_t0 - (1.0 in RK_METHODS[method][0]) == len(run.notes)
        assert len(run.notes) > 0 or method == "heun2"


def test_rho_rk_unknown_method(vp, gauss_oracle):
    _, field = gauss_oracle
    with pytest.raises(ParameterError):
        run_sampler("rho_rk5", vp, field, uniform(1e-3, 1.0, 5), 1.0)


# -- ipndm ---------------------------------------------------------------


def test_ipndm_blend_fractions_exact():
    assert IPNDM_BLEND[1] == (Fraction(3, 2), Fraction(-1, 2))
    assert IPNDM_BLEND[2] == (Fraction(23, 12), Fraction(-4, 3), Fraction(5, 12))
    assert IPNDM_BLEND[3] == (
        Fraction(55, 24),
        Fraction(-59, 24),
        Fraction(37, 24),
        Fraction(-3, 8),
    )
    for order, coeffs in IPNDM_BLEND.items():
        assert sum(coeffs) == Fraction(1), order


def test_ipndm_first_step_is_ddim_bitwise(vp, gauss_oracle):
    _, field = gauss_oracle
    grid = uniform(1e-3, 1.0, 10)
    a = run_sampler("ipndm", vp, field, grid, 1.0, order=3)
    b = run_sampler("ddim", vp, field, grid, 1.0)
    assert a.states[grid.n_steps - 1] == b.states[grid.n_steps - 1]


def test_ipndm_constant_field_matches_ddim(vp):
    const = 0.45
    field = lambda x, t: const * np.ones_like(np.asarray(x, dtype=float))
    grid = uniform(1e-3, 1.0, 12)
    base = run_sampler("ddim", vp, field, grid, 1.0)
    for r in (0, 1, 2, 3):
        run = run_sampler("ipndm", vp, field, grid, 1.0, order=r)
        assert np.allclose(run.states, base.states, rtol=1e-12, atol=1e-14)


IPNDM_NOTE = "blend weights assume even steps in rho; the grid's are uneven"


def test_ipndm_warns_on_nonuniform_grid(vp, ve):
    # the blend is Adams-Bashforth in rho, so a grid even in t gets the
    # note, on both presets, and only a grid even in rho goes without
    field = lambda x, t: np.zeros_like(x)
    for spec, t0 in ((vp, 1e-3), (ve, 1e-5)):
        for grid in (uniform(t0, 1.0, 10), quadratic(t0, 1.0, 10), log_rho(spec, t0, 10),
                     power_rho(spec, t0, 10, 2.0)):
            assert run_sampler("ipndm", spec, field, grid, 1.0, order=2).notes == (IPNDM_NOTE,)
        grid = power_rho(spec, t0, 10, 1.0)
        assert run_sampler("ipndm", spec, field, grid, 1.0, order=2).notes == ()


@pytest.mark.parametrize("preset, t0", [("vp", 1e-3), ("ve", 1e-5)])
def test_ipndm_is_rho_ab_on_even_steps_in_rho(preset, t0, request):
    # where the note is absent, the fixed blend is rho_ab's exact weights;
    # on even steps in t, which the note flags, the two part by over 1e-3
    from diffint.oracle import draw_terminal_states

    spec = request.getfixturevalue(preset)
    field = EpsilonField(GaussianMixture([0.3, 0.7], [1.0, -0.5], [0.2, 0.4]), spec)
    x = draw_terminal_states(spec, 0, 16)

    def gap(grid, r):
        ipndm = run_sampler("ipndm", spec, field, grid, x, order=r).terminal
        return np.max(np.abs(ipndm - run_sampler("rho_ab", spec, field, grid, x,
                                                  order=r).terminal))

    for r in (1, 2, 3):
        assert gap(power_rho(spec, t0, 40, 1.0), r) <= 1e-12
        assert gap(uniform(t0, 1.0, 40), r) > 1e-3


def test_ipndm_beats_ddim_on_oracle(vp, gauss_oracle, x_batch):
    _, field = gauss_oracle
    grid = uniform(1e-3, 1.0, 10)
    reference = reference_solve(vp, field, x_batch).terminal
    ipndm = run_sampler("ipndm", vp, field, grid, x_batch, order=3)
    err_ipndm = np.mean(np.abs(ipndm.terminal - reference))
    err_ddim = np.mean(np.abs(run_sampler("ddim", vp, field, grid, x_batch).terminal - reference))
    assert err_ipndm < err_ddim


# -- stochastic ddim ------------------------------------------------------


def test_sddim_eta_zero_equals_ddim(vp, gauss_oracle):
    _, field = gauss_oracle
    grid = quadratic(1e-3, 1.0, 10)
    x_T = np.array([1.3, -0.4])
    got = run_sampler("sddim", vp, field, grid, x_T, eta=0.0, seed=0).states
    assert np.array_equal(got, run_sampler("ddim", vp, field, grid, x_T).states)


def _sddim_one_step_draws(spec, x, eps, t, t_prev, eta, n=10000, seed=7):
    """n draws of one sddim step from x with the noise prediction held at eps."""
    field = lambda state, _: np.full(np.shape(state), eps)
    return run_sampler("sddim", spec, field, TimeGrid([t_prev, t]), np.full(n, x),
                       eta=eta, seed=seed).terminal


def test_sddim_moments_match_closed_form(vp):
    x, eps, t, t_prev, eta = 0.8, 0.25, 0.6, 0.35, 0.7
    draws = _sddim_one_step_draws(vp, x, eps, t, t_prev, eta)
    a_t = float(vp.mu(t)) ** 2
    a_prev = float(vp.mu(t_prev)) ** 2
    var_eta = eta**2 * (1 - a_prev) / (1 - a_t) * (1 - a_t / a_prev)
    mean = np.sqrt(a_prev) * (x - np.sqrt(1 - a_t) * eps) / np.sqrt(a_t)
    mean += np.sqrt(1 - a_prev - var_eta) * eps
    se = np.sqrt(var_eta / draws.size)
    assert abs(draws.mean() - mean) <= 3 * se
    assert abs(draws.var() - var_eta) <= 0.05 * var_eta


def test_sddim_moments_match_closed_form_ve(ve):
    # VE posterior step: x_prev = x - sigma eps + sqrt(sigma_prev^2 - var) eps
    # + sqrt(var) xi, var = eta^2 sigma_prev^2 (sigma^2 - sigma_prev^2) / sigma^2
    x, eps, t, t_prev, eta = 0.8, 0.25, 0.6, 0.35, 0.7
    draws = _sddim_one_step_draws(ve, x, eps, t, t_prev, eta)
    sig, sig_prev = float(ve.L(t)), float(ve.L(t_prev))
    var_eta = eta**2 * sig_prev**2 * (sig**2 - sig_prev**2) / sig**2
    mean = x - sig * eps + np.sqrt(sig_prev**2 - var_eta) * eps
    se = np.sqrt(var_eta / draws.size)
    assert abs(draws.mean() - mean) <= 3 * se
    assert abs(draws.var() - var_eta) <= 0.05 * var_eta


def test_sddim_degenerate_endpoint_guard(vp):
    # L(t_prev) = 0 at t_prev = 0
    assert np.isfinite(_sddim_coeffs(vp, 0.3, 0.0, 0.9)).all()


def test_sddim_eta_validation(vp, gauss_oracle):
    _, field = gauss_oracle
    with pytest.raises(ParameterError):
        run_sampler("sddim", vp, field, TimeGrid([0.1, 0.3]), 0.5, eta=1.5, seed=0)


def test_sddim_sample_deterministic_given_seed(vp, gauss_oracle):
    _, field = gauss_oracle
    grid = uniform(1e-3, 1.0, 10)
    a = run_sampler("sddim", vp, field, grid, 1.0, eta=0.5, seed=3)
    b = run_sampler("sddim", vp, field, grid, 1.0, eta=0.5, seed=3)
    assert np.array_equal(a.states, b.states)
    c = run_sampler("sddim", vp, field, grid, 1.0, eta=0.5, seed=4)
    assert not np.array_equal(a.states, c.states)


# -- cross-cutting invariants ---------------------------------------------


def test_nfe_accounting(vp, gauss_oracle):
    _, field = gauss_oracle
    grid = quadratic(1e-3, 1.0, 10)
    assert run_sampler("euler", vp, field, grid, 1.0).nfe == 10
    assert run_sampler("ei_score", vp, field, grid, 1.0).nfe == 10
    assert run_sampler("ddim", vp, field, grid, 1.0).nfe == 10
    assert run_sampler("tab", vp, field, grid, 1.0, order=2).nfe == 10
    assert run_sampler("rho_ab", vp, field, grid, 1.0, order=2).nfe == 10
    assert run_sampler("ipndm", vp, field, grid, 1.0, order=3).nfe == 10
    assert run_sampler("sddim", vp, field, grid, 1.0, eta=0.3, seed=0).nfe == 10
    stages = {"rho_mid": 2, "rho_heun2": 2, "rho_kutta3": 3, "rho_rk4": 4}
    for name, s in stages.items():
        assert run_sampler(name, vp, field, grid, 1.0).nfe == 10 * s
    # a plain callable is called once per evaluation, as the field is
    for name in SAMPLER_NAMES:
        calls = []
        plain = lambda x, t: calls.append(t) or np.zeros_like(x)
        run = run_sampler(name, vp, plain, grid, 1.0, order=2, eta=0.3, seed=0)
        assert run.nfe == len(calls) == 10 * stages.get(name, 1)


@pytest.mark.parametrize("preset, t0", [("vp", 1e-3), ("ve", 1e-5)])
def test_a_run_fills_a_fresh_field_memo_in_one_call(preset, t0, request, monkeypatch):
    # the executor fills an EpsilonField's memo with the plan's times from
    # one _marginals call, holding what one miss per time would have held
    from diffint import oracle

    spec = request.getfixturevalue(preset)
    gmm = GaussianMixture([0.3, 0.7], [1.0, -0.5], [0.2, 0.4])
    grid = quadratic(t0, 1.0, 6)
    calls = []
    marginals = oracle._marginals
    monkeypatch.setattr(oracle, "_marginals", lambda *args: calls.append(args) or
                        marginals(*args))
    for name in SAMPLER_NAMES:
        times = _SAMPLERS[name][0](spec, grid, 2, 0.5).eval_times.ravel().tolist()
        field = EpsilonField(gmm, spec)
        calls.clear()
        run = run_sampler(name, spec, field, grid, np.array([0.3, -1.2]), order=2, eta=0.5,
                          seed=3)
        assert len(calls) == 1 and run.nfe == len(times)
        assert set(field._memo) == set(times)
        missed = EpsilonField(gmm, spec)
        for t in times:
            got, want = field._memo[t], missed._marginal(t)
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_initial_state_recorded(vp, gauss_oracle):
    _, field = gauss_oracle
    grid = uniform(1e-3, 1.0, 5)
    run = run_sampler("tab", vp, field, grid, 2.5, order=1)
    assert run.states[grid.n_steps] == 2.5


def test_grid_refinement_monotone(vp, gauss_oracle, x_batch):
    _, field = gauss_oracle
    reference = reference_solve(vp, field, x_batch).terminal
    samplers = {
        "euler": lambda g: run_sampler("euler", vp, field, g, x_batch),
        "ddim": lambda g: run_sampler("ddim", vp, field, g, x_batch),
        "tab2": lambda g: run_sampler("tab", vp, field, g, x_batch, order=2),
        "rho_ab2": lambda g: run_sampler("rho_ab", vp, field, g, x_batch, order=2),
        "rho_heun2": lambda g: run_sampler("rho_heun2", vp, field, g, x_batch),
        "rho_kutta3": lambda g: run_sampler("rho_kutta3", vp, field, g, x_batch),
        "rho_rk4": lambda g: run_sampler("rho_rk4", vp, field, g, x_batch),
        "ipndm3": lambda g: run_sampler("ipndm", vp, field, g, x_batch, order=3),
    }
    for name, runner in samplers.items():
        errors = []
        for n in (10, 20, 40, 80):
            run = runner(uniform(1e-3, 1.0, n))
            errors.append(float(np.mean(np.abs(run.terminal - reference))))
        violations = sum(errors[k + 1] > errors[k] for k in range(3))
        allowed = 1 if name == "rho_rk4" and min(errors) < 1e-9 else 0
        assert violations <= allowed, (name, errors)


def test_cross_family_agreement_at_n160(vp, gauss_oracle):
    _, field = gauss_oracle
    states = np.array([-1.0, -0.5, 0.25, 0.5, 1.0])
    grid = quadratic(1e-3, 1.0, 160)
    reference = reference_solve(vp, field, states).terminal
    terminals = {
        "tab2": run_sampler("tab", vp, field, grid, states, order=2).terminal,
        "rho_ab2": run_sampler("rho_ab", vp, field, grid, states, order=2).terminal,
        "rho_mid": run_sampler("rho_mid", vp, field, grid, states).terminal,
        "rho_kutta3": run_sampler("rho_kutta3", vp, field, grid, states).terminal,
        "rho_rk4": run_sampler("rho_rk4", vp, field, grid, states).terminal,
    }
    for name, terminal in terminals.items():
        assert np.max(np.abs(terminal - reference)) < 1e-5, name
    names = list(terminals)
    for a in names:
        for b in names:
            assert np.max(np.abs(terminals[a] - terminals[b])) < 1e-5, (a, b)
    # heun2 converges to the same point but with a visibly larger
    # constant at this resolution; see the decisions ledger
    heun = run_sampler("rho_heun2", vp, field, grid, states).terminal
    assert np.max(np.abs(heun - reference)) < 1e-3


def test_constant_field_exactness_class(vp):
    const = 0.7
    field = lambda x, t: const * np.ones_like(np.asarray(x, dtype=float))
    grid = quadratic(1e-3, 1.0, 6)
    rho = grid.rho_values(vp)
    mu = vp.mu(grid.times)
    exact = mu[0] * (1.0 / mu[-1] + const * (rho[0] - rho[-1]))
    runs = [
        run_sampler("ddim", vp, field, grid, 1.0),
        run_sampler("tab", vp, field, grid, 1.0, order=3),
        run_sampler("rho_ab", vp, field, grid, 1.0, order=3),
        run_sampler("rho_rk4", vp, field, grid, 1.0),
        run_sampler("ipndm", vp, field, grid, 1.0, order=3),
    ]
    for run in runs:
        assert abs(float(run.terminal) - exact) < 1e-10, run.sampler


def test_ve_preset_end_to_end():
    # the second preset through the full pipeline: multistep and
    # rescaled-time samplers against the reference solver
    spec = vesde(0.01, 10.0)
    gmm = GaussianMixture([1.0], [0.2], [0.3])
    field = EpsilonField(gmm, spec)
    x_init = np.array([3.0, -5.0, 0.5])
    reference = reference_solve(spec, field, x_init, t0=1e-5).terminal
    from diffint import log_rho

    grid40 = log_rho(spec, 1e-5, 40)
    grid80 = log_rho(spec, 1e-5, 80)
    for runner in (
        lambda g: run_sampler("tab", spec, field, g, x_init, order=1),
        lambda g: run_sampler("ddim", spec, field, g, x_init),
        lambda g: run_sampler("rho_ab", spec, field, g, x_init, order=1),
        lambda g: run_sampler("rho_heun2", spec, field, g, x_init),
        lambda g: run_sampler("euler", spec, field, g, x_init),
        lambda g: run_sampler("ei_score", spec, field, g, x_init),
        lambda g: run_sampler("ipndm", spec, field, g, x_init, order=3),
        lambda g: run_sampler("rho_mid", spec, field, g, x_init),
        lambda g: run_sampler("rho_kutta3", spec, field, g, x_init),
        lambda g: run_sampler("rho_rk4", spec, field, g, x_init),
    ):
        coarse = np.max(np.abs(runner(grid40).terminal - reference))
        fine = np.max(np.abs(runner(grid80).terminal - reference))
        assert fine < coarse
        assert fine < 0.05


# (sampler, order argument, nominal order) of every sampler with one, but
# ipndm, whose fixed blend assumes even steps in rho, and the stochastic
# sddim
NOMINAL_ORDERS = [("euler", 0, 1), ("ei_score", 0, 1), ("ddim", 0, 1),
                  ("tab", 1, 2), ("tab", 2, 3), ("tab", 3, 4),
                  ("rho_ab", 1, 2), ("rho_ab", 2, 3), ("rho_ab", 3, 4),
                  ("rho_mid", 0, 2), ("rho_heun2", 0, 2), ("rho_kutta3", 0, 3),
                  ("rho_rk4", 0, 4)]


@pytest.mark.parametrize("name, order, nominal", NOMINAL_ORDERS)
def test_every_sampler_reaches_its_order_on_ve(name, order, nominal, ve):
    # against the closed form of one Gaussian: with v = mu^2 s^2 + L^2,
    # x(t0) = mu(t0) m + sqrt(v(t0) / v(T)) (x_T - mu(T) m).  Only the
    # lower bound is gated: with K = 1, rho_mid and tab r = 2 on VE read
    # above their nominal orders.  The errors at N = 160 run from 3e-2
    # (euler) down to 1e-8 (rho_rk4), far above the roundoff floor.
    from diffint.oracle import draw_terminal_states

    t0, m, s = 1e-5, 0.5, 0.25
    field = EpsilonField(GaussianMixture([1.0], [m], [s]), ve)
    x_T = draw_terminal_states(ve, 0, 16)
    v = lambda t: ve.mu(t) ** 2 * s**2 + ve.L(t) ** 2
    exact = ve.mu(t0) * m + np.sqrt(v(t0) / v(ve.t_end)) * (x_T - ve.mu(ve.t_end) * m)
    e80, e160 = (np.mean(np.abs(run_sampler(name, ve, field, log_rho(ve, t0, n), x_T,
                                            order=order).terminal - exact))
                 for n in (80, 160))
    assert np.log2(e80 / e160) >= nominal - 0.3


def test_deterministic_samplers_bitwise_reproducible(vp, gauss_oracle):
    _, field = gauss_oracle
    grid = quadratic(1e-3, 1.0, 10)
    runners = [
        lambda: run_sampler("euler", vp, field, grid, 1.0),
        lambda: run_sampler("ei_score", vp, field, grid, 1.0),
        lambda: run_sampler("ddim", vp, field, grid, 1.0),
        lambda: run_sampler("tab", vp, field, grid, 1.0, order=2),
        lambda: run_sampler("rho_ab", vp, field, grid, 1.0, order=2),
        lambda: run_sampler("rho_rk4", vp, field, grid, 1.0),
        lambda: run_sampler("ipndm", vp, field, grid, 1.0, order=3),
    ]
    for runner in runners:
        assert np.array_equal(runner().states, runner().states)


def test_vector_states_are_independent_axes(vp):
    # a multi-axis state behaves as a product of independent scalar
    # problems: running the stacked state equals stacking scalar runs
    gmm = GaussianMixture([1.0], [0.3], [0.5])
    field = EpsilonField(gmm, vp)
    grid = quadratic(1e-3, 1.0, 8)
    stacked = run_sampler("tab", vp, field, grid, np.array([0.4, -1.1, 2.0]), order=2).states
    for k, x in enumerate((0.4, -1.1, 2.0)):
        single = run_sampler("tab", vp, field, grid, np.asarray(x), order=2).states
        assert np.array_equal(stacked[:, k], single)


def test_divergence_error_carries_step_index(vp):
    exploding = lambda x, t: np.full_like(np.asarray(x, dtype=float), np.inf)
    grid = uniform(1e-3, 1.0, 10)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as err:
            run_sampler("euler", vp, exploding, grid, 1.0)
    assert err.value.step_index == 9
    # a field that is infinite only at the second stage time of step 6
    # (interior, or for heun2 the stage at t_5) fails that step's node
    for name in ("rho_mid", "rho_heun2", "rho_kutta3", "rho_rk4"):
        times = []
        run_sampler(name, vp, lambda x, t: times.append(t) or np.zeros_like(x), grid, 1.0)
        bad = times[(10 - 6) * (len(times) // 10) + 1]
        field = lambda x, t: np.full_like(x, np.inf if t == bad else 0.0)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match=f"^{name} diverged stepping into "
                                                      "node 5 ") as err:
                run_sampler(name, vp, field, grid, 1.0)
        assert err.value.step_index == 5 and err.value.time == grid.times[5]


def test_run_sampler_dispatch(vp, gauss_oracle):
    _, field = gauss_oracle
    grid = uniform(1e-3, 1.0, 5)
    for name in ("euler", "ei_score", "ddim", "tab", "rho_ab", "rho_mid",
                 "rho_heun2", "rho_kutta3", "rho_rk4", "ipndm"):
        run = run_sampler(name, vp, field, grid, 1.0, order=1)
        assert run.states.shape == (6,)
    run_sampler("sddim", vp, field, grid, 1.0, eta=0.4, seed=11)
    with pytest.raises(ParameterError):
        run_sampler("nope", vp, field, grid, 1.0)
    with pytest.raises(ParameterError):
        run_sampler("sddim", vp, field, grid, 1.0)


# -- step plans -----------------------------------------------------------


def test_ipndm_zero_order_plan_is_ddim_plan_bitwise(vp, ve):
    for spec in (vp, ve):
        grid = quadratic(1e-3, 1.0, 10)
        ddim, ipndm = _ddim_plan(spec, grid), _ipndm_plan(spec, grid, 0)
        assert np.array_equal(ipndm.psi, ddim.psi)
        assert all(np.array_equal(a, b) for a, b in zip(ipndm.c, ddim.c))


def test_rho_ab_zero_order_plan_is_ddim_plan(vp, ve):
    for spec in (vp, ve):
        grid = quadratic(1e-3, 1.0, 10)
        ddim, rho_ab = _ddim_plan(spec, grid), _rho_ab_plan(spec, grid, 0)
        assert np.allclose(rho_ab.psi, ddim.psi, rtol=1e-12, atol=0)
        for a, b in zip(rho_ab.c, ddim.c):
            assert np.allclose(a, b, rtol=1e-12, atol=0)


def _per_step_plans(spec, grid, r, eta):
    """The per-step formulas of euler, ddim, ipndm (order r) and sddim
    (noise scale eta), one step at a time: name -> (a, rows, s)."""
    t, n = grid.times, grid.n_steps
    plans = {name: ([], [], []) for name in ("euler", "ddim", "ipndm", "sddim")}
    for i in range(1, n + 1):
        dt = t[i] - t[i - 1]
        euler = (1.0 - spec.f(t[i]) * dt, [-0.5 * spec.g2(t[i]) / spec.L(t[i]) * dt])
        psi = transition(spec, t[i - 1], t[i])
        c = spec.L(t[i - 1]) - psi * spec.L(t[i])
        ipndm = (psi, [c * float(b) for b in IPNDM_BLEND[min(r, n - i)]])
        # squares as products, the bits of an array's square
        l_t, l_prev = float(spec.L(t[i])), float(spec.L(t[i - 1]))
        l_t2, l_prev2, ratio = l_t * l_t, l_prev * l_prev, l_prev / psi
        var = eta**2 * max(0.0, l_prev2 / l_t2 * (l_t2 - ratio * ratio))
        sddim = (psi, [np.sqrt(max(0.0, l_prev2 - var)) - psi * l_t], np.sqrt(var))
        for name, step in (("euler", euler), ("ddim", (psi, [c])), ("ipndm", ipndm),
                           ("sddim", sddim)):
            for column, value in zip(plans[name], step):
                column.append(value)
    return {name: (np.array(a), [np.array(row) for row in rows], np.array(s))
            for name, (a, rows, s) in plans.items()}


@pytest.mark.parametrize("preset", ["vp", "ve"])
@pytest.mark.parametrize("schedule", ["uniform", "quadratic", "power_rho", "log_rho"])
def test_array_plans_equal_per_step_formulas(preset, schedule, request):
    spec = request.getfixturevalue(preset)
    t0 = 1e-3 if preset == "vp" else 1e-5
    for n in (1, 2, 3, 10, 40):
        grid = make_grid(schedule, t0=t0, t_end=1.0, n=n, kappa=7.0, spec=spec)
        for r in range(4):
            expected = _per_step_plans(spec, grid, r, 0.6)
            plans = {"euler": _euler_plan(spec, grid), "ddim": _ddim_plan(spec, grid),
                     "ipndm": _ipndm_plan(spec, grid, r)}
            for name, plan in plans.items():
                a, rows, _ = expected[name]
                assert plan.psi.tobytes() == a.tobytes()
                assert [row.tobytes() for row in plan.c] == [row.tobytes() for row in rows]
            plan = _sddim_plan(spec, grid, 0.6)
            a, rows, s = expected["sddim"]
            assert plan.psi.tobytes() == a.tobytes()
            assert [row.tobytes() for row in plan.c] == [row.tobytes() for row in rows]
            assert plan.noise.tobytes() == s.tobytes()


def test_plan_row_sizes(vp, ve):
    # every builder's rows have their sizes, and its psi and rows are finite
    for spec, t0 in ((vp, 1e-3), (ve, 1e-5)):
        grid = uniform(t0, 1.0, 7)
        n = grid.n_steps
        plans = [(0, _euler_plan(spec, grid)), (0, _ei_score_plan(spec, grid)),
                 (0, _ddim_plan(spec, grid)), (0, _sddim_plan(spec, grid, 0.5)),
                 (0, _em_plan(spec, 1.0, 1e-3, t0))]
        plans += [(r, build(spec, grid, r)) for r in range(4)
                  for build in (tab_weights, _rho_ab_plan, _ipndm_plan)]
        for r, plan in plans:
            steps = plan.times.size - 1
            assert [row.size for row in plan.c] == [min(r, steps - i) + 1
                                                    for i in range(1, steps + 1)]
        # stage rows, most recent evaluation first, lose their trailing zeros
        stage_sizes = {"midpoint": [1, 1], "heun2": [1, 2], "kutta3": [1, 2, 3],
                       "rk4": [1, 1, 1, 4]}
        for method, sizes in stage_sizes.items():
            plan = _rho_rk_plan(spec, grid, method)
            assert [row.size for row in plan.c] == sizes * n
            plans.append((None, plan))
        for _, plan in plans:
            assert np.isfinite(plan.psi).all() and all(np.isfinite(row).all() for row in plan.c)
            assert plan.noise is None or np.isfinite(plan.noise).all()
    # each run reports its plan's order and notes: ipndm notes uneven steps
    # in rho, and t(rho) moved down by 0.02 clamps rho_* stage times to t0
    shifted = dataclasses.replace(
        vp, t_of_rho_closed=lambda rho: vp.t_of_rho_closed(rho) - 0.02
    )
    orders = {"ddim": 0, "tab": 2, "rho_ab": 2, "ipndm": 2}
    noted = {}
    for spec in (vp, shifted):
        for schedule in (uniform, quadratic):
            grid = schedule(1e-3, 1.0, 7)
            for name in SAMPLER_NAMES:
                plan = _SAMPLERS[name][0](spec, grid, 2, 0.5)
                run = run_sampler(name, spec, lambda x, t: np.zeros_like(x), grid, 1.0,
                                  order=2, eta=0.5, seed=0)
                assert run.order == plan.order == orders.get(name)
                assert run.notes == plan.notes
                if run.notes:
                    noted.setdefault(name, set()).add((spec is shifted, schedule.__name__))
    clamped = {(True, "quadratic")}
    assert noted == {"ipndm": {(False, "uniform"), (False, "quadratic"), (True, "uniform"),
                               (True, "quadratic")},
                     "rho_mid": clamped, "rho_kutta3": clamped, "rho_rk4": clamped}


def test_rho_rk_inverts_all_stage_times_in_one_call(vp, gauss_oracle, monkeypatch):
    from diffint import samplers

    _, field = gauss_oracle
    grid = log_rho(vp, 1e-3, 8)
    rho = grid.rho_values(vp)
    calls = []
    inner = samplers.t_of_rho

    def counting(spec, rho):
        calls.append(np.shape(rho))
        return inner(spec, rho)

    monkeypatch.setattr(samplers, "t_of_rho", counting)
    for name, stages in (("rho_mid", 1), ("rho_heun2", 0), ("rho_kutta3", 1), ("rho_rk4", 1)):
        calls.clear()
        times = []
        run_sampler(name, vp, lambda x, t: times.append(t) or field(x, t), grid, 1.0)
        assert calls == [(8, 1)] * stages
        if name == "rho_mid":
            # the same bits as one scalar inversion per stage
            assert times[1::2] == [
                t_of_rho(vp, rho[i] + 0.5 * (rho[i - 1] - rho[i])) for i in range(8, 0, -1)
            ]


def test_executor_copies_an_evaluation_that_aliases_the_state(vp):
    # the executor updates its state in place, so a field that returns
    # the state itself (or a view of it) must not see its history change
    grid = quadratic(1e-3, 1.0, 6)
    x_T = np.array([0.4, -1.1, 2.0])
    for name, kwargs in (("tab", {"order": 3}), ("ipndm", {"order": 3}), ("ddim", {}),
                         ("rho_mid", {}), ("rho_heun2", {}), ("rho_kutta3", {}),
                         ("rho_rk4", {})):
        want = run_sampler(name, vp, lambda x, t: np.copy(x), grid, x_T, **kwargs).states
        for field in (lambda x, t: x, lambda x, t: x[...]):
            got = run_sampler(name, vp, field, grid, x_T, **kwargs).states
            assert np.array_equal(got, want)


def test_every_sampler_runs_once_through_the_executor(vp, gauss_oracle, monkeypatch):
    from diffint import samplers

    _, field = gauss_oracle
    calls = []
    execute = samplers._execute

    def counting(*args, **kwargs):
        calls.append(args[0])
        return execute(*args, **kwargs)

    monkeypatch.setattr(samplers, "_execute", counting)
    for name in samplers.SAMPLER_NAMES:
        calls.clear()
        run_sampler(name, vp, field, quadratic(1e-3, 1.0, 6), 1.0, order=2, eta=0.5, seed=3)
        assert calls == [name]


@pytest.mark.parametrize("preset", ["vp", "ve"])
def test_rho_rk_terminals_match_the_pinned_values(preset, vp, ve):
    # terminals of the former loop in y = x / mu; the stage plans in x
    # round differently, by at most 9.4e-15 of the largest terminal here
    from diffint.oracle import draw_terminal_states
    from rho_rk_terminals import TERMINALS

    spec, t0 = (vp, 1e-3) if preset == "vp" else (ve, 1e-5)
    field = EpsilonField(GaussianMixture([0.3, 0.7], [-1.0, 0.6], [0.2, 0.4]), spec)
    x = draw_terminal_states(spec, 0, 8)
    for (name, key_preset, schedule, n), pinned in TERMINALS.items():
        if key_preset == preset:
            grid = make_grid(schedule, t0=t0, t_end=spec.t_end, n=n, spec=spec)
            terminal = run_sampler(name, spec, field, grid, x).terminal
            pinned = np.array(pinned)
            assert np.max(np.abs(terminal - pinned)) <= 1e-12 * np.max(np.abs(pinned))
