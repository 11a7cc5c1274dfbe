import dataclasses
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from diffint import (
    DomainError,
    ParameterError,
    VpSchedule,
    rho_of_t,
    t_of_rho,
    transition,
    vesde,
    vpsde,
)
from diffint.quadrature import integrate

from helpers import central_difference


def test_vp_values_at_zero(vp):
    assert float(vp.mu(0.0)) == 1.0
    assert float(vp.L(0.0)) == 0.0
    sched = VpSchedule()
    assert float(sched.alpha(0.0)) == 1.0


def test_vp_alpha_at_one_matches_hand_integral(vp):
    # int_0^1 beta = 0.1*1 + (20-0.1)*1/2 = 10.05
    assert np.isclose(float(vp.mu(1.0)) ** 2, np.exp(-10.05), rtol=1e-12)


def test_vp_variance_identity_at_half(vp):
    h = 1e-6
    lhs = (float(vp.L(0.5 + h)) ** 2 - float(vp.L(0.5 - h)) ** 2) / (2 * h)
    rhs = 2 * float(vp.f(0.5)) * float(vp.L(0.5)) ** 2 + float(vp.g2(0.5))
    assert abs(lhs - rhs) < 1e-6


def test_vp_consistency_validate(vp, ve):
    # central differences at 50 interior times: dmu/dt = f mu and
    # d(L^2)/dt = 2 f L^2 + g2, to rtol 1e-6, and g2 >= 0 on [0, t_end]
    rtol = 1e-6
    for spec in (vp, ve):
        h = 1e-6 * spec.t_end
        times = np.linspace(2 * h, spec.t_end - 2 * h, 50)
        mu_dot = (spec.mu(times + h) - spec.mu(times - h)) / (2 * h)
        target = spec.f(times) * spec.mu(times)
        scale = np.maximum(np.maximum(np.abs(target), 1e-12), np.abs(mu_dot))
        assert np.all(np.abs(mu_dot - target) <= rtol * scale)
        l2_dot = (spec.L(times + h) ** 2 - spec.L(times - h) ** 2) / (2 * h)
        target = 2 * spec.f(times) * spec.L(times) ** 2 + spec.g2(times)
        scale = np.maximum(np.maximum(np.abs(target), np.abs(l2_dot)), 1e-9)
        assert np.all(np.abs(l2_dot - target) <= rtol * scale)
        assert np.all(spec.g2(np.linspace(0.0, spec.t_end, 1001)) >= 0)


def test_vp_alpha_strictly_decreasing(vp):
    t = np.linspace(0.0, 1.0, 1000)
    alpha = vp.mu(t) ** 2
    assert np.all(np.diff(alpha) < 0)
    assert np.all((alpha > 0) & (alpha <= 1))


@pytest.mark.parametrize("bad", [(-1.0, 20.0), (0.0, 20.0), (20.0, 0.1), (1.0, 1.0),
                                 (0.1, float("inf")), (float("nan"), 20.0),
                                 (0.1, float("nan"))])
def test_vp_schedule_rejects_bad_bounds(bad):
    with pytest.raises(ParameterError):
        VpSchedule(*bad)


def test_ve_zero_drift_and_endpoints():
    spec = vesde(0.01, 50.0)
    t = np.linspace(0.0, 1.0, 7)
    assert np.all(spec.f(t) == 0.0)
    assert np.isclose(float(spec.L(0.0)), 0.01, rtol=1e-14)
    assert np.isclose(float(spec.L(1.0)), 50.0, rtol=1e-14)


def test_ve_variance_rate_matches_g2():
    spec = vesde(0.01, 50.0)
    rng = np.random.default_rng(2)
    for t in rng.uniform(0.05, 0.95, 20):
        lhs = central_difference(lambda s: float(spec.L(s)) ** 2, t, 1e-6)
        assert np.isclose(lhs, float(spec.g2(t)), rtol=1e-6)


@pytest.mark.parametrize("bad", [(0.0, 1.0), (1.0, 0.5), (-1.0, 2.0), (2.0, 2.0),
                                 (0.01, float("inf")), (float("nan"), 50.0),
                                 (0.01, float("nan"))])
def test_ve_rejects_bad_bounds(bad):
    with pytest.raises(ParameterError):
        vesde(*bad)


@pytest.mark.parametrize("t_end", [0.0, -1.0, float("inf"), float("nan")])
def test_presets_reject_a_bad_t_end(t_end):
    for make in (lambda: vpsde(t_end=t_end), lambda: vesde(0.01, 50.0, t_end=t_end)):
        with pytest.raises(ParameterError, match="t_end"):
            make()


@pytest.mark.parametrize("pi_std", [0.0, float("inf"), float("nan")])
def test_spec_rejects_a_bad_pi_std(vp, pi_std):
    with pytest.raises(ParameterError, match="pi_std"):
        dataclasses.replace(vp, pi_std=pi_std)


# -- transition -------------------------------------------------------


def test_transition_identity(vp, ve):
    for spec in (vp, ve):
        for s in (0.0, 0.3, 1.0):
            assert transition(spec, s, s) == pytest.approx(1.0, abs=0.0)


def test_transition_ve_is_one(ve):
    rng = np.random.default_rng(3)
    t, s = rng.uniform(0, 1, 10), rng.uniform(0, 1, 10)
    assert np.all(transition(ve, t, s) == 1.0)


def test_transition_vp_hand_value(vp):
    # int_0^1 beta = 10.05, int_0^0.5 beta = 0.05 + 9.95/4 = 2.5375
    expected = np.exp(-(10.05 - 2.5375) / 2)
    assert np.isclose(transition(vp, 1.0, 0.5), expected, rtol=1e-12)
    assert np.isclose(np.exp(integrate(vp.f, 0.5, 1.0)), expected, rtol=1e-10)


def test_transition_semigroup_and_inverse(vp, ve):
    rng = np.random.default_rng(4)
    for spec in (vp, ve):
        for _ in range(100):
            t, s, u = rng.uniform(0, spec.t_end, 3)
            lhs = transition(spec, t, s) * transition(spec, s, u)
            assert np.isclose(lhs, transition(spec, t, u), rtol=1e-10, atol=1e-12)
            assert np.isclose(
                transition(spec, t, s) * transition(spec, s, t), 1.0, rtol=1e-10
            )


def test_transition_quadrature_matches_closed_form(vp):
    # Psi(t, s) = exp(int_s^t f), the drift integrated by quadrature
    rng = np.random.default_rng(5)
    for _ in range(100):
        t, s = rng.uniform(0, 1, 2)
        assert np.isclose(np.exp(integrate(vp.f, s, t)), transition(vp, t, s), rtol=1e-10)


# -- rho transform ----------------------------------------------------


def test_rho_zero_at_origin(vp):
    assert float(rho_of_t(vp, 0.0)) == 0.0


def test_rho_round_trip(vp):
    rng = np.random.default_rng(6)
    for t in rng.uniform(1e-4, 1.0, 100):
        assert abs(t_of_rho(vp, float(rho_of_t(vp, t))) - t) < 1e-10


def test_rho_strictly_increasing(vp, ve):
    t = np.linspace(1e-4, 1.0, 400)
    for spec in (vp, ve):
        assert np.all(np.diff(rho_of_t(spec, t)) > 0)


def test_rho_derivative_matches_closed_form(vp):
    # d rho / dt = -(1/2) alpha^{-1/2} (d log alpha / dt) (1 - alpha)^{-1/2}
    sched = VpSchedule()
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.05, 0.95, 25):
        alpha = float(sched.alpha(t))
        dlog = -float(sched.beta(t))
        closed = -0.5 / np.sqrt(alpha) * dlog / np.sqrt(1 - alpha)
        fd = central_difference(lambda s: float(rho_of_t(vp, s)), t, 1e-6)
        assert np.isclose(fd, closed, rtol=1e-6)


def test_t_of_rho_domain_error(vp):
    hi = float(rho_of_t(vp, 1.0))
    with pytest.raises(DomainError):
        t_of_rho(vp, hi * 1.5)
    with pytest.raises(DomainError):
        t_of_rho(vp, -1.0)


def test_t_of_rho_domain_edges(vp):
    assert t_of_rho(vp, float(rho_of_t(vp, 0.0))) == 0.0
    assert t_of_rho(vp, float(rho_of_t(vp, vp.t_end))) == vp.t_end


def test_quadrature_non_convergence_raises():
    from diffint import QuadratureError
    from diffint.quadrature import integrate

    # about 47 oscillations per panel even at the cap of 1024 panels
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.cos(3e5 * x), 0.0, 1.0)


def test_ve_rho_is_sigma(ve):
    t = np.linspace(0.0, 1.0, 9)
    assert np.allclose(rho_of_t(ve, t), ve.L(t), rtol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-4, max_value=0.9999))
def test_rho_round_trip_hypothesis(t):
    spec = vpsde()
    assert abs(t_of_rho(spec, float(rho_of_t(spec, t))) - t) < 1e-10


# -- closed-form t(rho) -----------------------------------------------


@pytest.mark.parametrize("preset", ["vp", "ve"])
def test_closed_form_t_of_rho_matches_brentq(preset, request):
    spec = request.getfixturevalue(preset)
    lo, hi = float(rho_of_t(spec, 0.0)), float(rho_of_t(spec, spec.t_end))

    def root(r):
        # t_of_rho snaps the endpoints exactly
        if r == lo:
            return 0.0
        if r == hi:
            return spec.t_end
        return brentq(lambda s: float(rho_of_t(spec, s)) - r, 0.0, spec.t_end,
                      xtol=1e-15, rtol=8.9e-16)

    rho = rho_of_t(spec, np.geomspace(1e-7, 1.0, 3000))
    closed = t_of_rho(spec, rho)
    rooted = np.array([root(r) for r in rho.tolist()])
    assert np.max(np.abs(closed - rooted)) <= 4e-15
    assert np.max(np.abs(rho_of_t(spec, closed) - rho) / rho) <= 1e-14


@pytest.mark.parametrize("preset", ["vp", "ve"])
def test_t_of_rho_array_equals_scalar_calls(preset, request):
    spec = request.getfixturevalue(preset)
    lo, hi = float(rho_of_t(spec, 0.0)), float(rho_of_t(spec, spec.t_end))
    rho = np.concatenate(([lo, hi], rho_of_t(spec, np.linspace(0.01, 0.99, 40))))
    for shape in ((42,), (6, 7)):
        out = t_of_rho(spec, rho.reshape(shape))
        assert out.shape == shape
        scalar = [t_of_rho(spec, float(r)) for r in rho]
        assert out.ravel().tolist() == scalar
    assert out.ravel()[0] == 0.0 and out.ravel()[1] == spec.t_end


@pytest.mark.parametrize("preset", ["vp", "ve"])
def test_spec_callables_give_a_scalar_the_bits_of_an_array_element(preset, request):
    # the oracle tabulates f, g2, L and mu for many times at once; a
    # numpy scalar's ** 2 calls pow, which differs from an array's
    # square at 9 of these times for VE's g2
    spec = request.getfixturevalue(preset)
    times = np.linspace(0.0, spec.t_end, 6001)[1:]
    for fn in (spec.f, spec.g2, spec.L, spec.mu):
        whole = fn(times)
        for scalars in (times.tolist(), list(times)):  # Python floats, numpy scalars
            assert np.array([fn(t) for t in scalars]).tobytes() == whole.tobytes()


def test_t_of_rho_array_with_one_out_of_range_element_raises(vp):
    rho = rho_of_t(vp, np.linspace(0.1, 0.9, 5))
    rho[3] = 1.5 * float(rho_of_t(vp, 1.0))
    with pytest.raises(DomainError):
        t_of_rho(vp, rho)


_NO_SCIPY_SCRIPT = textwrap.dedent("""
    import json, sys
    sys.path[:] = json.loads(sys.argv[1])
    workdir = sys.argv[2]


    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"scipy is blocked: {name}")


    sys.meta_path.insert(0, NoScipy())

    import diffint, diffint.cli, diffint.harness
    from diffint import EpsilonField, GaussianMixture, make_grid, run_sampler, vesde, vpsde
    from diffint.timegrid import SCHEDULE_NAMES

    for spec in (vpsde(), vesde(0.01, 50.0)):
        for name in SCHEDULE_NAMES:
            make_grid(name, t0=1e-3, t_end=spec.t_end, n=12, kappa=2.0, spec=spec)
        field = EpsilonField(GaussianMixture([1.0], [0.5], [0.25]), spec)
        run_sampler("rho_rk4", spec, field, make_grid("log_rho", t0=1e-3, t_end=spec.t_end,
                                                      n=8, spec=spec), [0.3, -1.2])
    codes = {kind: diffint.cli.main([kind, "--config", f"{workdir}/{kind}.json",
                                     "--out", f"{workdir}/{kind}.csv"])
             for kind in diffint.harness.KINDS}
    print(json.dumps({"exit": codes,
                      "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
""")

_BASE = {
    "diffusion": {"preset": "vpsde", "t_end": 0.25},
    "gmm": {"weights": [0.5, 0.5], "means": [1.0, -1.0], "stds": [0.2, 0.2]},
    "sampler": {"name": "tab", "order": 2},
    "schedule": {"name": "quadratic", "n": 6},
    "seed": 0,
}

# one small config per experiment kind, both presets between them; the
# short t_end keeps the reference solves at 1e-3 steps short
_VE = {"preset": "vesde", "t_end": 0.25}
_SMALL_CONFIGS = {
    "sample": {},
    "convergence": {"diffusion": _VE, "n_list": [4, 8], "batch": 4},
    "study": {"sampler": [{"name": "rho_ab", "order": 1}, {"name": "ipndm", "order": 2}],
              "schedule": [{"name": "log_rho", "n": 4}], "n_list": [4], "batch": 4},
    "marginal": {"lambda_list": [0.0, 1.0], "n_traj": 8},
    "trace": {"diffusion": _VE, "x_t": 1.2, "points_per_interval": 2,
              "orders": [0, 1]},
    "loglik": {"x0_list": [0.4]},
}


def test_preset_work_does_not_import_scipy(tmp_path):
    """With scipy's import blocked, the presets, import diffint and one
    run of every experiment kind through the CLI all succeed."""
    from diffint.harness import KINDS

    assert sorted(_SMALL_CONFIGS) == sorted(KINDS)
    for kind, overrides in _SMALL_CONFIGS.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps({**_BASE, "kind": kind, **overrides}))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(sys.path), str(tmp_path)],
        capture_output=True, text=True, check=True, cwd=tmp_path,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"exit": {kind: 0 for kind in KINDS}, "scipy": []}
    for kind in KINDS:
        assert (tmp_path / f"{kind}.csv").stat().st_size > 0
