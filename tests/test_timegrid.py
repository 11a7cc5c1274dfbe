import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffint import ParameterError, log_rho, make_grid, power_rho, power_t, quadratic, uniform
from diffint.diffusion import rho_of_t


def test_uniform_is_kappa_one():
    grid = power_t(1e-3, 1.0, 10, 1.0)
    assert np.allclose(grid.times, np.linspace(1e-3, 1.0, 11), rtol=1e-15)


def test_endpoints_exact_any_kappa():
    for kappa in (1.0, 2.0, 3.0, 7.0):
        grid = power_t(1e-4, 1.0, 10, kappa)
        assert grid.times[0] == 1e-4
        assert grid.times[-1] == 1.0


def test_quadratic_matches_sqrt_linspace():
    grid = quadratic(1e-4, 1.0, 10)
    expected = np.linspace(np.sqrt(1e-4), np.sqrt(1.0), 11) ** 2
    assert np.allclose(grid.times, expected, rtol=1e-13)


def test_power_t_rejects_bad_params():
    with pytest.raises(ParameterError):
        power_t(1e-3, 1.0, 10, 0.5)  # kappa < 1
    with pytest.raises(ParameterError):
        power_t(0.0, 1.0, 10, 2.0)  # t0 == 0
    with pytest.raises(ParameterError):
        power_t(0.5, 0.4, 10, 2.0)  # t0 > t_end
    with pytest.raises(ParameterError):
        power_t(1e-3, 1.0, 0, 2.0)  # no steps


def test_power_rho_uniform_in_rho(vp):
    grid = power_rho(vp, 1e-3, 12, 1.0)
    steps = np.diff(grid.rho_values(vp))
    assert np.allclose(steps, steps[0], rtol=1e-12)
    assert np.all(np.diff(grid.times) > 0)
    assert grid.times[0] == 1e-3
    assert grid.times[-1] == vp.t_end


def test_power_rho_kappa7_denser_near_t0(vp):
    grid = power_rho(vp, 1e-3, 10, 7.0)
    uniform_spacing = (vp.t_end - 1e-3) / 10
    assert grid.times[1] - grid.times[0] < uniform_spacing


def test_log_rho_single_step(vp):
    grid = log_rho(vp, 1e-3, 1)
    assert grid.times[0] == 1e-3
    assert grid.times[-1] == vp.t_end


def test_log_rho_constant_ratio(vp):
    grid = log_rho(vp, 1e-3, 20)
    rho = grid.rho_values(vp)
    ratios = rho[1:] / rho[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    assert np.all(np.diff(grid.times) > 0)


def test_cached_rho_matches_fresh(vp):
    grid = log_rho(vp, 1e-3, 8)
    assert np.allclose(grid.rho, rho_of_t(vp, grid.times), rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([5, 10, 20, 50]),
    st.sampled_from([1.0, 2.0, 3.0, 7.0]),
    st.sampled_from(["power_t", "power_rho"]),
)
def test_grid_invariants_over_matrix(n, kappa, name):
    from diffint import vpsde

    spec = vpsde()
    grid = make_grid(name, t0=1e-3, t_end=1.0, n=n, kappa=kappa, spec=spec)
    assert grid.n_steps == n
    assert grid.times[0] > 0
    assert grid.times[-1] == 1.0
    assert np.all(np.diff(grid.times) > 0)


def test_grids_are_pure_functions(vp):
    a = power_rho(vp, 1e-3, 10, 7.0)
    b = power_rho(vp, 1e-3, 10, 7.0)
    assert np.array_equal(a.times, b.times)


def test_grid_times_read_only():
    grid = uniform(1e-3, 1.0, 4)
    with pytest.raises(ValueError):
        grid.times[0] = 0.5


def test_make_grid_validation(vp):
    with pytest.raises(ParameterError):
        make_grid("power_t", t0=1e-3, t_end=1.0, n=5)  # kappa missing
    with pytest.raises(ParameterError):
        make_grid("log_rho", t0=1e-3, t_end=1.0, n=5)  # spec missing
    with pytest.raises(ParameterError):
        make_grid("nope", t0=1e-3, t_end=1.0, n=5)


def test_rho_grids_invert_in_one_call(vp, monkeypatch):
    from diffint import timegrid

    calls = []
    inner = timegrid.t_of_rho

    def counting(spec, rho):
        calls.append(np.shape(rho))
        return inner(spec, rho)

    monkeypatch.setattr(timegrid, "t_of_rho", counting)
    power_rho(vp, 1e-3, 12, 7.0)
    log_rho(vp, 1e-3, 12)
    assert calls == [(13,), (13,)]
