import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffint import (
    DegenerateNodesError,
    GridMismatchError,
    ParameterError,
    VpSchedule,
    WeightTable,
    lagrange_basis,
    make_grid,
    quadratic,
    rho_ab_weights,
    tab_weights,
    uniform,
    vesde,
)
from diffint import quadrature
from diffint.diffusion import rho_of_t, transition
from diffint.samplers import _ei_score_plan

from helpers import adaptive_simpson


# -- Lagrange basis ---------------------------------------------------


def test_basis_interpolation_property():
    nodes = [0.1, 0.35, 0.8, 1.0]
    for j in range(4):
        for k in range(4):
            expected = 1.0 if j == k else 0.0
            assert lagrange_basis(nodes, j, nodes[k]) == pytest.approx(expected, abs=1e-12)


def test_basis_single_node_constant_one():
    for tau in (-3.0, 0.0, 17.5):
        assert lagrange_basis([0.4], 0, tau) == 1.0


def test_basis_two_nodes_midpoint():
    assert lagrange_basis([0.0, 1.0], 0, 0.5) == pytest.approx(0.5)


def test_basis_rejects_duplicates():
    with pytest.raises(DegenerateNodesError):
        lagrange_basis([0.2, 0.2, 0.5], 0, 0.3)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=-2.0, max_value=2.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_basis_partition_of_unity(n_nodes, tau, salt):
    rng = np.random.default_rng(salt)
    nodes = np.cumsum(0.05 + rng.uniform(0, 1, n_nodes))
    total = sum(lagrange_basis(nodes, j, tau) for j in range(n_nodes))
    assert total == pytest.approx(1.0, abs=1e-12)


# -- t-space weight tables --------------------------------------------


def _ddim_coefficient(spec, t_lo, t_hi):
    psi = transition(spec, t_lo, t_hi)
    return float(spec.L(t_lo)) - psi * float(spec.L(t_hi))


def test_zero_order_weights_reduce_to_ddim(vp):
    from diffint import power_t

    grids = [
        quadratic(1e-3, 1.0, 10),
        uniform(1e-3, 1.0, 10),
        power_t(1e-3, 1.0, 10, 3.0),
        power_t(1e-3, 1.0, 10, 7.0),
    ]
    for grid in grids:
        table = tab_weights(vp, grid, 0)
        for i in range(1, 11):
            expected = _ddim_coefficient(vp, grid.times[i - 1], grid.times[i])
            assert abs(float(table.coeffs_for(i)[0]) - expected) < 1e-8


def test_zero_order_weights_ve():
    spec = vesde(0.01, 50.0)
    grid = quadratic(1e-5, 1.0, 8)
    table = tab_weights(spec, grid, 0)
    for i in range(1, 9):
        # Psi = 1, so the coefficient is sigma(t_{i-1}) - sigma(t_i)
        expected = float(spec.L(grid.times[i - 1])) - float(spec.L(grid.times[i]))
        assert np.isclose(float(table.coeffs_for(i)[0]), expected, rtol=1e-10)


def test_first_order_rows_sum_to_zero_order(vp):
    grid = quadratic(1e-3, 1.0, 10)
    t0_table = tab_weights(vp, grid, 0)
    t1_table = tab_weights(vp, grid, 1)
    for i in range(1, 11):
        assert np.isclose(
            float(np.sum(t1_table.coeffs_for(i))),
            float(t0_table.coeffs_for(i)[0]),
            atol=1e-12,
            rtol=1e-12,
        )


def test_weights_match_adaptive_simpson(vp):
    grid = quadratic(1e-3, 1.0, 10)
    for r in (0, 1, 2, 3):
        table = tab_weights(vp, grid, r)
        for i in range(1, 11):
            t_lo, t_hi = grid.times[i - 1], grid.times[i]
            nodes = grid.times[i : i + min(r, 10 - i) + 1]
            for j in range(table.coeffs_for(i).size):

                def integrand(tau, j=j):
                    return (
                        0.5
                        * float(transition(vp, t_lo, tau))
                        * float(vp.g2(tau))
                        / float(vp.L(tau))
                        * float(lagrange_basis(nodes, j, tau))
                    )

                oracle = -adaptive_simpson(integrand, t_lo, t_hi, tol=1e-12)
                assert abs(float(table.coeffs_for(i)[j]) - oracle) < 1e-8


def test_history_truncation_row_sizes(vp):
    grid = uniform(1e-3, 1.0, 6)
    table = tab_weights(vp, grid, 3)
    for i in range(1, 7):
        assert table.coeffs_for(i).size == min(3, 6 - i) + 1


def test_tables_are_deterministic(vp):
    grid = quadratic(1e-3, 1.0, 7)
    a = tab_weights(vp, grid, 2)
    b = tab_weights(vp, grid, 2)
    assert np.array_equal(a.psi, b.psi)
    for ra, rb in zip(a.c, b.c):
        assert np.array_equal(ra, rb)


def test_table_json_round_trip_bit_exact(vp):
    grid = quadratic(1e-3, 1.0, 9)
    table = tab_weights(vp, grid, 2)
    clone = WeightTable.from_json(table.to_json())
    assert np.array_equal(clone.times, table.times)
    assert np.array_equal(clone.psi, table.psi)
    assert all(np.array_equal(a, b) for a, b in zip(clone.c, table.c))
    assert clone.to_json() == table.to_json()


def test_table_from_json_rejects_malformed_documents(vp):
    doc_text = tab_weights(vp, quadratic(1e-3, 1.0, 4), 1).to_json()
    doc = json.loads(doc_text)
    for key in ("order", "times", "psi", "c"):
        with pytest.raises(ParameterError):
            WeightTable.from_json(json.dumps({k: v for k, v in doc.items() if k != key}))
    wrong_values = ({"c": 5}, {"order": "x"}, {"order": 1.5}, {"order": True},
                    {"c": [["a"]] * len(doc["c"])}, {"times": ["x"] * len(doc["times"])},
                    {"psi": "abc"}, {"times": {"a": 1}}, {"c": [[1.0, [2.0]]]})
    for change in wrong_values:
        with pytest.raises(ParameterError):
            WeightTable.from_json(json.dumps({**doc, **change}))
    for text in ("[]", "3", '"diffint-weight-table-v1"', "null", "", "{", "not json",
                 doc_text[:-1]):
        with pytest.raises(ParameterError):
            WeightTable.from_json(text)


def test_table_grid_mismatch(vp):
    table = tab_weights(vp, quadratic(1e-3, 1.0, 9), 1)
    with pytest.raises(GridMismatchError):
        table.check_grid(quadratic(1e-3, 1.0, 10))


def test_table_psi_matches_transition(vp):
    grid = quadratic(1e-3, 1.0, 10)
    table = tab_weights(vp, grid, 0)
    sched = VpSchedule()
    for i in range(1, 11):
        expected = np.sqrt(
            float(sched.alpha(grid.times[i - 1])) / float(sched.alpha(grid.times[i]))
        )
        assert np.isclose(table.psi_for(i), expected, rtol=1e-12)


# -- rho-space Adams-Bashforth weights --------------------------------


def test_rho_weights_sum_to_interval(vp):
    rho = quadratic(1e-3, 1.0, 10).rho_values(vp)
    for r in (0, 1, 2, 3):
        rows = rho_ab_weights(rho, r)
        assert len(rows) == 10
        for i in range(1, 11):
            w = rows[i - 1]
            assert np.isclose(w.sum(), rho[i - 1] - rho[i], atol=1e-12, rtol=1e-12)


def test_rho_weights_zero_order(vp):
    rho = rho_of_t(vp, quadratic(1e-3, 1.0, 10).times)
    w = rho_ab_weights(rho, 0)[5 - 1]
    assert w.size == 1
    assert np.isclose(w[0], rho[4] - rho[5], rtol=1e-15)


def test_rho_weights_classical_two_step():
    # uniform descending rho with signed step h: weights (3h/2, -h/2)
    rho = np.array([0.0, 1.0, 2.0, 3.0])  # ascending in index
    h = rho[1] - rho[2]  # signed step of the sampling direction: -1
    w = rho_ab_weights(rho, 1)[2 - 1]
    assert np.allclose(w, [1.5 * h, -0.5 * h], rtol=1e-14)


def test_rho_weights_reject_duplicates():
    with pytest.raises(DegenerateNodesError):
        rho_ab_weights(np.array([0.0, 1.0, 1.0, 3.0]), 1)


def _exact_rho_row(rho, i, r):
    """Row i integrated in exact rational arithmetic on the float nodes:
    each Lagrange basis expanded in monomials, integrated from rho_i to
    rho_{i-1}."""
    nodes = [Fraction(v) for v in rho[i : i + min(r, rho.size - 1 - i) + 1].tolist()]
    lo, hi = Fraction(float(rho[i])), Fraction(float(rho[i - 1]))
    row = []
    for j, node in enumerate(nodes):
        poly = [Fraction(1)]  # lowest degree first
        for k, other in enumerate(nodes):
            if k != j:  # poly *= (x - other) / (node - other)
                shifted = zip([Fraction(0)] + poly, poly + [Fraction(0)])
                poly = [(a - other * b) / (node - other) for a, b in shifted]
        row.append(sum(c * (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
                       for m, c in enumerate(poly)))
    return row


@pytest.mark.parametrize("preset", ["vp", "ve"])
@pytest.mark.parametrize("schedule", ["quadratic", "log_rho"])
def test_rho_weights_match_exact_rational_integrals(preset, schedule, request):
    # a monomial expansion in floats cancels: 4.4e-6 of sum |w| at VE
    # quadratic, N = 160, r = 3
    spec = request.getfixturevalue(preset)
    t0 = 1e-3 if preset == "vp" else 1e-5
    for n in (10, 160):
        rho = make_grid(schedule, t0=t0, t_end=1.0, n=n, spec=spec).rho_values(spec)
        for r in range(4):
            for i, w in enumerate(rho_ab_weights(rho, r), 1):
                exact = _exact_rho_row(rho, i, r)
                scale = sum(abs(e) for e in exact)
                gap = max(abs(Fraction(float(a)) - e) for a, e in zip(w, exact))
                assert gap <= Fraction(1e-13) * scale, (n, r, i)


# -- batched plan building ------------------------------------------------


def _scalar_tab_reference(spec, grid, r):
    """The per-(i, j) formula: one scalar quadrature call per C_ij."""
    times, n = grid.times, grid.n_steps
    psi, rows = [], []
    for i in range(1, n + 1):
        t_lo, t_hi = times[i - 1], times[i]
        psi.append(transition(spec, t_lo, t_hi))
        nodes = times[i : i + min(r, n - i) + 1]
        row = []
        for j in range(nodes.size):

            def integrand(tau, j=j):
                return (
                    0.5
                    * transition(spec, t_lo, tau)
                    * spec.g2(tau)
                    / spec.L(tau)
                    * lagrange_basis(nodes, j, tau)
                )

            row.append(-quadrature.integrate(integrand, t_lo, t_hi))
        rows.append(np.array(row))
    return np.array(psi), rows


def _scalar_ei_score_reference(spec, grid):
    t = grid.times
    psi, c = [], []
    for i in range(1, grid.n_steps + 1):
        weight = quadrature.integrate(
            lambda tau: -0.5 * transition(spec, t[i - 1], tau) * spec.g2(tau), t[i], t[i - 1]
        )
        psi.append(transition(spec, t[i - 1], t[i]))
        c.append(-weight / spec.L(t[i]))
    return np.array(psi), np.array(c)


@pytest.mark.parametrize("preset", ["vp", "ve"])
@pytest.mark.parametrize("schedule", ["quadratic", "power_rho", "log_rho"])
def test_batched_plans_equal_scalar_reference_bit_for_bit(preset, schedule, request):
    spec = request.getfixturevalue(preset)
    t0 = 1e-3 if preset == "vp" else 1e-5
    for n in (1, 2, 3, 10, 40):
        grid = make_grid(schedule, t0=t0, t_end=1.0, n=n, kappa=7.0, spec=spec)
        for r in range(4):
            table = tab_weights(spec, grid, r)
            psi, rows = _scalar_tab_reference(spec, grid, r)
            assert table.psi.tobytes() == psi.tobytes()
            assert [row.tobytes() for row in table.c] == [row.tobytes() for row in rows]
        plan = _ei_score_plan(spec, grid)
        psi, c = _scalar_ei_score_reference(spec, grid)
        assert plan.psi.tobytes() == psi.tobytes()
        assert np.concatenate(plan.c).tobytes() == c.tobytes()


def test_plan_builders_make_one_quadrature_call_per_row_size(vp, monkeypatch):
    calls = []
    integrate = quadrature.integrate

    def counting(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counting)
    for n in (1, 2, 3, 4, 10):
        grid = quadratic(1e-3, 1.0, n)
        for r in range(4):
            calls.clear()
            tab_weights(vp, grid, r)
            assert len(calls) <= r + 1
            assert len(calls) == len({min(r, n - i) + 1 for i in range(1, n + 1)})
            calls.clear()
            rho_ab_weights(grid.rho_values(vp), r)
            assert len(calls) == len({min(r, n - i) + 1 for i in range(1, n + 1)})
        calls.clear()
        _ei_score_plan(vp, grid)
        assert len(calls) == 1


def test_basis_node_columns_match_single_interval_calls():
    rng = np.random.default_rng(4)
    nodes = np.cumsum(0.05 + rng.uniform(0, 1, (3, 5)), axis=0)  # 5 intervals, 3 nodes
    tau = rng.uniform(0, 2, (5, 7))
    for j in range(3):
        columns = lagrange_basis(nodes[:, :, None], j, tau)
        for e in range(5):
            assert columns[e].tobytes() == lagrange_basis(nodes[:, e], j, tau[e]).tobytes()
    with pytest.raises(DegenerateNodesError):
        lagrange_basis(np.array([[0.1, 0.2], [0.3, 0.2]])[:, :, None], 0, tau[:2])
