"""Extrapolation bases and precomputed step weights.

The exponential-integrator multistep update on a grid {t_i} is

    x_{i-1} = Psi(t_{i-1}, t_i) x_i + sum_j C_ij eps_j,

where eps_j is the noise-prediction value recorded at t_{i+j} and

    C_ij = int_{t_i}^{t_{i-1}} 1/2 Psi(t_{i-1}, tau) g2(tau) / L(tau)
           * basis_j(tau) dtau,

with basis_j the Lagrange basis over the history nodes
t_i, ..., t_{i+r}.  The weights depend only on the diffusion and the
grid, so a :class:`WeightTable` (also the step plan, with its own a_i
in place of Psi, of every other multistep sampler in
:mod:`diffint.samplers`) is built once, may be serialized to JSON
(bit-exact round trip), and is shared read-only across runs.

Near the start of sampling the history is shorter than r+1, so the
polynomial order is lowered to what is available; row i then holds
min(r, N-i)+1 coefficients.

For the rescaled-time integrators, :func:`rho_ab_weights` integrates
the Lagrange basis over a rho interval in closed form (polynomial
antiderivatives), and the rho transform itself is re-exported from
:mod:`diffint.diffusion`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import quadrature
from .diffusion import DiffusionSpec, rho_of_t, t_of_rho, transition
from .errors import DegenerateNodesError, GridMismatchError, ParameterError
from .timegrid import TimeGrid, grid_fingerprint

__all__ = [
    "lagrange_basis",
    "WeightTable",
    "tab_weights",
    "rho_ab_weights",
    "rho_of_t",
    "t_of_rho",
    "MAX_ORDER",
]

MAX_ORDER = 3
_SCHEMA = "diffint-weight-table-v1"


def _check_nodes(nodes: np.ndarray):
    if np.unique(nodes).size != nodes.size:
        raise DegenerateNodesError(f"interpolation nodes must be distinct: {nodes}")


def lagrange_basis(nodes: Sequence[float], j: int, tau):
    """j-th Lagrange basis polynomial over ``nodes``, evaluated at tau.

    prod_{k != j} (tau - t_k) / (t_j - t_k); the empty product (a
    single node) is the constant 1.
    """
    nodes = np.asarray(nodes, dtype=float)
    _check_nodes(nodes)
    if not 0 <= j < nodes.size:
        raise ParameterError(f"basis index {j} out of range for {nodes.size} nodes")
    out = np.ones_like(np.asarray(tau, dtype=float))
    for k in range(nodes.size):
        if k != j:
            out = out * (tau - nodes[k]) / (nodes[j] - nodes[k])
    return out


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Step plan: per-step state factors and coefficient rows for a grid.

    ``psi[i-1]`` is the state factor a_i (Psi(t_{i-1}, t_i) for ``tab``)
    and ``c[i-1]`` the coefficient row for the step from t_i to t_{i-1}
    (j = 0 first).  ``times`` is the grid the table was built from;
    :attr:`grid_id` matches ``TimeGrid.grid_id`` for that grid.
    """

    order: int
    times: np.ndarray
    psi: np.ndarray
    c: tuple

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        psi = np.ascontiguousarray(self.psi, dtype=float)
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(
            self, "c", tuple(np.ascontiguousarray(row, dtype=float) for row in self.c)
        )
        n = times.size - 1
        if psi.size != n or len(self.c) != n:
            raise ParameterError("psi and c must hold one entry per step")
        for i in range(1, n + 1):
            expected = min(self.order, n - i) + 1
            if self.c[i - 1].size != expected:
                raise ParameterError(
                    f"row for step {i} has {self.c[i - 1].size} entries, "
                    f"expected {expected}"
                )
        if not np.all(np.isfinite(np.concatenate((psi,) + self.c))):
            raise ParameterError("weight table contains non-finite entries")

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def grid_id(self) -> str:
        return grid_fingerprint(self.times)

    def psi_for(self, i: int) -> float:
        """State factor a_i (Psi(t_{i-1}, t_i) for ``tab``) for the step leaving node i."""
        return float(self.psi[i - 1])

    def coeffs_for(self, i: int) -> np.ndarray:
        """Coefficient row (C_i0, ..., C_ir_i) for the step leaving node i."""
        return self.c[i - 1]

    def to_json(self) -> str:
        doc = {
            "schema": _SCHEMA,
            "order": self.order,
            "times": self.times.tolist(),
            "psi": self.psi.tolist(),
            "c": [row.tolist() for row in self.c],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "WeightTable":
        doc = json.loads(text)
        if doc.get("schema") != _SCHEMA:
            raise ParameterError(f"unexpected weight-table schema {doc.get('schema')!r}")
        return cls(
            order=int(doc["order"]),
            times=np.asarray(doc["times"], dtype=float),
            psi=np.asarray(doc["psi"], dtype=float),
            c=tuple(np.asarray(row, dtype=float) for row in doc["c"]),
        )

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "WeightTable":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def check_grid(self, grid: TimeGrid):
        if not np.array_equal(self.times, grid.times):
            raise GridMismatchError("weight table was built for a different grid")


def _check_order(r: int):
    if not 0 <= r <= MAX_ORDER:
        raise ParameterError(f"order must be in 0..{MAX_ORDER}, got {r}")


def tab_weights(spec: DiffusionSpec, grid: TimeGrid, r: int,
                *, rtol: float = 1e-12) -> WeightTable:
    """Build the weight table for order-r extrapolation on ``grid``.

    Each C_ij is evaluated by the shared panel-refined quadrature; the
    integrand 1/2 Psi g2 / L blows up only at tau = 0, which the grid
    excludes by construction (t_0 > 0).  Rebuilding with identical
    inputs is deterministic, bit for bit.
    """
    _check_order(r)
    times = grid.times
    n = grid.n_steps
    psi = np.empty(n)
    rows = []
    for i in range(1, n + 1):
        t_lo, t_hi = times[i - 1], times[i]
        psi[i - 1] = transition(spec, t_lo, t_hi)
        r_i = min(r, n - i)
        nodes = times[i : i + r_i + 1]
        row = np.empty(r_i + 1)
        for j in range(r_i + 1):

            def integrand(tau, j=j):
                return (
                    0.5
                    * transition(spec, t_lo, tau)
                    * spec.g2(tau)
                    / spec.L(tau)
                    * lagrange_basis(nodes, j, tau)
                )

            # C_ij integrates from t_i down to t_{i-1}
            row[j] = -quadrature.integrate(integrand, t_lo, t_hi, rtol=rtol)
        rows.append(row)
    return WeightTable(order=r, times=times, psi=psi, c=tuple(rows))


def rho_ab_weights(grid_rho: Sequence[float], i: int, r: int) -> np.ndarray:
    """Adams-Bashforth weights in rho space for the step leaving node i.

    Integrates each Lagrange basis over [rho_i, rho_{i-1}] exactly
    (the antiderivative of a degree <= r polynomial), over the history
    nodes rho_i, ..., rho_{i+r'} with r' = min(r, N - i).  The weights
    are signed: their sum is rho_{i-1} - rho_i.
    """
    grid_rho = np.asarray(grid_rho, dtype=float)
    n = grid_rho.size - 1
    if not 1 <= i <= n:
        raise ParameterError(f"step index {i} out of range 1..{n}")
    _check_order(r)
    r_i = min(r, n - i)
    nodes = grid_rho[i : i + r_i + 1]
    _check_nodes(nodes)
    lo, hi = grid_rho[i], grid_rho[i - 1]
    out = np.empty(r_i + 1)
    for j in range(r_i + 1):
        coeffs = np.array([1.0])
        denom = 1.0
        for k in range(r_i + 1):
            if k != j:
                coeffs = npoly.polymul(coeffs, np.array([-nodes[k], 1.0]))
                denom *= nodes[j] - nodes[k]
        anti = npoly.polyint(coeffs / denom)
        out[j] = npoly.polyval(hi, anti) - npoly.polyval(lo, anti)
    return out
