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

One private builder makes the rows of both multistep integrators:
row i integrates kernel x Lagrange basis over the step's interval, one
batched quadrature call per row size.  :func:`tab_weights` takes the
basis in t and the kernel 1/2 Psi g2 / L, evaluated once per point for
all the basis functions.  Since d rho = g2 / (2 mu L) dt, that kernel
times dtau is mu(t_{i-1}) d rho, so :func:`rho_ab_weights` takes the
basis in rho and a constant kernel; its caller scales row i by
mu(t_{i-1}).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadrature
from .diffusion import DiffusionSpec, transition
from .errors import DegenerateNodesError, GridMismatchError, ParameterError
from .timegrid import TimeGrid, grid_fingerprint

__all__ = [
    "lagrange_basis",
    "WeightTable",
    "tab_weights",
    "rho_ab_weights",
    "MAX_ORDER",
]

MAX_ORDER = 3
_SCHEMA = "diffint-weight-table-v1"


def _check_nodes(nodes: np.ndarray):
    ordered = np.sort(nodes, axis=0)
    if np.any(ordered[1:] == ordered[:-1]):
        raise DegenerateNodesError(f"interpolation nodes must be distinct: {nodes}")


def lagrange_basis(nodes: Sequence[float], j: int, tau):
    """j-th Lagrange basis polynomial over ``nodes``, evaluated at tau.

    prod_{k != j} (tau - t_k) / (t_j - t_k); the empty product (a
    single node) is the constant 1.  The nodes run along the first
    axis of ``nodes``; further axes hold one node column per interval
    and broadcast against ``tau``.
    """
    nodes = np.asarray(nodes, dtype=float)
    _check_nodes(nodes)
    if not 0 <= j < nodes.shape[0]:
        raise ParameterError(f"basis index {j} out of range for {nodes.shape[0]} nodes")
    out = np.ones(np.broadcast_shapes(np.shape(tau), nodes.shape[1:]))
    for k in range(nodes.shape[0]):
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
        """The table of a :meth:`to_json` document; raises
        :class:`ParameterError` for any text that is not one."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"a weight-table document must be JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParameterError("a weight-table document must be a JSON object")
        if doc.get("schema") != _SCHEMA:
            raise ParameterError(f"unexpected weight-table schema {doc.get('schema')!r}")
        missing = {"order", "times", "psi", "c"} - set(doc)
        if missing:
            raise ParameterError(f"weight-table document lacks {sorted(missing)}")
        if type(doc["order"]) is not int:
            raise ParameterError(f"weight-table order must be an integer, got {doc['order']!r}")
        try:
            times = np.asarray(doc["times"], dtype=float)
            psi = np.asarray(doc["psi"], dtype=float)
            c = tuple(np.asarray(row, dtype=float) for row in doc["c"])
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"weight-table times, psi and c must be numeric: {exc}") from exc
        return cls(order=doc["order"], times=times, psi=psi, c=c)

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


def _step_rows(x: np.ndarray, r: int, kernel, *, rtol: float = 1e-12) -> tuple:
    """Row i (i = 1..N) holds, for each Lagrange basis l_j over the
    nodes x_i, ..., x_{i+r_i} with r_i = min(r, N - i),

        -int_{x_{i-1}}^{x_i} kernel(x_{i-1}, tau) l_j(tau) dtau,

    the integral taken from x_i down to x_{i-1}.  One batched quadrature
    call per row size: the full-order steps together, then each ramp
    step.  ``kernel(x_lo, tau)`` gets the steps' x_{i-1} as a column and
    is evaluated once per point for all the basis functions.
    """
    _check_order(r)
    n = x.size - 1
    steps = np.arange(1, n + 1)
    sizes = np.minimum(r, n - steps) + 1
    rows = [None] * n
    for m in np.unique(sizes)[::-1]:
        i = steps[sizes == m]
        x_lo, x_hi = x[i - 1], x[i]
        nodes = x[i + np.arange(m)[:, None], None]  # (m, steps, 1) node columns

        def integrand(tau):
            kern = kernel(x_lo[:, None], tau)
            return np.stack([kern * lagrange_basis(nodes, j, tau) for j in range(m)])

        c = -quadrature.integrate(integrand, x_lo, x_hi, rtol=rtol)
        for k, step in enumerate(i):
            rows[step - 1] = c[:, k]
    return tuple(rows)


def tab_weights(spec: DiffusionSpec, grid: TimeGrid, r: int,
                *, rtol: float = 1e-12) -> WeightTable:
    """Build the weight table for order-r extrapolation on ``grid``.

    The rows C_ij take the basis in t and the kernel
    1/2 Psi(t_{i-1}, tau) g2(tau) / L(tau), by the shared panel-refined
    quadrature.  The kernel blows up only at tau = 0, which the grid
    excludes by construction (t_0 > 0).  Rebuilding with identical
    inputs is deterministic, bit for bit.
    """
    times = grid.times

    def kernel(t_lo, tau):
        return 0.5 * transition(spec, t_lo, tau) * spec.g2(tau) / spec.L(tau)

    rows = _step_rows(times, r, kernel, rtol=rtol)
    psi = transition(spec, times[:-1], times[1:])
    return WeightTable(order=r, times=times, psi=psi, c=rows)


def rho_ab_weights(grid_rho: Sequence[float], r: int) -> tuple:
    """Adams-Bashforth weights in rho for every step of the grid.

    Row i - 1 integrates each Lagrange basis over the history nodes
    rho_i, ..., rho_{i+r'} (r' = min(r, N - i)) from rho_i to rho_{i-1}:
    the step rows with a constant kernel.  Gauss-Legendre quadrature is
    exact for these degree <= r polynomials up to rounding.  The weights
    are signed: row i - 1 sums to rho_{i-1} - rho_i.
    """
    return _step_rows(np.asarray(grid_rho, dtype=float), r, lambda x_lo, tau: 1.0)
