"""Extrapolation bases and precomputed step weights.

The exponential-integrator multistep update on a grid {t_i} is

    x_{i-1} = Psi(t_{i-1}, t_i) x_i + sum_j C_ij eps_j,

where eps_j is the noise-prediction value recorded at t_{i+j} and

    C_ij = int_{t_i}^{t_{i-1}} 1/2 Psi(t_{i-1}, tau) g2(tau) / L(tau)
           * basis_j(tau) dtau,

with basis_j the Lagrange basis over the history nodes
t_i, ..., t_{i+r}.  The weights depend only on the diffusion and the
grid, so a :class:`WeightTable` is built from those alone.  It is also
the plan, with its own a_i in place of Psi, of every other sampler in
:mod:`diffint.samplers`.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadrature
from .diffusion import DiffusionSpec, transition
from .errors import DegenerateNodesError, ParameterError
from .timegrid import TimeGrid

__all__ = [
    "lagrange_basis",
    "WeightTable",
    "tab_weights",
    "rho_ab_weights",
    "MAX_ORDER",
]

MAX_ORDER = 3


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
    """The whole plan of one run: per-evaluation state factors, coefficient
    rows and step noise for a grid, and what the run reports.

    ``times`` is the grid the table was built from, and ``eval_times[i-1]``
    the S stage times at which the step leaving node i evaluates the field
    (by default t_i alone: S = 1).  After stage s, entry k = (i-1) S + s
    sets the next stage's state, or after the last x_{i-1}, to ``psi[k]``
    x_i plus row ``c[k]`` against the most recent evaluations (j = 0
    first).  With S = 1, ``psi[i-1]`` is a_i (Psi(t_{i-1}, t_i) for
    ``tab``) and row i-1 reaches back over min(``order``, N-i) earlier
    node evaluations (none for a plan without an order); a stage row
    reaches only its step's evaluations.  ``noise[i-1]``, when given, is
    the scale s_i of the standard normal draw the step leaving node i
    adds.  ``order`` and ``notes`` are what the run reports: the order a
    sampler reads (None for one that reads none) and its run notes.
    The builders' tests pin the row sizes and finite entries, so the
    table checks neither.
    """

    order: int | None
    times: np.ndarray
    psi: np.ndarray
    c: tuple
    eval_times: np.ndarray | None = None
    noise: np.ndarray | None = None
    notes: tuple = ()

    def __post_init__(self):
        if self.eval_times is None:
            object.__setattr__(self, "eval_times", self.times[1:, None])


def _check_order(r: int):
    if not 0 <= r <= MAX_ORDER:
        raise ParameterError(f"order must be in 0..{MAX_ORDER}, got {r}")


def _step_rows(x: np.ndarray, r: int, kernel) -> tuple:
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

        c = -quadrature.integrate(integrand, x_lo, x_hi)
        for k, step in enumerate(i):
            rows[step - 1] = c[:, k]
    return tuple(rows)


def tab_weights(spec: DiffusionSpec, grid: TimeGrid, r: int) -> WeightTable:
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

    rows = _step_rows(times, r, kernel)
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
