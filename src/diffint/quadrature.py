"""Panel-refined Gauss-Legendre quadrature.

A fixed 32-node Gauss-Legendre rule is applied on each panel and the
panel count is doubled until two successive estimates agree to the
requested tolerance.  The integrands here (transition kernels, weight
integrands) are smooth, so the rule typically converges after one or
two refinements; the cap exists to turn a genuinely hard integrand
into a diagnosable error instead of a silent inaccuracy.

Endpoints may be arrays: one call then integrates many intervals (and
many integrands per interval) with one integrand evaluation per
refinement level.  Every element keeps the estimate of the level at
which it converged, so it gets the bits of a call on that element
alone.

Integrals are signed: ``integrate(f, a, b) == -integrate(f, b, a)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


def integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    *,
    rtol: float = 1e-12,
    atol: float = 1e-15,
    max_panels: int = 1024,
):
    """Integrate ``fn`` over [a, b] with the panel-refined rule.

    ``a`` and ``b`` broadcast to a shape S (``()`` for scalars).  ``fn``
    gets the evaluation points as an array of shape (*S, P), row e
    holding the points of interval e, and returns values of shape
    (..., *S, P), elementwise in the points; the leading dimensions
    stack several integrands over the same points.  The result has
    shape (..., *S), a float when that is ``()``.  Each element
    converges on its own; :class:`QuadratureError` is raised if any
    one does not within ``max_panels``.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if a.ndim == 0 and a == b:
        return 0.0
    result, pending, previous = None, a != b, None
    panels = 1
    while panels <= max_panels:
        # the steps of np.linspace(a, b, panels + 1), elementwise
        edges = np.arange(panels + 1.0) * ((b - a) / panels)[..., None] + a[..., None]
        edges[..., -1] = b
        mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
        half = 0.5 * (edges[..., 1:] - edges[..., :-1])
        points = (mid[..., None] + half[..., None] * _NODES).reshape(a.shape + (-1,))
        values = np.asarray(fn(points), dtype=float)
        values = values.reshape(values.shape[:-1] + (panels, _NODES.size))
        estimate = np.sum((values @ _WEIGHTS) * half, axis=-1)
        if previous is None:
            result = np.zeros(estimate.shape)
            pending = np.broadcast_to(pending, estimate.shape).copy()
        else:
            done = pending & (
                np.abs(estimate - previous) <= np.maximum(atol, rtol * np.abs(estimate))
            )
            result[done] = estimate[done]
            pending &= ~done
        if not pending.any():
            return float(result) if result.ndim == 0 else result
        previous = estimate
        panels *= 2
    lo, hi = (np.broadcast_to(x, pending.shape)[pending][0] for x in (a, b))
    raise QuadratureError(
        f"quadrature over [{lo}, {hi}] did not converge to rtol={rtol} "
        f"within {max_panels} panels"
    )
