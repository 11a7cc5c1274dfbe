import numpy as np
import pytest

from diffint import QuadratureError
from diffint.quadrature import _NODES, _WEIGHTS, integrate


def _scalar_reference(fn, a, b, rtol=1e-12, atol=1e-15):
    """The one-interval loop the batched rule must reproduce bit for bit."""
    if a == b:
        return 0.0
    previous = None
    panels = 1
    while True:
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        points = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
        values = np.asarray(fn(points), dtype=float).reshape(panels, _NODES.size)
        estimate = float(np.sum((values @ _WEIGHTS) * half))
        if previous is not None and abs(estimate - previous) <= max(atol, rtol * abs(estimate)):
            return estimate
        previous = estimate
        panels *= 2


def _panels_to_converge(fn, a, b):
    """Panel count at which a scalar call stops (one fn call per level)."""
    calls = []

    def counted(x):
        calls.append(x.size)
        return fn(x)

    integrate(counted, a, b)
    return calls[-1] // 32


def test_array_endpoints_match_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(11)
    a = rng.uniform(-1.0, 1.0, 24)
    b = a + rng.uniform(-2.0, 2.0, 24)
    k = np.geomspace(0.5, 150.0, 24)  # slow and fast oscillations
    out = integrate(lambda x: np.cos(k[:, None] * x) * np.exp(-x), a, b)
    assert out.shape == (24,)
    panels = set()
    for e in range(24):
        fn = lambda x, e=e: np.cos(k[e] * x) * np.exp(-x)
        assert out[e] == integrate(fn, a[e], b[e]) == _scalar_reference(fn, a[e], b[e])
        panels.add(_panels_to_converge(fn, a[e], b[e]))
    assert len(panels) >= 3  # the elements converge at different levels


def test_stacked_integrands_match_scalar_calls():
    a = np.array([0.1, 0.3, -0.2])
    b = np.array([0.9, 0.35, 1.7])
    out = integrate(lambda x: np.stack([np.sin(3 * x), x**3, np.exp(x)]), a, b)
    assert out.shape == (3, 3)
    scalar_fns = (lambda x: np.sin(3 * x), lambda x: x**3, np.exp)
    for j, fn in enumerate(scalar_fns):
        for e in range(3):
            assert out[j, e] == integrate(fn, a[e], b[e]) == _scalar_reference(fn, a[e], b[e])


def test_equal_endpoints_element_is_zero():
    a = np.array([0.2, 0.5, 0.7])
    b = np.array([0.9, 0.5, 0.1])
    out = integrate(lambda x: np.exp(np.sin(5 * x)), a, b)
    assert out[1] == 0.0
    for e in (0, 2):
        assert out[e] == integrate(lambda x: np.exp(np.sin(5 * x)), a[e], b[e])
    assert integrate(np.exp, a[1:2], b[1:2], max_panels=1).tolist() == [0.0]


def test_zero_d_endpoints_give_a_float():
    fn = lambda x: np.exp(-x * x)
    reference = _scalar_reference(fn, 0.2, 1.3)
    for a, b in ((np.float64(0.2), np.float64(1.3)), (np.array(0.2), np.array(1.3))):
        out = integrate(fn, a, b)
        assert type(out) is float and out == reference
    assert integrate(fn, np.array(0.4), 0.4) == 0.0


def test_one_unconverged_element_raises():
    k = np.array([1.0, 3e5, 2.0])
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.cos(k[:, None] * x), np.zeros(3), np.ones(3), max_panels=64)
