"""In-memory span tracer and the run-time instrumentation of diffint.

Spans are recorded from outside the package: :func:`instrument` swaps
the module-level bindings that diffint's own callers look up at call
time (for example ``diffint.samplers.t_of_rho`` or
``EpsilonField.__call__``) for wrappers that time each call.  Nothing
under ``src/`` is edited, and untraced runs never call
:func:`instrument`, so they pay no wrapper cost at all.

A span holds its name, start, end, parent span and item id (the index
of the benchmark segment it ran in, the same for one item in every
pass).  Self time
is the span's duration minus the time covered by its direct children,
accumulated while the run goes, so the self times of all spans in a
pass add up to the time spent inside spans.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LayerStat:
    """Per-span-name aggregate for one pass."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict = field(default_factory=dict)
    keys: set = field(default_factory=set)

    def add(self, name: str, amount):
        self.counts[name] = self.counts.get(name, 0) + int(amount)


class Tracer:
    """Records spans and per-name aggregates; one instance per process."""

    def __init__(self):
        self.names: dict[str, int] = {}  # span name -> index in the saved names array
        self.spans: list[tuple] = []  # (span_id, parent_id, name_index, item, start, end)
        self.stats: dict[str, LayerStat] = {}
        self.item = -1
        self._stack: list[list] = []  # [span_id, child_seconds] per open span
        self._next_id = 0

    def reset_stats(self) -> dict[str, LayerStat]:
        """Start a fresh aggregate (one per pass); spans keep accumulating."""
        self.stats = {}
        return self.stats

    def stat(self, name: str) -> LayerStat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStat()
        return st

    def call(self, name: str, fn, args, kwargs, count=None):
        """Run ``fn`` inside a span; ``count(stat, args, kwargs, result)``
        records the call's work after the span is closed."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._close(name, frame, parent, start).add(type(exc).__name__, 1)
            raise
        st = self._close(name, frame, parent, start)
        if count is not None:
            count(st, args, kwargs, result)
        return result

    def _close(self, name, frame, parent, start) -> LayerStat:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        if parent is not None:
            parent[1] += duration
        st = self.stat(name)
        st.calls += 1
        st.self_s += duration - frame[1]
        st.total_s += duration
        index = self.names.setdefault(name, len(self.names))
        self.spans.append(
            (frame[0], -1 if parent is None else parent[0], index, self.item, start, end)
        )
        return st

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    def save(self, path):
        """Write every recorded span as compressed numpy arrays."""
        rows = np.array(self.spans, dtype=float).reshape(-1, 6)
        np.savez_compressed(
            path,
            span_id=rows[:, 0].astype(np.int64),
            parent_id=rows[:, 1].astype(np.int64),
            name=rows[:, 2].astype(np.int32),
            item=rows[:, 3].astype(np.int64),
            start=rows[:, 4],
            end=rows[:, 5],
            names=np.array(list(self.names)),
        )


def _count_field(st, args, kwargs, result):
    st.add("states", np.size(args[1]))


def _count_em(st, args, kwargs, result):
    st.add("traj", np.size(result))


def _count_loglik(st, args, kwargs, result):
    st.add("points", np.size(result))


def _count_grid(st, args, kwargs, result):
    st.keys.add(result.times.tobytes())


def _count_tab(st, args, kwargs, result):
    st.keys.add((args[0].name, result.times.tobytes(), result.order))


def _count_run(st, args, kwargs, result):
    st.add("steps", result.grid.n_steps)
    st.add("nfe", result.nfe)


def _count_draw(st, args, kwargs, result):
    st.add("states", np.size(result))


def _count_render(st, args, kwargs, result):
    st.add("bytes", len(result.encode()))


def instrument(tracer: Tracer):
    """Wrap every binding through which diffint's layers are called.

    Each entry names the attribute a caller resolves at call time, so
    both the package's internal calls and the benchmark's own calls
    land in a span.  Bindings that are imported by name into a second
    module (``t_of_rho``, ``transition``, ``marginal_at``, ...) are
    wrapped in every module that calls them.
    """
    from diffint import harness, oracle, quadrature, samplers, timegrid, weights

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    for mod in (samplers, timegrid):
        patch(mod, "t_of_rho", "diffusion.t_of_rho")
    for mod in (samplers, weights):
        patch(mod, "transition", "diffusion.transition")

    patch(oracle.EpsilonField, "__call__", "oracle.field", _count_field)
    for mod in (oracle, harness):
        patch(mod, "marginal_at", "oracle.marginal_at")
    for method in ("score", "score_dx", "logpdf"):
        patch(oracle.GaussianMixture, method, "oracle.mixture")
    for mod in (oracle, harness):
        for attr in ("reference_solve", "reference_self_check"):
            patch(mod, attr, "oracle.reference")
    patch(harness, "em_terminal_batch", "oracle.em", _count_em)
    patch(harness, "pf_loglik", "oracle.pf_loglik", _count_loglik)

    patch(timegrid, "make_grid", "timegrid.build", _count_grid)
    patch(samplers, "tab_weights", "weights.tab", _count_tab)
    patch(samplers, "rho_ab_weights", "weights.rho_ab")

    integrate = quadrature.integrate

    def counted_integrate(fn, a, b, **kwargs):
        st = tracer.stat("quadrature")

        def counted(points):
            st.add("points", np.size(points))
            return fn(points)

        return integrate(counted, a, b, **kwargs)

    quadrature.integrate = tracer.wrap("quadrature", counted_integrate)

    for mod in (samplers, harness):
        patch(mod, "run_sampler", "samplers", _count_run)
    patch(harness, "draw_terminal_states", "harness.draw", _count_draw)
    patch(harness, "run_experiment", "harness.experiment")
    patch(harness.MetricReport, "render", "harness.render", _count_render)
    patch(harness.ExperimentConfig, "from_dict", "harness.config")
