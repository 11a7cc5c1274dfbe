import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_compare_counters_ignores_only_the_report_bytes():
    base = {"harness.render": {"calls": 6, "distinct": 0, "bytes": 7311},
            "oracle.em": {"calls": 6, "distinct": 0, "traj": 49152}}
    digits = {**base, "harness.render": {"calls": 6, "distinct": 0, "bytes": 7308}}
    got = bench_pairs.compare_counters(base, digits)
    assert got["differ"] == ["harness.render.bytes"] and got["work_equal"]
    assert got["counters"] == {"base": base, "change": digits}
    # a counter present on one side only is a change of work
    more = {**digits, "oracle.field": {"calls": 1, "distinct": 0}}
    got = bench_pairs.compare_counters(base, more)
    assert got["differ"] == ["harness.render.bytes", "oracle.field.calls",
                             "oracle.field.distinct"]
    assert not got["work_equal"]
    assert bench_pairs.compare_counters(base, base) == {
        "counters": {"base": base, "change": base}, "differ": [], "work_equal": True}


_TRACED_RUNS = textwrap.dedent("""
    import json, sys
    sys.path[:] = json.loads(sys.argv[1])
    import tracing
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    from diffint import EpsilonField, GaussianMixture, quadratic, samplers, vpsde

    spec = vpsde()
    field = EpsilonField(GaussianMixture([1.0], [0.5], [0.25]), spec)
    grid = quadratic(1e-3, spec.t_end, 4)
    for name, order in (("tab", 2), ("rho_ab", 1), ("ei_score", 0), ("rho_rk4", 0)):
        samplers.run_sampler(name, spec, field, grid, [0.3, -1.2], order=order)
    print(json.dumps({name: stat.calls for name, stat in tracer.stats.items()}))
""")


def test_tracer_binds_every_traced_name():
    # the benchmark's traced run wraps diffint's bindings by name, so a
    # renamed or deleted one fails here rather than only under --trace 1;
    # a sampler that holds a traced function by value runs outside its span
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUNS, json.dumps([str(_PERFBENCH)] + sys.path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    for name in ("samplers", "weights.tab", "weights.rho_ab", "diffusion.transition",
                 "diffusion.t_of_rho", "oracle.field"):
        assert calls.get(name, 0) > 0, (name, calls)
