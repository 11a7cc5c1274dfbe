import hashlib
import importlib.util
import json
import os
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
    # the work digest is the sha256 of the flattened counters but the report bytes
    work = {"harness.render.calls": 6, "harness.render.distinct": 0,
            "oracle.em.calls": 6, "oracle.em.distinct": 0, "oracle.em.traj": 49152}
    digest = hashlib.sha256(json.dumps(work, sort_keys=True).encode()).hexdigest()
    assert got["work_sha256"] == {"base": digest, "change": digest}
    # a counter present on one side only is a change of work
    more = {**digits, "oracle.field": {"calls": 1, "distinct": 0}}
    got = bench_pairs.compare_counters(base, more)
    assert got["differ"] == ["harness.render.bytes", "oracle.field.calls",
                             "oracle.field.distinct"]
    assert not got["work_equal"]
    assert got["work_sha256"]["base"] == digest != got["work_sha256"]["change"]
    assert bench_pairs.compare_counters(base, base) == {
        "counters": {"base": base, "change": base}, "differ": [], "work_equal": True,
        "work_sha256": {"base": digest, "change": digest}}


def test_counter_lines_name_each_differing_counter_with_both_values():
    base = {"oracle.field": {"calls": 25096, "states": 1606144},
            "harness.render": {"calls": 6, "bytes": 7311}}
    change = {"oracle.field": {"calls": 17100, "states": 1094400},
              "harness.render": {"calls": 6, "bytes": 7311}, "oracle.extra": {"calls": 2}}
    traced = {"sweep": bench_pairs.compare_counters(base, change),
              "loglik": bench_pairs.compare_counters(base, base)}
    assert bench_pairs.counter_lines(traced) == [
        "sweep oracle.extra.calls None -> 2",
        "sweep oracle.field.calls 25096 -> 17100",
        "sweep oracle.field.states 1606144 -> 1094400",
    ]


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


def _runs(**values):
    """Synthetic runs, one per index of the value lists: {"metrics": {name:
    {"value": v}}}."""
    n = len(next(iter(values.values())))
    return [{"metrics": {name: {"value": vals[i]} for name, vals in values.items()}}
            for i in range(n)]


def test_summarise_reads_each_median_change_against_its_bound():
    metrics = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
               {"name": "unbounded", "unit": "s", "better": "lower"}]
    # a faster change whose set-up median is 27.8% slower, past its 25% bound
    base = _runs(items_per_s=[24.0, 24.37, 25.0], setup_s=[0.08, 0.0879, 0.09],
                 peak_rss_mb=[63.0, 63.6, 64.0], unbounded=[1.0, 1.0, 1.0])
    change = _runs(items_per_s=[39.0, 39.98, 41.0], setup_s=[0.11, 0.1124, 0.12],
                   peak_rss_mb=[68.0, 68.4, 69.0], unbounded=[3.0, 3.0, 3.0])
    got = bench_pairs.summarise(base, change, metrics)
    assert got["items_per_s"]["worse_frac"] == -(39.98 - 24.37) / 24.37
    assert got["items_per_s"]["within_bound"] is True
    assert got["setup_s"]["worse_frac"] == (0.1124 - 0.0879) / 0.0879
    assert got["setup_s"]["within_bound"] is False
    assert got["peak_rss_mb"]["worse_frac"] == (68.4 - 63.6) / 63.6
    assert got["peak_rss_mb"]["within_bound"] is True
    assert got["unbounded"]["worse_frac"] == 2.0
    assert got["unbounded"]["bound"] is None and got["unbounded"]["within_bound"] is None
    # a slower higher-is-better metric counts as worse by its drop
    slower = bench_pairs.summarise(change, base, metrics)["items_per_s"]
    assert slower["worse_frac"] == (39.98 - 24.37) / 39.98
    assert slower["within_bound"] is False
    # exactly at the bound is within it
    at = bench_pairs.summarise(_runs(setup_s=[1.0, 1.0]), _runs(setup_s=[1.25, 1.25]),
                               metrics[1:2])["setup_s"]
    assert at["worse_frac"] == 0.25 and at["within_bound"] is True


def test_summary_lines_give_each_series_verdict():
    metrics = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
               {"name": "unbounded", "unit": "s", "better": "lower"}]
    base = _runs(items_per_s=[50.0, 50.5, 51.0, 52.0], unbounded=[1.0, 1.0, 1.0, 1.0])
    change = _runs(items_per_s=[58.0, 60.0, 59.0, 49.0], unbounded=[2.0, 2.0, 2.0, 2.0])
    series = [{"workload": "loglik", "seed": 0,
               "metrics": bench_pairs.summarise(base, change, metrics)},
              {"workload": "sweep", "seed": 7919,
               "metrics": bench_pairs.summarise(change, base, metrics[:1])}]
    assert bench_pairs.summary_lines(series) == [
        # medians 50.75 and 58.5, +15.3%; the base quartiles 50.375 and
        # 51.25, the change's 55.75 and 59.25
        "loglik seed 0 items_per_s (1/s, higher is better): base 50.75 (IQR 0.875) "
        "change 58.5 (IQR 3.5) (+15.3%), wins 3/4, within_bound True",
        "loglik seed 0 unbounded (s, lower is better): base 1 (IQR 0) change 2 (IQR 0) "
        "(+100.0%), wins 0/4, within_bound None",
        "sweep seed 7919 items_per_s (1/s, higher is better): base 58.5 (IQR 3.5) "
        "change 50.75 (IQR 0.875) (-13.2%), wins 1/4, within_bound True",
    ]


def test_machine_records_the_usable_cpus():
    got = bench_pairs.machine()
    assert got["cpus"] == os.cpu_count()
    assert got["usable_cpus"] == len(os.sched_getaffinity(0))


_MODULE = '''"""A module docstring,
on two lines."""

import math  # a trailing comment leaves a code line

# a comment


def area(r):
    """A function docstring."""
    text = """a string that is not a docstring"""
    return math.pi * r * r


class Shape:
    'A class docstring.'

    sides = 0
'''


def test_source_lines_count_each_module_and_the_totals(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    for tree in (base, change):
        (tree / "src" / "diffint").mkdir(parents=True)
        (tree / "src" / "diffint" / "shapes.py").write_text(_MODULE)
    (change / "src" / "diffint" / "one.py").write_text("x = 1\n\n")
    # not a module of src/diffint
    (change / "src" / "diffint" / "notes.txt").write_text("x = 1\n")
    # code: the import, def, the string assignment, return, class and sides
    shapes = {"lines": 18, "code_lines": 6}
    assert bench_pairs.code_lines(_MODULE) == 6
    source = {"base": bench_pairs.source_lines(base),
              "change": bench_pairs.source_lines(change)}
    assert source["base"] == {"modules": {"shapes.py": shapes}, "lines": 18, "code_lines": 6}
    assert source["change"] == {
        "modules": {"one.py": {"lines": 2, "code_lines": 1}, "shapes.py": shapes},
        "lines": 20, "code_lines": 7}
    assert bench_pairs.source_line(source) == "src code lines 6 -> 7"
