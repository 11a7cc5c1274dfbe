#!/usr/bin/env python3
"""diffint benchmark.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Runs one workload (``sweep``, ``bigbatch`` or ``loglik``, described in
``perfbench/spec.json``) in this process, single-threaded with BLAS
threads pinned to 1, against the diffint sources under ``src/`` of the
checkout that holds this file.  Inputs are made from ``--seed``.

Whole passes over the workload are repeated while they fit in
``--seconds``.  Each segment of a pass is timed and rescaled to
reference machine speed (see ``measure.py``); its median over the
passes is what the metrics use.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then wraps diffint's layer entry points (see
``tracing.py``), runs at least two traced passes and prints the
per-layer metrics.  It also asserts that every cost counter repeats
exactly from pass to pass, and writes all spans to
``perfbench/out/spans-<workload>-seed<seed>.npz``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is a detail object with provenance, sample counts, counters and the
failed checks.  Exit code 0 on a completed run (failed checks
included), 2 when the diffint sources are missing.
"""

import os

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((BENCH / "spec.json").read_text())
WORKLOADS = tuple(SPEC["workloads"])
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="diffint benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Import diffint, make the inputs, validate configs, build oracles.

    Returns (seconds at reference machine speed, workload object); the
    clock starts before ``import diffint``, so import cost is part of
    set-up.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import diffint

    if Path(diffint.__file__).resolve().parent != SRC / "diffint":
        raise ImportError(f"diffint imported from {diffint.__file__}, not from {SRC}")
    import measure
    import workloads

    work = workloads.prepare(workload, seed, SPEC)
    wall = time.perf_counter() - start
    return wall * SPEC["calibration_nominal_s"] / measure.machine_speed(), work


def setup_samples(args, first: float) -> list:
    """Set-up times: this process's own plus fresh-process probes."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SPEC["setup_repeats"] - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=PROBE_TIMEOUT_S)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_passes(work, seconds: float, tracer=None, min_passes: int = 1) -> list:
    """Whole passes while the next one is expected to fit in ``seconds``."""
    import measure

    passes = []
    started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset_stats()
        rec = measure.Pass(SPEC["calibration_nominal_s"], tracer=tracer)
        work.run_pass(rec)
        rec.calibrate()
        if tracer is not None:
            rec.stats = tracer.stats
        passes.append(rec)
        elapsed = time.perf_counter() - started
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def segment_medians(passes) -> dict:
    """Per-segment median of the normalized seconds over the passes,
    with the segment's items."""
    runs = [p.normalized() for p in passes]
    return {
        key: (statistics.median(r[key][0] for r in runs), items)
        for key, (_, items) in runs[0].items()
    }


def weighted_quantile(values, weights, q: float) -> float:
    """Quantile ``q`` of values with weights, linear between the midpoints
    of the values' weight intervals, so that it moves smoothly when one
    value moves past another."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    mids, acc = [], 0.0
    for _, w in pairs:
        mids.append((acc + 0.5 * w) / total)
        acc += w
    if q <= mids[0]:
        return pairs[0][0]
    for (v0, _), (v1, _), m0, m1 in zip(pairs, pairs[1:], mids, mids[1:]):
        if q <= m1:
            return v0 + (v1 - v0) * (q - m0) / (m1 - m0)
    return pairs[-1][0]


def end_to_end(passes, setup_s: list) -> tuple:
    medians = segment_medians(passes)
    pass_s = sum(sec for sec, _ in medians.values())
    items = sum(n for _, n in medians.values())
    # per-item latency: a segment's time shared by its items
    lat = [(1e3 * sec / n, n) for sec, n in medians.values() if n > 0]
    values, weights = [v for v, _ in lat], [w for _, w in lat]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "items_per_s": (items / pass_s, "1/s"),
        "item_ms_p50": (weighted_quantile(values, weights, 0.5), "ms"),
        "item_ms_p90": (weighted_quantile(values, weights, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "passes": len(passes),
        "pass_s": [p.seconds for p in passes],
        "pass_wall_s": [p.wall_s for p in passes],
        "calibration_s": [statistics.median(p.calibrations) for p in passes],
        "robust_pass_s": pass_s,
        "items_per_pass": items,
        "latency_segments": len(lat),
        "setup_samples_s": setup_s,
    }
    return metrics, detail


def _stat(stats, name):
    from tracing import LayerStat

    return stats.get(name) or LayerStat()


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def counters(stats) -> dict:
    """Every deterministic count of a pass, by span name."""
    return {
        name: {"calls": st.calls, "distinct": len(st.keys), **st.counts}
        for name, st in sorted(stats.items())
    }


def per_layer(passes, baseline, setup_stats) -> dict:
    """Per-layer metrics: counts of the first traced pass (all passes
    agree, see :func:`main`), times as medians over the traced passes."""
    first = passes[0].stats

    def count(name, key="calls"):
        st = _stat(first, name)
        return st.calls if key == "calls" else st.counts.get(key, 0)

    def self_s(name):
        return statistics.median(_stat(p.stats, name).self_s for p in passes)

    def total_s(name):
        return statistics.median(_stat(p.stats, name).total_s for p in passes)

    def attributed(p):
        return sum(st.self_s for name, st in p.stats.items() if name != "bench") / p.wall_s

    traced_s = statistics.median(p.seconds for p in passes)
    field_calls, field_states = count("oracle.field"), count("oracle.field", "states")
    steps = count("samplers", "steps")
    draw_states = count("harness.draw", "states")
    m = {}
    for name in (
        "diffusion.t_of_rho", "diffusion.transition", "oracle.field",
        "oracle.marginal_at", "oracle.mixture", "oracle.reference", "oracle.em",
        "oracle.pf_loglik", "timegrid.build", "weights.tab", "weights.rho_ab",
        "quadrature", "samplers", "harness.draw", "harness.experiment", "harness.render",
    ):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m.update({
        "diffusion.t_of_rho.calls": (count("diffusion.t_of_rho"), "count"),
        "diffusion.transition.calls": (count("diffusion.transition"), "count"),
        "oracle.field.calls": (field_calls, "count"),
        "oracle.field.states": (field_states, "count"),
        "oracle.field.us_per_call": (_ratio(total_s("oracle.field"), field_calls, 1e6), "us"),
        "oracle.field.ns_per_state": (_ratio(total_s("oracle.field"), field_states, 1e9), "ns"),
        "oracle.marginal_at.calls": (count("oracle.marginal_at"), "count"),
        "oracle.mixture.calls": (count("oracle.mixture"), "count"),
        "oracle.reference.calls": (count("oracle.reference"), "count"),
        "oracle.em.calls": (count("oracle.em"), "count"),
        "oracle.em.traj": (count("oracle.em", "traj"), "count"),
        "oracle.pf_loglik.calls": (count("oracle.pf_loglik"), "count"),
        "oracle.pf_loglik.points": (count("oracle.pf_loglik", "points"), "count"),
        "timegrid.build.calls": (count("timegrid.build"), "count"),
        "timegrid.build.distinct": (len(_stat(first, "timegrid.build").keys), "count"),
        "weights.tab.builds": (count("weights.tab"), "count"),
        "weights.tab.distinct": (len(_stat(first, "weights.tab").keys), "count"),
        "weights.rho_ab.calls": (count("weights.rho_ab"), "count"),
        "quadrature.calls": (count("quadrature"), "count"),
        "quadrature.points": (count("quadrature", "points"), "count"),
        "samplers.runs": (count("samplers"), "count"),
        "samplers.steps": (steps, "count"),
        "samplers.nfe": (count("samplers", "nfe"), "count"),
        "samplers.step_overhead_us": (_ratio(self_s("samplers"), steps, 1e6), "us"),
        "samplers.divergences": (count("samplers", "DivergenceError"), "count"),
        "harness.draw.states": (draw_states, "count"),
        "harness.draw.us_per_state": (_ratio(self_s("harness.draw"), draw_states, 1e6), "us"),
        "harness.render.bytes": (count("harness.render", "bytes"), "bytes"),
        "harness.config.self_s": (_stat(setup_stats, "harness.config").self_s, "s"),
        "trace.overhead_frac": (traced_s / baseline.seconds - 1.0, "frac"),
        "trace.attributed_frac": (
            statistics.median(attributed(p) for p in passes), "frac"),
    })
    # EM's only traced children are field calls, so its self time is the
    # time EM spends outside the field: stream set-up and step arithmetic
    m["oracle.em.nonfield_s"] = m["oracle.em.self_s"]
    return m


def provenance(args) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "diffint").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "thread_env": {var: os.environ[var] for var in THREAD_ENV},
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diffint" / "__init__.py").is_file():
        print(f"diffint sources not found under {SRC}", file=sys.stderr)
        return 2
    setup_s, work = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    work.warm()
    detail = {"provenance": provenance(args)}
    if args.trace:
        import tracing
        import workloads

        baseline = run_passes(work, 0.0)[0]
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        # set up again under the tracer, only to time config validation
        setup_stats = tracer.reset_stats()
        workloads.prepare(args.workload, args.seed, SPEC)
        passes = run_passes(work, args.seconds - baseline.wall_s, tracer, min_passes=2)
        metrics = per_layer(passes, baseline, setup_stats)
        counts = [counters(p.stats) for p in passes]
        repeat_ok = all(c == counts[0] for c in counts)
        unattributed = 1.0 - metrics["trace.attributed_frac"][0]
        trace_ok = unattributed <= SPEC["tolerances"]["trace_unattributed_frac"]
        spans_path = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.npz"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.save(spans_path)
        detail.update({
            "traced_pass_s": [p.seconds for p in passes],
            "untraced_pass_s": baseline.seconds,
            "bench_self_s": statistics.median(p.stats["bench"].self_s for p in passes),
            "counters": counts[0],
            "counters_sha256": hashlib.sha256(
                json.dumps(counts[0], sort_keys=True).encode()).hexdigest(),
            "counters_repeat": repeat_ok,
            "trace_unattributed_frac": unattributed,
            "spans": str(spans_path.relative_to(ROOT)),
            "span_count": len(tracer.spans),
        })
        passes = [baseline] + passes
    else:
        passes = run_passes(work, args.seconds)
        metrics, timing = end_to_end(passes, setup_samples(args, setup_s))
        detail.update(timing)
        repeat_ok = trace_ok = True
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    detail.update({
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures and repeat_ok and trace_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
