#!/usr/bin/env python3
"""Alternating benchmark pairs of a base tree and this tree.

    python3 scripts/bench_pairs.py --base DIR [--base-rev REV] --slug NAME \\
        --workload bigbatch --seed 0 --pairs 10 [--seed 7919 --pairs 4] \\
        [--seconds 35] [--trace]

Runs ``perfbench/run.py`` of the base tree and of this tree in turn, one
fresh process per run, and writes ``BENCH_<slug>.json`` at the root of
this tree.  ``--base`` is a checkout of the commit to compare against;
given ``--base-rev`` and a ``--base`` directory that does not exist yet,
the script exports that revision there with ``git archive`` first.

Each ``--workload``/``--seed``/``--pairs`` triple (repeat the flags, or
give one ``--workload`` for every seed) is a series of pairs.  Pair i
runs the base first when i is even and the change first when it is odd,
so that a drift of machine speed during the series falls on both sides.
For every end-to-end metric of ``BENCHMARK.json`` the file holds the
values of each run, the median and quartiles of each side, the pairs the
change wins (better by the metric's direction), the median change, and
the median change in the worse direction read against the metric's
``bound`` (``worse_frac``, ``within_bound``);
``setup_samples_s`` keeps each run's set-up probes, whose median is its
``setup_s``.  After the per-run lines the script prints a closing
summary, one line per series and metric (:func:`summary_lines`), and
with ``--trace`` one per differing traced counter (:func:`counter_lines`).
``--trace`` adds one traced run per tree and workload (seed 0).  It keeps
each side's cost counters and their ``counters_sha256``, names the
counters that differ, and sets ``work_equal`` when no counter differs but
``harness.render.bytes``, the length of the rendered reports, which
changes with their digits even where the work done is the same.  Each
side's ``work_sha256`` digests its counters without that one, so equal
work gives equal digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout of the base commit")
    parser.add_argument("--base-rev", help="revision to export into --base if it does not exist")
    parser.add_argument("--slug", required=True, help="names the output BENCH_<slug>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", action="append", type=int, required=True)
    parser.add_argument("--pairs", action="append", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", action="store_true", help="also compare traced cost counters")
    args = parser.parse_args(argv)
    if len(args.workload) == 1:
        args.workload *= len(args.seed)
    if not len(args.workload) == len(args.seed) == len(args.pairs):
        parser.error("give one --seed and one --pairs per --workload (or a single --workload)")
    return args


def export_base(base: Path, rev: str):
    """Write the files of ``rev`` into the new directory ``base``."""
    base.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)


def git_rev(tree: Path):
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One fresh-process run of ``perfbench/run.py`` in ``tree``: its
    result object, with the detail line under ``"detail"``."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(base_runs, change_runs, metrics):
    """Per metric: each side's values and quartiles, the pairs the change
    wins, whether its median beats the base's by more than the base's
    interquartile range, ``worse_frac``, the median change as a fraction
    of the base's median in the metric's worse direction (negative when
    the change is better), and ``within_bound``, whether that stays at or
    under the metric's ``bound`` (None for a metric without one)."""
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        b, c = quartiles(base), quartiles(change)
        gain = c["median"] - b["median"] if higher else b["median"] - c["median"]
        worse = -gain / b["median"]
        bound = spec.get("bound")
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base": {**b, "values": base},
            "change": {**c, "values": change},
            "wins": sum((x > y) if higher else (x < y) for x, y in zip(change, base)),
            "pairs": len(base),
            "median_change_frac": (c["median"] - b["median"]) / b["median"],
            "beats_base_iqr": gain > b["iqr"],
            "worse_frac": worse,
            "bound": bound,
            "within_bound": None if bound is None else worse <= bound,
        }
    return out


def summary_lines(series) -> list:
    """The closing summary of the ``series`` of a report, one line per
    series and metric: each side's median, ``median_change_frac``, the
    pairs the change wins, the base's interquartile range and
    ``within_bound``."""
    lines = []
    for one in series:
        for name, m in one["metrics"].items():
            lines.append(
                f"{one['workload']} seed {one['seed']} {name} ({m['unit']}, {m['better']} "
                f"is better): base {m['base']['median']:.4g} change {m['change']['median']:.4g} "
                f"({m['median_change_frac']:+.1%}), wins {m['wins']}/{m['pairs']}, "
                f"base IQR {m['base']['iqr']:.3g}, within_bound {m['within_bound']}")
    return lines


def flatten(counters: dict) -> dict:
    """Traced counters {span: {count: value}} as {"span.count": value}."""
    return {f"{span}.{key}": value for span, counts in counters.items()
            for key, value in counts.items()}


def counter_lines(traced) -> list:
    """The closing summary's lines for ``--trace``: per workload of
    ``traced`` (its :func:`compare_counters` results), one line per
    counter that differs, with its base and change values (None where a
    side lacks it), so that an expected change in work reads at a
    glance."""
    lines = []
    for workload, one in traced.items():
        flat = [flatten(one["counters"][side]) for side in ("base", "change")]
        lines += [f"{workload} {name} {flat[0].get(name)} -> {flat[1].get(name)}"
                  for name in one["differ"]]
    return lines


# counters that measure the digits of the results, not the work done
NOT_WORK = {"harness.render.bytes"}


def compare_counters(base: dict, change: dict) -> dict:
    """Both sides' traced counters ({span: {count: value}}), the names
    ``span.count`` of those that differ, whether the work is equal, and
    each side's ``work_sha256``: the sha256 of its flattened counters
    without ``NOT_WORK``."""
    flat = [flatten(side) for side in (base, change)]
    differ = sorted(name for name in flat[0].keys() | flat[1].keys()
                    if flat[0].get(name) != flat[1].get(name))
    work = [json.dumps({k: v for k, v in side.items() if k not in NOT_WORK}, sort_keys=True)
            for side in flat]
    return {"counters": {"base": base, "change": change}, "differ": differ,
            "work_equal": set(differ) <= NOT_WORK,
            "work_sha256": {side: hashlib.sha256(text.encode()).hexdigest()
                            for side, text in zip(("base", "change"), work)}}


def machine():
    import numpy

    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        # the CPUs this process may run on, which can be fewer than cpus
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.base.exists():
        if not args.base_rev:
            print(f"{args.base} does not exist; pass --base-rev to export it", file=sys.stderr)
            return 2
        export_base(args.base, args.base_rev)
    trees = {"base": args.base.resolve(), "change": ROOT}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    report = {
        "slug": args.slug,
        # the base directory is machine-local, so the record names it BASE
        "command": [Path(sys.argv[0]).name,
                    *("BASE" if arg == str(args.base) else arg for arg in sys.argv[1:])],
        "seconds": args.seconds,
        "base": {"rev": args.base_rev or git_rev(trees["base"])},
        "change": {"rev": git_rev(ROOT), "dirty": bool(subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True).stdout.strip())},
        "machine": machine(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "series": [],
    }
    for workload, seed, pairs in zip(args.workload, args.seed, args.pairs):
        runs = {"base": [], "change": []}
        for i in range(pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_bench(trees[side], workload, seed, args.seconds, trace=False)
                runs[side].append(result)
                got = result["metrics"]
                print(f"{workload} seed {seed} pair {i} {side}: items_per_s "
                      f"{got['items_per_s']['value']:.4g} setup_s "
                      f"{got['setup_s']['value']:.3g}", file=sys.stderr, flush=True)
        report["series"].append({
            "workload": workload,
            "seed": seed,
            "pairs": pairs,
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
            "metrics": summarise(runs["base"], runs["change"], metrics),
            "setup_samples_s": {side: [r["detail"]["setup_samples_s"] for r in rs]
                                for side, rs in runs.items()},
        })
    if args.trace:
        report["traced"] = {}
        for workload in dict.fromkeys(args.workload):
            detail = {side: run_bench(tree, workload, 0, args.seconds, trace=True)["detail"]
                      for side, tree in trees.items()}
            hashes = {side: d["counters_sha256"] for side, d in detail.items()}
            report["traced"][workload] = {
                **hashes, "equal": hashes["base"] == hashes["change"],
                **compare_counters(detail["base"]["counters"], detail["change"]["counters"]),
            }
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path = ROOT / f"BENCH_{args.slug}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for line in summary_lines(report["series"]) + counter_lines(report.get("traced", {})):
        print(line, file=sys.stderr)
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
