"""The benchmark's workloads: inputs made from the seed, one timed pass,
and the per-item checks that feed the failure count.

Every workload goes through diffint's public entry points only
(``make_grid``, ``run_sampler``, ``reference_*``,
``draw_terminal_states``, ``ExperimentConfig`` and ``run_experiment``),
and looks each one up on its module at call time so that the tracer's
wrappers see the calls.  A pass is a sequence of timed segments; a
segment with items is one unit of the workload's throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from diffint import harness, oracle, samplers, timegrid
from diffint.errors import DiffintError
from measure import Pass

DIFFUSIONS = {
    "vpsde": {"preset": "vpsde", "beta_min": 0.1, "beta_max": 20.0, "t_end": 1.0},
    "vesde": {"preset": "vesde", "sigma_min": 0.01, "sigma_max": 50.0, "t_end": 1.0},
}

# field evaluations per step; an independent statement of the cost contract
STAGES = {"rho_mid": 2, "rho_heun2": 2, "rho_kutta3": 3, "rho_rk4": 4}

# the sampler configs of scripts/convergence_study.py
SWEEP_SAMPLERS = (
    ("euler", {}),
    ("ei_score", {}),
    ("ddim", {}),
    ("tab", {"order": 1}),
    ("tab", {"order": 2}),
    ("tab", {"order": 3}),
    ("rho_ab", {"order": 2}),
    ("rho_mid", {}),
    ("rho_heun2", {}),
    ("rho_kutta3", {}),
    ("rho_rk4", {}),
    ("ipndm", {"order": 3}),
)
SWEEP_SCHEDULES = (("quadratic", None), ("power_rho", 7.0), ("log_rho", None))
SWEEP_N = (10, 20, 40, 80)
SWEEP_BATCH = 64
REF_DT = 1e-3

BIG_SAMPLERS = (
    ("ddim", {}),
    ("tab", {"order": 2}),
    ("rho_rk4", {}),
    ("sddim", {"eta": 1.0}),
)
BIG_LAMBDAS = (0.0, 0.5, 1.0)
BIG_DT = 1e-3

LOGLIK_DT = 1e-3


@dataclass
class Preset:
    config: object
    spec: object
    field: object
    t0: float

    @property
    def name(self) -> str:
        return self.spec.name


def _mixture(rng) -> dict:
    """A two-component mixture; weights, means and stds from the seed."""
    w0 = round(float(rng.uniform(0.25, 0.75)), 6)
    return {
        "weights": [w0, 1.0 - w0],
        "means": [round(float(m), 6) for m in rng.uniform(-1.5, 1.5, 2)],
        "stds": [round(float(s), 6) for s in rng.uniform(0.2, 0.5, 2)],
    }


def _preset(raw: dict) -> Preset:
    config = harness.ExperimentConfig.from_dict(raw)
    spec = config.build_spec()
    return Preset(config, spec, config.build_field(spec), config.t0_for(spec))


def _stages(name: str) -> int:
    return STAGES.get(name, 1)


def _em_steps(t_end: float, t0: float, dt: float) -> int:
    return max(1, math.ceil((t_end - t0) / dt - 1e-12))


def _label(name: str, kwargs: dict) -> str:
    return name + "".join(f" {k}={v}" for k, v in kwargs.items())


def _run_and_render(config):
    """What ``diffint <kind> --config`` does after argument parsing."""
    report = harness.run_experiment(config)
    return report, report.render(config.format)


def _check_run(rec: Pass, key: str, run, n: int, name: str):
    if isinstance(run, Exception):
        rec.check(key, False, f"{type(run).__name__}: {run}")
        return
    expected = n * _stages(name)
    finite = bool(np.all(np.isfinite(run.terminal)))
    rec.check(key, finite and run.nfe == expected,
              f"finite={finite} nfe={run.nfe} expected={expected}")


class Sweep:
    """Every convergence_study sampler on both presets at batch 64."""

    def __init__(self, seed: int, tol: dict):
        rng = np.random.default_rng(seed)
        gmm = _mixture(rng)
        self.seed = seed
        self.tol = tol
        self.presets = [
            _preset({
                "kind": "convergence", "diffusion": diff, "gmm": gmm,
                "sampler": {"name": "ddim"}, "schedule": {"name": "quadratic", "n": 10},
                "n_list": list(SWEEP_N), "batch": SWEEP_BATCH, "seed": seed,
            })
            for diff in DIFFUSIONS.values()
        ]

    def warm(self):
        """Run the reference trust check once per run, then one small
        case of every sampler and schedule.

        The dt-halving check costs three reference solves per preset;
        it gates trust in the reference, like the once-per-study check
        of scripts/convergence_study.py, and stays out of the timed
        passes so that a run of ``--seconds`` fits several passes.
        """
        tol = self.tol["sweep_self_check_gap"]
        self.trust = {}
        for p in self.presets:
            x = harness.draw_terminal_states(p.spec, self.seed, SWEEP_BATCH)
            try:
                self.trust[p.name] = oracle.reference_self_check(
                    p.spec, p.field, x, REF_DT, p.t0, tol=tol)
            except DiffintError as exc:
                self.trust[p.name] = exc
            for sched, kappa in SWEEP_SCHEDULES:
                self._case(p, x, "rho_rk4", {}, sched, kappa, SWEEP_N[0])

    def run_pass(self, rec: Pass):
        for p in self.presets:
            x = rec.timed(f"{p.name} draw", 0, harness.draw_terminal_states,
                          p.spec, self.seed, SWEEP_BATCH)
            ref = rec.timed(f"{p.name} reference", 0, oracle.reference_solve,
                            p.spec, p.field, x, REF_DT, p.t0)
            rec.check(f"{p.name} reference", not isinstance(ref, Exception)
                      and bool(np.all(np.isfinite(ref.terminal))), f"{ref!r}")
            gap = self.trust[p.name]
            trusted = not isinstance(gap, Exception)
            for name, kwargs in SWEEP_SAMPLERS:
                for sched, kappa in SWEEP_SCHEDULES:
                    for n in SWEEP_N:
                        key = f"{p.name} {_label(name, kwargs)} {sched} N={n}"
                        run = rec.timed(key, 1, self._case, p, x, name, kwargs, sched, kappa, n)
                        if not trusted:
                            rec.check(key, False, f"reference self-check failed: {gap}")
                        else:
                            _check_run(rec, key, run, n, name)

    def _case(self, p, x, name, kwargs, sched, kappa, n):
        grid = timegrid.make_grid(sched, t0=p.t0, t_end=p.spec.t_end, n=n,
                                  kappa=kappa, spec=p.spec)
        return samplers.run_sampler(name, p.spec, p.field, grid, x, seed=self.seed, **kwargs)


class BigBatch:
    """Euler-Maruyama marginal experiments at batch 8192, then four
    samplers on a large batch of terminal draws, on both presets."""

    def __init__(self, seed: int, tol: dict, n_traj: int, n_draws: int, n_steps: int):
        rng = np.random.default_rng(seed)
        gmm = _mixture(rng)
        self.seed = seed
        self.k_se = tol["bigbatch_moment_k_se"]
        self.n_draws = n_draws
        self.n_steps = n_steps
        raw = [
            {
                "kind": "marginal", "diffusion": diff, "gmm": gmm,
                "sampler": {"name": "euler"}, "schedule": {"name": "quadratic", "n": n_steps},
                "lambda_list": list(BIG_LAMBDAS), "n_traj": n_traj, "dt": BIG_DT,
                "seed": seed, "format": "json",
            }
            for diff in DIFFUSIONS.values()
        ]
        self.presets = [_preset(r) for r in raw]
        # one experiment per lambda: shorter timed segments, each with its
        # own latency in the item_ms quantiles
        self.marginals = [
            [harness.ExperimentConfig.from_dict({**r, "lambda_list": [lam]}) for lam in BIG_LAMBDAS]
            for r in raw
        ]

    def warm(self):
        """Run each sampler once at full size, so that first-use costs
        (lazy imports, the allocator's thresholds for large arrays) are
        paid before the first timed pass and not only in it."""
        for p in self.presets:
            x = harness.draw_terminal_states(p.spec, self.seed, self.n_draws)
            grid = p.config.build_grid(p.spec)
            for name, kwargs in BIG_SAMPLERS:
                samplers.run_sampler(name, p.spec, p.field, grid, x, seed=self.seed, **kwargs)

    def run_pass(self, rec: Pass):
        for p, marginals in zip(self.presets, self.marginals):
            steps = _em_steps(p.spec.t_end, p.t0, p.config.dt)
            for cfg in marginals:
                lam = cfg.lambda_list[0]
                out = rec.timed(f"{p.name} marginal lambda={lam}", cfg.n_traj * steps,
                                _run_and_render, cfg)
                self._check_marginal(rec, p.name, lam, out)
            x = rec.timed(f"{p.name} draw", 0, harness.draw_terminal_states,
                          p.spec, self.seed, self.n_draws)
            for name, kwargs in BIG_SAMPLERS:
                key = f"{p.name} {_label(name, kwargs)} N={self.n_steps}"
                run = rec.timed(key, self.n_draws * self.n_steps, self._case, p, x, name, kwargs)
                _check_run(rec, key, run, self.n_steps, name)

    def _case(self, p, x, name, kwargs):
        grid = p.config.build_grid(p.spec)
        return samplers.run_sampler(name, p.spec, p.field, grid, x, seed=self.seed, **kwargs)

    def _check_marginal(self, rec: Pass, preset: str, lam: float, out):
        if isinstance(out, Exception):
            rec.check(f"{preset} marginal lambda={lam}", False, f"{out!r}")
            return
        report, _ = out
        k = self.k_se
        for row in report.rows:
            d_mean = abs(row["terminal_mean"] - row["data_mean"])
            d_var = abs(row["terminal_var"] - row["data_var"])
            ok = (not row["failed"] and d_mean <= k * row["se_mean"]
                  and d_var <= k * row["se_var"])
            rec.check(
                f"{preset} marginal lambda={row['lambda']}", ok,
                f"failed={row['failed']} |dmean|={d_mean:.3e} (k*se {k * row['se_mean']:.3e})"
                f" |dvar|={d_var:.3e} (k*se {k * row['se_var']:.3e})",
            )


class Loglik:
    """ODE log-likelihood experiments with several points per config."""

    def __init__(self, seed: int, tol: dict, n_points: int):
        rng = np.random.default_rng(seed)
        gmm = _mixture(rng)
        self.tol_nats = tol["loglik_gap_nats"]
        comp = rng.choice(2, size=n_points, p=gmm["weights"])
        means, stds = np.asarray(gmm["means"]), np.asarray(gmm["stds"])
        x0 = means[comp] + stds[comp] * rng.standard_normal(n_points)
        self.presets = [
            _preset({
                "kind": "loglik", "diffusion": diff, "gmm": gmm,
                "sampler": {"name": "ddim"}, "schedule": {"name": "uniform", "n": 10},
                "x0_list": [round(float(v), 6) for v in x0], "dt": LOGLIK_DT,
                "seed": seed, "format": "json",
            })
            for diff in DIFFUSIONS.values()
        ]

    def warm(self):
        for p in self.presets:
            oracle.marginal_at(p.field.gmm, p.spec, 0.5).score_dx(np.zeros(1))
            p.config.build_gmm().logpdf(np.zeros(1))

    def run_pass(self, rec: Pass):
        for p in self.presets:
            out = rec.timed(f"{p.name} loglik", len(p.config.x0_list), _run_and_render, p.config)
            if isinstance(out, Exception):
                for x0 in p.config.x0_list:
                    rec.check(f"{p.name} x0={x0}", False, f"{out!r}")
                continue
            for row in out[0].rows:
                gap = row["gap_nats"]
                rec.check(f"{p.name} x0={row['x0']}", bool(abs(gap) <= self.tol_nats),
                          f"|gap|={abs(gap):.3e} nats > {self.tol_nats}")


WORKLOADS = {"sweep": Sweep, "bigbatch": BigBatch, "loglik": Loglik}


def prepare(name: str, seed: int, spec: dict):
    """Make a workload's inputs from the seed and validate its configs."""
    return WORKLOADS[name](seed, spec["tolerances"], **spec["workloads"][name]["size"])
