"""Experiment orchestration: configs, runners, machine-readable reports.

An experiment is described by a single JSON document (see
:class:`ExperimentConfig`); CLI flags ``--seed``, ``--out`` and
``--format`` override the corresponding config fields, and everything
else comes from the file.  Reports embed the fully resolved config and
a hash of it, so re-running from an embedded config reproduces the
report byte for byte.

Experiment kinds:

* ``sample``       one sampler run; rows are trajectory nodes.
* ``convergence``  terminal error against the reference solver over a
                   list of step counts, with a fitted log-log slope.
* ``marginal``     Monte-Carlo check that the terminal law of the
                   reverse-time family matches the data moments for
                   each requested noise level lambda.
* ``trace``        hold/extrapolation error of the field along a
                   reference trajectory (score vs noise-prediction
                   parameterization, and polynomial orders 0..3).
* ``loglik``       ODE log-likelihood against the analytic mixture
                   density.

Report formats: ``json`` (canonical, sorted keys) and ``csv`` (schema
string in the row-1 comment, resolved config embedded in a comment).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from . import timegrid
from .diffusion import DiffusionSpec, vesde, vpsde
from .errors import ConfigError
from .oracle import (
    EpsilonField,
    GaussianMixture,
    em_terminal_batch,
    epsilon_field,
    marginal_at,
    pf_loglik,
    reference_self_check,
    reference_solve,
    reference_states,
    trajectory_streams,
)
from .samplers import SAMPLER_NAMES, SolverRun, run_sampler
from .weights import lagrange_basis, tab_weights

SCHEMA = "diffint-report-v1"
PACKAGE_VERSION = "0.1.0"

KINDS = ("sample", "convergence", "marginal", "trace", "loglik")

# sampling stops short of t = 0; preset-specific floors
_DEFAULT_T0 = {"vpsde": 1e-3, "vesde": 1e-5}

_TOP_KEYS = {
    "kind", "diffusion", "gmm", "sampler", "schedule", "seed", "out", "format",
    "x_t", "batch", "n_list", "lambda_list", "n_traj", "dt", "ref_dt",
    "x0_list", "points_per_interval", "orders",
}


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing required field {key!r} in {context}")
    return mapping[key]


@dataclass
class ExperimentConfig:
    """Validated, fully resolved experiment description."""

    kind: str
    diffusion: dict
    gmm: dict
    sampler: dict
    schedule: dict
    seed: int = 0
    out: Optional[str] = None
    format: str = "csv"
    x_t: Optional[Any] = None
    batch: int = 64
    n_list: tuple = ()
    lambda_list: tuple = (0.0, 1.0)
    n_traj: int = 50000
    dt: float = 1e-3
    ref_dt: float = 1e-3
    x0_list: tuple = ()
    points_per_interval: int = 8
    orders: tuple = (0, 1, 2, 3)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kind = _require(raw, "kind", "config")
        if kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
        try:
            cfg = cls(
                kind=kind,
                diffusion=dict(_require(raw, "diffusion", "config")),
                gmm=dict(_require(raw, "gmm", "config")),
                sampler=dict(raw.get("sampler", {"name": "ddim"})),
                schedule=dict(_require(raw, "schedule", "config")),
                seed=int(raw.get("seed", 0)),
                out=raw.get("out"),
                format=raw.get("format", "csv"),
                x_t=raw.get("x_t"),
                batch=int(raw.get("batch", 64)),
                n_list=tuple(raw.get("n_list", ())),
                lambda_list=tuple(raw.get("lambda_list", (0.0, 1.0))),
                n_traj=int(raw.get("n_traj", 50000)),
                dt=float(raw.get("dt", 1e-3)),
                ref_dt=float(raw.get("ref_dt", 1e-3)),
                x0_list=tuple(raw.get("x0_list", ())),
                points_per_interval=int(raw.get("points_per_interval", 8)),
                orders=tuple(raw.get("orders", (0, 1, 2, 3))),
            )
            cfg.validate()
        except (TypeError, ValueError) as exc:  # ConfigError and ParameterError included
            raise ConfigError(str(exc)) from exc
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): "
                f"{exc.msg}"
            ) from exc
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def validate(self):
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        name = self.sampler.get("name")
        if name not in SAMPLER_NAMES:
            raise ConfigError(f"sampler name must be one of {SAMPLER_NAMES}, got {name!r}")
        sched = self.schedule
        sname = _require(sched, "name", "schedule")
        if sname not in timegrid.SCHEDULE_NAMES:
            raise ConfigError(
                f"schedule name must be one of {timegrid.SCHEDULE_NAMES}, got {sname!r}"
            )
        if "t0" in sched and float(sched["t0"]) <= 0:
            raise ConfigError("schedule t0 must be positive")
        if int(_require(sched, "n", "schedule")) < 1:
            raise ConfigError("schedule n must be at least 1")
        # every value a runner converts must convert here
        _sampler_kwargs(self)
        [int(v) for v in self.n_list + self.orders]
        [float(v) for v in self.x0_list + self.lambda_list]
        if np.ndim(np.asarray(self.x_t, dtype=float)) and self.kind == "trace":
            raise ConfigError(f"trace experiments need a scalar x_t, got {self.x_t!r}")
        if self.batch < 1 or self.n_traj < 1 or self.points_per_interval < 0:
            raise ConfigError("batch and n_traj must be >= 1, points_per_interval >= 0")
        if self.kind == "convergence":
            if not self.n_list:
                raise ConfigError("convergence experiments need a nonempty n_list")
            if len(set(self.n_list)) != len(self.n_list):
                raise ConfigError(f"n_list entries must be distinct: {list(self.n_list)}")
        if self.kind == "marginal" and not self.lambda_list:
            raise ConfigError("marginal experiments need a nonempty lambda_list")
        if self.kind == "loglik" and not self.x0_list:
            raise ConfigError("loglik experiments need a nonempty x0_list")
        self.build_spec()
        self.build_gmm()

    def t0_for(self, spec: DiffusionSpec) -> float:
        """Schedule t0, defaulting per preset (1e-3 VP, 1e-5 VE)."""
        if "t0" in self.schedule:
            return float(self.schedule["t0"])
        return _DEFAULT_T0.get(spec.name, 1e-3)

    def resolved(self) -> dict:
        """The complete config as a plain dict (what reports embed).

        Schedule defaults (t0, t_end) are filled in, and the output
        path is omitted: it is delivery metadata, not experiment
        identity, so the same experiment written to two different
        files produces identical bytes.
        """
        spec = self.build_spec()
        schedule = dict(self.schedule)
        schedule["t0"] = self.t0_for(spec)
        schedule.setdefault("t_end", spec.t_end)
        return {
            "kind": self.kind,
            "diffusion": self.diffusion,
            "gmm": self.gmm,
            "sampler": self.sampler,
            "schedule": schedule,
            "seed": self.seed,
            "format": self.format,
            "x_t": self.x_t,
            "batch": self.batch,
            "n_list": list(self.n_list),
            "lambda_list": list(self.lambda_list),
            "n_traj": self.n_traj,
            "dt": self.dt,
            "ref_dt": self.ref_dt,
            "x0_list": list(self.x0_list),
            "points_per_interval": self.points_per_interval,
            "orders": list(self.orders),
        }

    # -- builders ----------------------------------------------------

    def build_spec(self) -> DiffusionSpec:
        dcfg = dict(self.diffusion)
        preset = dcfg.pop("preset", None)
        if preset == "vpsde":
            from .diffusion import VpSchedule

            sched = VpSchedule(
                beta_min=float(dcfg.pop("beta_min", 0.1)),
                beta_max=float(dcfg.pop("beta_max", 20.0)),
            )
            spec = vpsde(sched, t_end=float(dcfg.pop("t_end", 1.0)))
        elif preset == "vesde":
            spec = vesde(
                float(dcfg.pop("sigma_min", 0.01)),
                float(dcfg.pop("sigma_max", 50.0)),
                t_end=float(dcfg.pop("t_end", 1.0)),
            )
        else:
            raise ConfigError(f"diffusion preset must be vpsde or vesde, got {preset!r}")
        if dcfg:
            raise ConfigError(f"unknown diffusion fields: {sorted(dcfg)}")
        return spec

    def build_gmm(self) -> GaussianMixture:
        g = self.gmm
        return GaussianMixture(
            weights=np.asarray(_require(g, "weights", "gmm"), dtype=float),
            means=np.asarray(_require(g, "means", "gmm"), dtype=float),
            stds=np.asarray(_require(g, "stds", "gmm"), dtype=float),
        )

    def build_grid(self, spec: DiffusionSpec, n: int | None = None) -> timegrid.TimeGrid:
        sched = self.schedule
        return timegrid.make_grid(
            sched["name"],
            t0=self.t0_for(spec),
            t_end=float(sched.get("t_end", spec.t_end)),
            n=int(n if n is not None else sched["n"]),
            kappa=float(sched["kappa"]) if "kappa" in sched else None,
            spec=spec,
        )

    def build_field(self, spec: DiffusionSpec) -> EpsilonField:
        return epsilon_field(self.build_gmm(), spec)


def draw_terminal_states(spec: DiffusionSpec, seed: int, n: int) -> np.ndarray:
    """n draws from the terminal law N(0, pi_std^2).

    Draw i is the first normal of the Philox stream keyed
    ``seed XOR i`` -- the same stream the stochastic simulator uses
    for trajectory i, so deterministic and stochastic batch runs see
    identical initial states.
    """
    return np.fromiter((x for x, _ in trajectory_streams(spec, seed, 0, n)), float, count=n)


@dataclass
class MetricReport:
    """Rows + summary + provenance, serializable to json or csv."""

    kind: str
    columns: tuple
    rows: list
    summary: dict
    provenance: dict
    schema: str = SCHEMA

    def to_json(self) -> str:
        doc = {
            "schema": self.schema,
            "kind": self.kind,
            "columns": list(self.columns),
            "rows": self.rows,
            "summary": self.summary,
            "provenance": self.provenance,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def to_csv(self) -> str:
        lines = [f"# schema={self.schema};kind={self.kind}"]
        lines.append(f"# config_sha256={self.provenance['config_sha256']}")
        lines.append(
            "# config="
            + json.dumps(self.provenance["config"], sort_keys=True, separators=(",", ":"))
        )
        if self.summary:
            lines.append(
                "# summary="
                + json.dumps(self.summary, sort_keys=True, separators=(",", ":"))
            )
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_csv_cell(row[col]) for col in self.columns))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ConfigError(f"unknown format {fmt!r}")

    def write(self, path, fmt: str):
        with open(path, "w") as fh:
            fh.write(self.render(fmt))


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _provenance(config: ExperimentConfig) -> dict:
    resolved = config.resolved()
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return {
        "config": resolved,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": config.seed,
        "package": "diffint",
        "version": PACKAGE_VERSION,
    }


def _sampler_kwargs(config: ExperimentConfig) -> dict:
    s = config.sampler
    return {
        "order": int(s.get("order", 0)),
        "eta": float(s.get("eta", 0.0)),
        "seed": config.seed,
    }


# -- sample ----------------------------------------------------------


def run_sample(config: ExperimentConfig) -> tuple[SolverRun, MetricReport]:
    """One sampler run; trajectory rows (step, t, rho, state..., nfe)."""
    spec = config.build_spec()
    field = config.build_field(spec)
    grid = config.build_grid(spec)
    if config.x_t is None:
        x_t = draw_terminal_states(spec, config.seed, 1)[0]
    else:
        x_t = np.asarray(config.x_t, dtype=float)
    run = run_sampler(
        config.sampler["name"], spec, field, grid, x_t, **_sampler_kwargs(config)
    )
    rho = grid.rho_values(spec)
    state_cols = (
        ("state",)
        if run.states.ndim == 1
        else tuple(f"state{k}" for k in range(run.states.shape[1]))
    )
    columns = ("step", "t", "rho") + state_cols + ("nfe",)
    rows = []
    for i in range(grid.n_steps, -1, -1):
        row = {"step": i, "t": float(grid.times[i]), "rho": float(rho[i]), "nfe": run.nfe}
        if run.states.ndim == 1:
            row["state"] = float(run.states[i])
        else:
            for k in range(run.states.shape[1]):
                row[f"state{k}"] = float(run.states[i, k])
        rows.append(row)
    summary = {"sampler": run.sampler, "order": run.order, "nfe": run.nfe,
               "notes": list(run.notes)}
    report = MetricReport(
        kind="sample", columns=columns, rows=rows, summary=summary,
        provenance=_provenance(config),
    )
    return run, report


# -- convergence -----------------------------------------------------

ERROR_FLOOR = 1e-9


def fit_order(n_values, errors, floor: float = ERROR_FLOOR):
    """Least-squares slope of log error vs log N, ignoring errors at or
    below ``floor``.  Returns (order, points_used); order is the
    negated slope (so a first-order method gives ~1)."""
    n_values = np.asarray(n_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > floor
    if mask.sum() < 2:
        return float("nan"), int(mask.sum())
    slope = np.polyfit(np.log(n_values[mask]), np.log(errors[mask]), 1)[0]
    return float(-slope), int(mask.sum())


def run_convergence(config: ExperimentConfig) -> MetricReport:
    """Terminal error vs the reference over config.n_list step counts.

    ``delta_p`` is the mean absolute per-coordinate terminal
    difference over the batch of initial states.
    """
    spec = config.build_spec()
    field = config.build_field(spec)
    x_batch = draw_terminal_states(spec, config.seed, config.batch)
    t0 = config.t0_for(spec)
    reference_self_check(spec, field, x_batch, config.ref_dt, t0)
    reference = reference_solve(spec, field, x_batch, config.ref_dt, t0).terminal
    rows = []
    for n in config.n_list:
        grid = config.build_grid(spec, n=int(n))
        run = run_sampler(
            config.sampler["name"], spec, field, grid, x_batch,
            **_sampler_kwargs(config),
        )
        gap = np.abs(run.terminal - reference)
        rows.append(
            {
                "n": int(n),
                "nfe": run.nfe,
                "delta_p": float(np.mean(gap)),
                "max_abs_error": float(np.max(gap)),
            }
        )
    order, used = fit_order([r["n"] for r in rows], [r["delta_p"] for r in rows])
    summary = {
        "order": order,
        "slope": -order if np.isfinite(order) else order,
        "points_used": used,
        "error_floor": ERROR_FLOOR,
    }
    return MetricReport(
        kind="convergence",
        columns=("n", "nfe", "delta_p", "max_abs_error"),
        rows=rows,
        summary=summary,
        provenance=_provenance(config),
    )


# -- marginal --------------------------------------------------------


def run_marginal(config: ExperimentConfig) -> MetricReport:
    """Terminal moments of the reverse-time family vs data moments.

    Standard errors: mean uses s/sqrt(n); variance uses the
    fourth-moment form sqrt((m4 - var^2)/n).  A lambda whose
    divergence rate exceeds 0.1% marks the whole report as failed.
    """
    spec = config.build_spec()
    gmm = config.build_gmm()
    field = epsilon_field(gmm, spec)
    t0 = config.t0_for(spec)
    data_mean = gmm.mean()
    data_var = gmm.variance()
    rows = []
    failed = False
    for lam in config.lambda_list:
        terminal = em_terminal_batch(
            spec, field, float(lam), config.dt, t0, config.seed, config.n_traj
        )
        good = terminal[np.isfinite(terminal)]
        divergence_rate = 1.0 - good.size / terminal.size
        mean = float(np.mean(good))
        var = float(np.var(good))
        m4 = float(np.mean((good - mean) ** 4))
        se_mean = float(np.std(good) / np.sqrt(good.size))
        se_var = float(np.sqrt(max(m4 - var**2, 0.0) / good.size))
        lam_failed = divergence_rate > 1e-3
        failed = failed or lam_failed
        rows.append(
            {
                "lambda": float(lam),
                "n_traj": int(terminal.size),
                "divergence_rate": float(divergence_rate),
                "terminal_mean": mean,
                "terminal_var": var,
                "data_mean": data_mean,
                "data_var": data_var,
                "se_mean": se_mean,
                "se_var": se_var,
                "mean_within_3se": bool(abs(mean - data_mean) <= 3 * se_mean),
                "var_within_3se": bool(abs(var - data_var) <= 3 * se_var),
                "failed": bool(lam_failed),
            }
        )
    summary = {"failed": failed, "data_mean": data_mean, "data_var": data_var}
    return MetricReport(
        kind="marginal",
        columns=(
            "lambda", "n_traj", "divergence_rate", "terminal_mean", "terminal_var",
            "data_mean", "data_var", "se_mean", "se_var", "mean_within_3se",
            "var_within_3se", "failed",
        ),
        rows=rows,
        summary=summary,
        provenance=_provenance(config),
    )


# -- trace -----------------------------------------------------------


def run_trace(config: ExperimentConfig) -> MetricReport:
    """Hold/extrapolation error of the field along a reference path.

    For each grid interval [t_{i-1}, t_i] and interior points tau:

    * ``delta_s_score``: |score(x*_tau, tau) - score(x*_{t_i}, t_i)|,
      the error of holding the raw score fixed;
    * ``delta_s_eps``: the same for the noise prediction;
    * ``delta_eps_r{r}``: |eps(x*_tau, tau) - P_r(tau)| with P_r the
      Lagrange extrapolation of node values at t_i, ..., t_{i+r'}.

    Each interval contributes its anchor node t_i (is_node = true,
    where both hold errors vanish by construction because the hold is
    re-anchored there) plus ``points_per_interval`` interior points;
    the far endpoint t_{i-1} is the next interval's anchor.
    """
    spec = config.build_spec()
    gmm = config.build_gmm()
    field = epsilon_field(gmm, spec)
    grid = config.build_grid(spec)
    times = grid.times
    n = grid.n_steps
    if config.x_t is None:
        x_t = draw_terminal_states(spec, config.seed, 1)[0]
    else:
        x_t = float(np.asarray(config.x_t, dtype=float))
    node_states = reference_states(spec, field, x_t, times, config.ref_dt)
    node_eps = np.array([field(node_states[i], times[i]) for i in range(n + 1)])
    orders = tuple(int(r) for r in config.orders)
    columns = ("interval", "t", "is_node", "delta_s_score", "delta_s_eps") + tuple(
        f"delta_eps_r{r}" for r in orders
    )
    rows = []
    for i in range(n, 0, -1):
        t_hi, t_lo = times[i], times[i - 1]
        taus = np.linspace(t_hi, t_lo, config.points_per_interval + 2)
        tau_states = reference_states(
            spec, field, node_states[i], taus[::-1], config.ref_dt
        )[::-1]
        score_hold = field.score(node_states[i], t_hi)
        eps_hold = node_eps[i]
        for k in range(taus.size - 1):
            tau = taus[k]
            state = tau_states[k]
            row = {
                "interval": i,
                "t": float(tau),
                "is_node": bool(k == 0),
                "delta_s_score": float(abs(field.score(state, tau) - score_hold)),
                "delta_s_eps": float(abs(field(state, tau) - eps_hold)),
            }
            for r in orders:
                r_i = min(r, n - i)
                nodes = times[i : i + r_i + 1]
                poly = sum(
                    lagrange_basis(nodes, j, tau) * node_eps[i + j]
                    for j in range(r_i + 1)
                )
                row[f"delta_eps_r{r}"] = float(abs(field(state, tau) - poly))
            rows.append(row)
    interior = [r for r in rows if not r["is_node"]]
    last = [r for r in interior if r["interval"] == 1]
    summary = {
        "trace_mean_delta_s_score": float(np.mean([r["delta_s_score"] for r in interior])),
        "trace_mean_delta_s_eps": float(np.mean([r["delta_s_eps"] for r in interior])),
        "final_step_mean_delta_s_score": float(
            np.mean([r["delta_s_score"] for r in last])
        ),
        "final_step_mean_delta_s_eps": float(np.mean([r["delta_s_eps"] for r in last])),
    }
    for r in orders:
        summary[f"trace_mean_delta_eps_r{r}"] = float(
            np.mean([row[f"delta_eps_r{r}"] for row in interior])
        )
    return MetricReport(
        kind="trace", columns=columns, rows=rows, summary=summary,
        provenance=_provenance(config),
    )


# -- loglik ----------------------------------------------------------

LOG2 = float(np.log(2.0))


def run_loglik(config: ExperimentConfig) -> MetricReport:
    """ODE log-likelihood vs the analytic density, in nats and bits.

    The analytic reference is the diffusion's time-0 marginal (the
    data density itself when L(0) = 0, as for the VP preset).
    """
    spec = config.build_spec()
    gmm = config.build_gmm()
    data_law = marginal_at(gmm, spec, 0.0)
    rows = []
    for x0 in config.x0_list:
        x0 = float(x0)
        ode = float(pf_loglik(gmm, spec, x0, config.dt))
        exact = float(data_law.logpdf(x0))
        gap = ode - exact
        rows.append(
            {
                "x0": x0,
                "loglik_ode_nats": ode,
                "loglik_analytic_nats": exact,
                "gap_nats": gap,
                "loglik_ode_bits": ode / LOG2,
                "loglik_analytic_bits": exact / LOG2,
                "gap_bits": gap / LOG2,
            }
        )
    summary = {"max_abs_gap_nats": float(max(abs(r["gap_nats"]) for r in rows))}
    return MetricReport(
        kind="loglik",
        columns=(
            "x0", "loglik_ode_nats", "loglik_analytic_nats", "gap_nats",
            "loglik_ode_bits", "loglik_analytic_bits", "gap_bits",
        ),
        rows=rows,
        summary=summary,
        provenance=_provenance(config),
    )


# -- weight cache ----------------------------------------------------


def cache_weights(config: ExperimentConfig, path) -> str:
    """Build the weight table for (diffusion, schedule, order) and write
    it as JSON; the document round-trips bit-exactly."""
    spec = config.build_spec()
    grid = config.build_grid(spec)
    table = tab_weights(spec, grid, int(config.sampler.get("order", 0)))
    table.save(path)
    return str(path)


def run_experiment(config: ExperimentConfig) -> MetricReport:
    if config.kind == "sample":
        return run_sample(config)[1]
    if config.kind == "convergence":
        return run_convergence(config)
    if config.kind == "marginal":
        return run_marginal(config)
    if config.kind == "trace":
        return run_trace(config)
    if config.kind == "loglik":
        return run_loglik(config)
    raise ConfigError(f"unknown experiment kind {config.kind!r}")
