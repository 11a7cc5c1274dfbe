"""Experiment orchestration: configs, runners, machine-readable reports.

An experiment is described by a single JSON document (see
:class:`ExperimentConfig`); CLI flags ``--seed``, ``--out`` and
``--format`` override the corresponding config fields, and everything
else comes from the file.  Reports embed the fully resolved config and
a hash of it, so re-running from an embedded config reproduces the
report byte for byte; the resolved config leaves out an ``order``,
``eta`` or ``kappa`` that the named sampler or schedule does not read.

Experiment kinds, each a key of the runner registry ``_RUNNERS`` from
which :data:`KINDS`, :func:`run_experiment` and the CLI subcommands
derive:

* ``sample``       one sampler run; rows are trajectory nodes.
* ``convergence``  terminal error against the reference solver over a
                   list of step counts, with a fitted log-log slope.
* ``study``        convergence over lists of samplers and schedules
                   that share one batch and one reference solve; rows
                   per (sampler, schedule, step count), and a fitted
                   order per (sampler, schedule).
* ``marginal``     Monte-Carlo check that the terminal law of the
                   reverse-time family matches the data moments for
                   each requested noise level lambda.
* ``trace``        hold/extrapolation error of the field along a
                   reference trajectory (score vs noise-prediction
                   parameterization, and polynomial orders 0..3).
* ``loglik``       ODE log-likelihood against the analytic mixture
                   density.

Every runner returns its report through one builder (``_report``),
which takes the kind and the provenance from the config and the columns
from the keys of the first row, in order, so a key added to a row is a
column of both formats.  Report formats: ``json`` (canonical, sorted
keys) and ``csv`` (schema string in the row-1 comment, resolved config
embedded in a comment).
"""

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from numbers import Real
from typing import Any, Optional

import numpy as np

from . import timegrid
from .diffusion import DiffusionSpec, vesde, vpsde
from .errors import ConfigError, DivergenceError
from .oracle import (
    EpsilonField,
    GaussianMixture,
    draw_terminal_states,
    fixed_step_times,
    marginal_at,
    pf_loglik,
    reference_self_check,
    reference_solve,
    reference_states,
)
from .samplers import (_SAMPLERS, SAMPLER_NAMES, SolverRun, _check_lam, check_sampler_args,
                       em_terminal_batch, run_sampler)
from .weights import lagrange_basis

SCHEMA = "diffint-report-v2"
PACKAGE_VERSION = "0.1.0"

# sampling stops short of t = 0; preset-specific floors
_DEFAULT_T0 = {"vpsde": 1e-3, "vesde": 1e-5}


def _number(value, name: str) -> float:
    """float(value), for a JSON number: float() would also take a
    boolean or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """int(value), for a JSON number that is a whole number: int() would
    also truncate 10.5 to 10 and take a boolean or a numeric string."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _numbers(value, name: str) -> np.ndarray:
    """A number or a list of numbers (each by :func:`_number`), as an
    array; numpy's own conversion would also read null as nan."""
    return np.array([_number(v, f"{name} entry") for v in
                     (value if isinstance(value, (list, tuple)) else [value])])


# the keys each config object may hold (each element, for a study's lists)
_OBJECT_KEYS = {
    "sampler": ("name", "order", "eta"),
    "schedule": ("name", "n", "t0", "t_end", "kappa"),
    "gmm": ("weights", "means", "stds"),
}


@contextmanager
def _config_errors():
    """Turn a value that fails to convert or to pass a range check
    (ParameterError included), or a size too large to allocate, into a
    ConfigError, the exit-2 error."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, ArithmeticError, MemoryError) as exc:
        raise ConfigError(str(exc)) from exc


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing required field {key!r} in {context}")
    return mapping[key]


@dataclass
class ExperimentConfig:
    """Validated, fully resolved experiment description.

    The fields are the config format's one declaration: loading rejects
    any other key, requires the fields without a default, and converts
    each value whose annotation is int (a whole number, by
    :func:`_integer`), float (a number, by :func:`_number`), tuple (from
    a JSON array) or dict (from a JSON object); ``kind``, ``out``,
    ``format`` and ``x_t`` are kept as given and checked by
    :meth:`validate`, which also rejects any key of a sampler, schedule
    or gmm object outside ``_OBJECT_KEYS``.  A study's ``sampler`` and
    ``schedule`` are instead non-empty arrays of the objects a
    convergence config takes, held as tuples of dicts.
    """

    kind: str
    diffusion: dict
    gmm: dict
    schedule: dict
    sampler: dict = dataclasses.field(default_factory=lambda: {"name": "ddim"})
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
        declared = fields(cls)
        unknown = set(raw) - {f.name for f in declared}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kind = _require(raw, "kind", "config")
        if kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
        with _config_errors():
            cfg = cls(**{f.name: _convert(f, kind, raw) for f in declared})
        cfg.validate()
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
        except RecursionError as exc:
            raise ConfigError("config JSON is nested too deeply") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
        return cls.from_json(text)

    def validate(self):
        """Raise :class:`ConfigError` unless every value the runners use
        converts and lies in range; the checks are the runners' own."""
        with _config_errors():
            if self.kind == "study":
                self._validate_study()
            else:
                self._validate()

    def _validate(self):
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.out is not None and (not isinstance(self.out, str) or "\0" in self.out):
            raise ConfigError(f"out must be a file path, got {self.out!r}")
        for obj, keys in _OBJECT_KEYS.items():
            unknown = set(getattr(self, obj)) - set(keys)
            if unknown:
                raise ConfigError(f"unknown {obj} fields: {sorted(unknown)}")
        # the seed is the first key word of every random stream
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        name = self.sampler.get("name")
        if name not in SAMPLER_NAMES:
            raise ConfigError(f"sampler name must be one of {SAMPLER_NAMES}, got {name!r}")
        sched = self.schedule
        sname = _require(sched, "name", "schedule")
        if sname not in timegrid.SCHEDULE_NAMES:
            raise ConfigError(
                f"schedule name must be one of {timegrid.SCHEDULE_NAMES}, got {sname!r}"
            )
        _require(sched, "n", "schedule")
        # every value a runner converts must convert here
        kwargs = _sampler_kwargs(self)
        check_sampler_args(name, kwargs["order"], kwargs["eta"])
        orders = [_integer(v, "an orders entry") for v in self.orders]
        if min(orders, default=0) < 0 or len(set(orders)) != len(orders):
            raise ConfigError(f"orders must be distinct and >= 0: {list(self.orders)}")
        for lam in self.lambda_list:
            _check_lam(_number(lam, "a lambda_list entry"))
        if isinstance(self.x_t, list) and (self.kind == "trace" or not self.x_t):
            raise ConfigError("x_t must be a finite number or, but for trace, a non-empty "
                              f"list of them, got {self.x_t!r}")
        x_t = _numbers([] if self.x_t is None else self.x_t, "an x_t")
        x0s = _numbers(self.x0_list, "an x0_list")
        if not (np.isfinite(x_t).all() and np.isfinite(x0s).all()):
            raise ConfigError(f"x_t and the x0_list entries must be finite, got "
                              f"{self.x_t!r} and {list(self.x0_list)}")
        if self.batch < 1 or self.n_traj < 1 or self.points_per_interval < 0:
            raise ConfigError("batch and n_traj must be >= 1, points_per_interval >= 0")
        if min((_integer(v, "an n_list entry") for v in self.n_list), default=1) < 1:
            raise ConfigError(f"n_list entries must be >= 1: {list(self.n_list)}")
        if self.kind == "convergence":
            if not self.n_list:
                raise ConfigError("convergence experiments need a nonempty n_list")
            if len(set(self.n_list)) != len(self.n_list):
                raise ConfigError(f"n_list entries must be distinct: {list(self.n_list)}")
        if self.kind == "marginal" and not self.lambda_list:
            raise ConfigError("marginal experiments need a nonempty lambda_list")
        if self.kind == "loglik" and not self.x0_list:
            raise ConfigError("loglik experiments need a nonempty x0_list")
        spec = self.build_spec()
        if not np.isfinite(self.build_gmm().variance()):
            raise ConfigError("the mixture's variance must be finite")
        self.build_grid(spec)
        # the runners' step counts and array sizes, built here so that a
        # step outside (0, 1e-3] or a size too large to allocate exits 2;
        # the EM steps from t0 are no more than the likelihood steps from 0
        fixed_step_times(spec.t_end, self.t0_for(spec), self.ref_dt)
        fixed_step_times(spec.t_end, 0.0, self.dt)
        for size in (self.batch, self.n_traj, self.points_per_interval + 2):
            np.empty(size)
        if self.kind == "convergence":
            # the reference starts at the diffusion's t_end, so must every grid
            if _number(sched.get("t_end", spec.t_end), "schedule t_end") != spec.t_end:
                raise ConfigError(
                    f"schedule t_end {sched['t_end']!r} differs from the diffusion's "
                    f"t_end {spec.t_end!r}"
                )
            for n in self.n_list:
                self.build_grid(spec, n=n)

    def _validate_study(self):
        cases = self._cases()
        for case in cases:
            case._validate()
        spec = self.build_spec()
        if len({case.t0_for(spec) for case in cases}) > 1:
            raise ConfigError("the schedules of a study must share one t0")
        labels = [tuple(_case_labels(case).values()) for case in cases]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"study samplers and schedules must be distinct: {labels}")

    def _cases(self) -> list:
        """A study's (sampler, schedule) pairs in row order, each as the
        convergence config it runs."""
        return [
            replace(self, kind="convergence", sampler=sampler, schedule=schedule)
            for sampler in self.sampler
            for schedule in self.schedule
        ]

    def _objects(self, kind: str) -> tuple:
        """The ``kind`` ("sampler" or "schedule") objects: a study's list,
        or else the one."""
        return getattr(self, kind) if self.kind == "study" else (getattr(self, kind),)

    def t0_for(self, spec: DiffusionSpec) -> float:
        """Schedule t0, defaulting per preset (1e-3 VP, 1e-5 VE); the
        schedules of a study share theirs."""
        return _full_schedule(self._objects("schedule")[0], spec)["t0"]

    def resolved(self) -> dict:
        """The complete config as a plain dict (what reports embed).

        Schedule defaults (t0, t_end) are filled in, and the output
        path and every ignored ``order``, ``eta`` or ``kappa``
        (:func:`_read_keys`) are omitted: they are not experiment
        identity, so the same experiment written to two different files,
        or given an argument it does not read, produces identical bytes.
        """
        spec = self.build_spec()
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}
        doc = {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}
        samplers = [_read_keys(s, "sampler") for s in self._objects("sampler")]
        schedules = [_full_schedule(_read_keys(s, "schedule"), spec)
                     for s in self._objects("schedule")]
        doc["sampler"] = samplers if self.kind == "study" else samplers[0]
        doc["schedule"] = schedules if self.kind == "study" else schedules[0]
        return doc

    # -- builders ----------------------------------------------------

    def build_spec(self) -> DiffusionSpec:
        dcfg = dict(self.diffusion)
        preset = dcfg.pop("preset", None)

        def number(key, default):
            return _number(dcfg.pop(key, default), f"diffusion {key}")

        if preset == "vpsde":
            from .diffusion import VpSchedule

            sched = VpSchedule(
                beta_min=number("beta_min", 0.1),
                beta_max=number("beta_max", 20.0),
            )
            spec = vpsde(sched, t_end=number("t_end", 1.0))
        elif preset == "vesde":
            spec = vesde(
                number("sigma_min", 0.01),
                number("sigma_max", 50.0),
                t_end=number("t_end", 1.0),
            )
        else:
            raise ConfigError(f"diffusion preset must be vpsde or vesde, got {preset!r}")
        if dcfg:
            raise ConfigError(f"unknown diffusion fields: {sorted(dcfg)}")
        return spec

    def build_gmm(self) -> GaussianMixture:
        g = self.gmm
        return GaussianMixture(
            weights=_numbers(_require(g, "weights", "gmm"), "a gmm weights"),
            means=_numbers(_require(g, "means", "gmm"), "a gmm means"),
            stds=_numbers(_require(g, "stds", "gmm"), "a gmm stds"),
        )

    def build_grid(self, spec: DiffusionSpec, n: int | None = None) -> timegrid.TimeGrid:
        sched = self.schedule
        return timegrid.make_grid(
            sched["name"],
            t0=self.t0_for(spec),
            t_end=_number(sched.get("t_end", spec.t_end), "schedule t_end"),
            n=_integer(n if n is not None else sched["n"], "schedule n"),
            kappa=_number(sched["kappa"], "schedule kappa") if "kappa" in sched else None,
            spec=spec,
        )

    def build_field(self, spec: DiffusionSpec) -> EpsilonField:
        return EpsilonField(self.build_gmm(), spec)


def _convert(f, kind: str, raw: dict):
    """Field ``f``'s value in ``raw`` (or its default), converted."""
    if f.name in raw:
        value = raw[f.name]
    elif f.default is not MISSING:
        value = f.default
    elif f.default_factory is not MISSING:
        value = f.default_factory()
    else:
        raise ConfigError(f"missing required field {f.name!r} in config")
    if kind == "study" and f.name in ("sampler", "schedule"):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"study experiments need a nonempty {f.name} list")
        if not all(isinstance(v, dict) for v in value):
            raise ConfigError(f"each study {f.name} must be an object, got {value!r}")
        return tuple(dict(v) for v in value)
    if f.type is int:
        return _integer(value, f.name)
    if f.type is float:
        return _number(value, f.name)
    if f.type in (tuple, dict):
        if not isinstance(value, (list, tuple) if f.type is tuple else dict):
            kind_of = "an array" if f.type is tuple else "an object"
            raise ConfigError(f"{f.name} must be {kind_of}, got {value!r}")
        return f.type(value)
    return value


def _read_keys(obj: dict, kind: str) -> dict:
    """The ``kind`` ("sampler" or "schedule") object ``obj`` less the
    optional keys (``order``, ``eta``, ``kappa``) that its named sampler
    or schedule does not read."""
    name = obj["name"]
    reads = (_SAMPLERS[name][1] if kind == "sampler"
             else ("kappa",) if name in timegrid.KAPPA_SCHEDULES else ())
    return {k: v for k, v in obj.items() if k not in ("order", "eta", "kappa") or k in reads}


def _full_schedule(schedule: dict, spec: DiffusionSpec) -> dict:
    """The schedule with t0 (default per preset) and t_end filled in."""
    t0 = _number(schedule.get("t0", _DEFAULT_T0[spec.name]), "schedule t0")
    return {"t_end": spec.t_end, **schedule, "t0": t0}


@dataclass
class MetricReport:
    """Rows + summary + provenance, serializable to json or csv."""

    kind: str
    columns: tuple
    rows: list
    summary: dict
    provenance: dict

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA,
            "kind": self.kind,
            "columns": list(self.columns),
            "rows": self.rows,
            "summary": self.summary,
            "provenance": self.provenance,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def to_csv(self) -> str:
        lines = [f"# schema={SCHEMA};kind={self.kind}"]
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


def _report(config: ExperimentConfig, rows: list, summary: dict) -> MetricReport:
    """The report of every runner: config's kind and provenance, and the
    rows, whose columns are the keys of the first row, in order (every
    validated config gives at least one row)."""
    return MetricReport(kind=config.kind, columns=tuple(rows[0]), rows=rows,
                        summary=summary, provenance=_provenance(config))


def _sampler_kwargs(config: ExperimentConfig) -> dict:
    s = config.sampler
    return {
        "order": _integer(s.get("order", 0), "sampler order"),
        "eta": _number(s.get("eta", 0.0), "sampler eta"),
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
    rows = []
    for i in range(grid.n_steps, -1, -1):
        row = {"step": i, "t": float(grid.times[i]), "rho": float(rho[i])}
        if run.states.ndim == 1:
            row["state"] = float(run.states[i])
        else:
            for k in range(run.states.shape[1]):
                row[f"state{k}"] = float(run.states[i, k])
        row["nfe"] = run.nfe
        rows.append(row)
    summary = {"sampler": run.sampler, "order": run.order, "nfe": run.nfe,
               "notes": list(run.notes)}
    return run, _report(config, rows, summary)


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


def _reference_batch(config: ExperimentConfig, spec: DiffusionSpec, field):
    """The batch of initial states and its trusted reference terminal
    states: one draw, one reference solve at ref_dt and one self-check,
    which reuses that solve as its coarse one and solves only at
    ref_dt / 2."""
    x_batch = draw_terminal_states(spec, config.seed, config.batch)
    t0 = config.t0_for(spec)
    reference = reference_solve(spec, field, x_batch, config.ref_dt, t0).terminal
    reference_self_check(spec, field, x_batch, config.ref_dt, t0, coarse=reference)
    return x_batch, reference


def _convergence_case(config: ExperimentConfig, spec, field, x_batch, reference):
    """Rows (n, nfe, delta_p, max_abs_error) of config's sampler and
    schedule over config.n_list, and the fitted order."""
    rows = []
    for n in config.n_list:
        grid = config.build_grid(spec, n=n)
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
    fit = {
        "order": order,
        "slope": -order if np.isfinite(order) else order,
        "points_used": used,
    }
    return rows, fit


def run_convergence(config: ExperimentConfig) -> MetricReport:
    """Terminal error vs the reference over config.n_list step counts.

    ``delta_p`` is the mean absolute per-coordinate terminal
    difference over the batch of initial states.
    """
    spec = config.build_spec()
    field = config.build_field(spec)
    rows, fit = _convergence_case(config, spec, field, *_reference_batch(config, spec, field))
    return _report(config, rows, {**fit, "error_floor": ERROR_FLOOR})


def _case_labels(case: ExperimentConfig) -> dict:
    """A study case's sampler and schedule named by their converted
    parameters, without commas: e.g. ``tab(order=2)``, ``power_t(kappa=3.0)``;
    each shows only the given arguments it reads (:func:`_read_keys`), so
    one that differs only in an ignored argument is a repeated case."""
    kwargs = _sampler_kwargs(case)
    sampler = [f"{k}={kwargs[k]}" for k in _read_keys(case.sampler, "sampler") if k != "name"]
    kappa = "kappa" in _read_keys(case.schedule, "schedule")
    schedule = [f"kappa={float(case.schedule['kappa'])}"] if kappa else []
    return {
        "sampler": case.sampler["name"] + (f"({' '.join(sampler)})" if sampler else ""),
        "schedule": case.schedule["name"] + (f"({' '.join(schedule)})" if schedule else ""),
    }


def run_study(config: ExperimentConfig) -> MetricReport:
    """Convergence of every (sampler, schedule) pair of a study on one
    batch and one reference: each pair's rows and fitted order are those
    of the convergence config with that sampler and schedule."""
    spec = config.build_spec()
    field = config.build_field(spec)
    cases = config._cases()
    x_batch, reference = _reference_batch(config, spec, field)
    rows, fits = [], []
    for case in cases:
        labels = _case_labels(case)
        case_rows, fit = _convergence_case(case, spec, field, x_batch, reference)
        rows += [{**labels, **row} for row in case_rows]
        fits.append({**labels, **fit})
    return _report(config, rows, {"fits": fits, "error_floor": ERROR_FLOOR})


# -- marginal --------------------------------------------------------


def run_marginal(config: ExperimentConfig) -> MetricReport:
    """Terminal moments of the reverse-time family vs data moments.

    Standard errors: mean uses s/sqrt(n); variance uses the
    fourth-moment form sqrt((m4 - var^2)/n).  A lambda whose
    divergence rate exceeds 0.1% marks the whole report as failed; one
    whose every trajectory diverges fails the experiment with
    :class:`DivergenceError`.
    """
    spec = config.build_spec()
    gmm = config.build_gmm()
    field = EpsilonField(gmm, spec)
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
        if good.size == 0:
            raise DivergenceError(f"every EM trajectory diverged at lambda={float(lam)}")
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
    return _report(config, rows, summary)


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
    field = EpsilonField(gmm, spec)
    grid = config.build_grid(spec)
    times = grid.times
    n = grid.n_steps
    if config.x_t is None:
        x_t = draw_terminal_states(spec, config.seed, 1)[0]
    else:
        x_t = float(config.x_t)
    node_states = reference_states(spec, field, x_t, times, config.ref_dt)
    node_eps = np.array([field(node_states[i], times[i]) for i in range(n + 1)])
    orders = tuple(_integer(r, "an orders entry") for r in config.orders)
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
            eps = field(state, tau)
            row = {
                "interval": i,
                "t": float(tau),
                "is_node": bool(k == 0),
                "delta_s_score": float(abs(field.score(state, tau) - score_hold)),
                "delta_s_eps": float(abs(eps - eps_hold)),
            }
            for r in orders:
                r_i = min(r, n - i)
                nodes = times[i : i + r_i + 1]
                poly = sum(
                    lagrange_basis(nodes, j, tau) * node_eps[i + j]
                    for j in range(r_i + 1)
                )
                row[f"delta_eps_r{r}"] = float(abs(eps - poly))
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
    return _report(config, rows, summary)


# -- loglik ----------------------------------------------------------

LOG2 = float(np.log(2.0))


def run_loglik(config: ExperimentConfig) -> MetricReport:
    """ODE log-likelihood vs the analytic density, in nats and bits.

    The analytic reference is the diffusion's time-0 marginal (the
    data density itself when L(0) = 0, as for the VP preset).  All
    points of ``x0_list`` are integrated together in one
    :func:`pf_loglik` call, so one point whose solve turns non-finite
    fails the whole experiment with :class:`DivergenceError`.
    """
    spec = config.build_spec()
    gmm = config.build_gmm()
    data_law = marginal_at(gmm, spec, 0.0)
    x0s = np.array([float(x0) for x0 in config.x0_list])
    odes = pf_loglik(gmm, spec, x0s, config.dt)
    exacts = data_law.logpdf(x0s)
    rows = []
    for x0, ode, exact in zip(x0s.tolist(), odes.tolist(), exacts.tolist()):
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
    return _report(config, rows, summary)


_RUNNERS = {
    "sample": lambda config: run_sample(config)[1],
    "convergence": run_convergence,
    "study": run_study,
    "marginal": run_marginal,
    "trace": run_trace,
    "loglik": run_loglik,
}
KINDS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> MetricReport:
    """Run the experiment of config's kind and return its report."""
    return _RUNNERS[config.kind](config)
