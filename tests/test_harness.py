import functools
import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffint import ConfigError, WeightTable, epsilon_field, euler_sample, harness
from diffint.cli import main
from diffint.harness import (
    KINDS,
    ExperimentConfig,
    draw_terminal_states,
    run_convergence,
    run_experiment,
    run_loglik,
    run_marginal,
    run_sample,
    run_trace,
)
from diffint.oracle import EpsilonField, em_terminal_batch
from diffint.timegrid import TimeGrid


def base_config(**overrides):
    raw = {
        "kind": "sample",
        "diffusion": {"preset": "vpsde", "beta_min": 0.1, "beta_max": 20.0, "t_end": 1.0},
        "gmm": {"weights": [1.0], "means": [0.5], "stds": [0.25]},
        "sampler": {"name": "ddim"},
        "schedule": {"name": "quadratic", "t0": 1e-3, "n": 10},
        "seed": 0,
    }
    raw.update(overrides)
    return raw


# -- config validation -------------------------------------------------


def test_config_rejects_bad_json():
    with pytest.raises(ConfigError, match="line"):
        ExperimentConfig.from_json("{\n  'kind': sample\n}")


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict(base_config(extra_field=1))


def test_config_rejects_unknown_sampler():
    with pytest.raises(ConfigError, match="sampler name"):
        ExperimentConfig.from_dict(base_config(sampler={"name": "magic"}))


def test_config_rejects_duplicate_n_list():
    raw = base_config(kind="convergence", n_list=[10, 20, 10])
    with pytest.raises(ConfigError, match="distinct"):
        ExperimentConfig.from_dict(raw)


def test_config_rejects_bad_gmm():
    raw = base_config(gmm={"weights": [0.5, 0.6], "means": [0, 1], "stds": [1, 1]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_config_rejects_unknown_schedule():
    raw = base_config(schedule={"name": "fancy", "t0": 1e-3, "n": 10})
    with pytest.raises(ConfigError, match="schedule name"):
        ExperimentConfig.from_dict(raw)


def test_config_default_t0_per_preset():
    cfg = ExperimentConfig.from_dict(base_config(schedule={"name": "uniform", "n": 5}))
    assert cfg.resolved()["schedule"]["t0"] == 1e-3
    ve_raw = base_config(
        diffusion={"preset": "vesde", "sigma_min": 0.01, "sigma_max": 50.0},
        schedule={"name": "uniform", "n": 5},
    )
    cfg = ExperimentConfig.from_dict(ve_raw)
    assert cfg.resolved()["schedule"]["t0"] == 1e-5
    _, report = run_sample(cfg)
    assert report.rows[-1]["t"] == 1e-5


# -- sample -------------------------------------------------------------


def test_sample_single_step_has_two_rows():
    cfg = ExperimentConfig.from_dict(
        base_config(schedule={"name": "quadratic", "t0": 1e-3, "n": 1}, x_t=1.0)
    )
    run, report = run_sample(cfg)
    assert len(report.rows) == 2
    assert report.rows[0]["step"] == 1
    assert report.rows[-1]["step"] == 0


def test_sample_csv_byte_identical_across_runs():
    cfg = ExperimentConfig.from_dict(base_config(seed=5))
    first = run_sample(cfg)[1].to_csv()
    second = run_sample(ExperimentConfig.from_dict(base_config(seed=5)))[1].to_csv()
    assert first == second
    assert first.splitlines()[0].startswith("# schema=diffint-report-v2")


def test_sample_nfe_column_matches_cost():
    cfg = ExperimentConfig.from_dict(
        base_config(sampler={"name": "rho_rk4"}, x_t=0.7)
    )
    run, report = run_sample(cfg)
    assert run.nfe == 40
    assert all(row["nfe"] == 40 for row in report.rows)


def test_sample_vector_state_columns():
    cfg = ExperimentConfig.from_dict(base_config(x_t=[1.0, -0.5]))
    _, report = run_sample(cfg)
    assert report.columns == ("step", "t", "rho", "state0", "state1", "nfe")
    assert report.rows[0]["state0"] == 1.0
    assert report.rows[0]["state1"] == -0.5


def test_sample_seed_changes_drawn_initial_state():
    a = run_sample(ExperimentConfig.from_dict(base_config(seed=0)))[1]
    b = run_sample(ExperimentConfig.from_dict(base_config(seed=1)))[1]
    assert a.rows[0]["state"] != b.rows[0]["state"]


# -- convergence ----------------------------------------------------------


def test_convergence_euler_first_order():
    cfg = ExperimentConfig.from_dict(
        base_config(
            kind="convergence",
            sampler={"name": "euler"},
            schedule={"name": "uniform", "t0": 1e-3, "n": 10},
            n_list=[10, 20, 40],
            batch=16,
        )
    )
    report = run_convergence(cfg)
    assert len(report.rows) == 3
    assert 0.7 <= report.summary["order"] <= 1.3


def test_report_reproducible_from_embedded_config():
    cfg = ExperimentConfig.from_dict(
        base_config(
            kind="convergence",
            sampler={"name": "ddim"},
            schedule={"name": "uniform", "t0": 1e-3, "n": 10},
            n_list=[10, 20],
            batch=8,
        )
    )
    report = run_experiment(cfg)
    rerun = run_experiment(ExperimentConfig.from_dict(report.provenance["config"]))
    assert rerun.to_json() == report.to_json()
    assert rerun.to_csv() == report.to_csv()


# -- marginal ---------------------------------------------------------------


def test_marginal_lambda_zero_matches_euler_batch(vp, gauss_oracle):
    _, field = gauss_oracle
    dt, t0, n_traj, seed = 1e-3, 1e-3, 64, 0
    terminal = em_terminal_batch(vp, field, 0.0, dt, t0, seed, n_traj)
    n = int(round((vp.t_end - t0) / dt))
    grid = TimeGrid(np.linspace(vp.t_end, t0, n + 1)[::-1].copy())
    x_batch = draw_terminal_states(vp, seed, n_traj)
    euler = euler_sample(vp, field, grid, x_batch).terminal
    assert np.max(np.abs(terminal - euler)) < 1e-12


def test_marginal_report_shape_and_se_scaling():
    cfg = ExperimentConfig.from_dict(
        base_config(
            kind="marginal",
            gmm={"weights": [1.0], "means": [0.0], "stds": [1.0]},
            schedule={"name": "uniform", "t0": 1e-3, "n": 10},
            lambda_list=[0.0, 1.0],
            n_traj=4000,
        )
    )
    report = run_marginal(cfg)
    assert [row["lambda"] for row in report.rows] == [0.0, 1.0]
    assert not report.summary["failed"]
    for row in report.rows:
        assert row["divergence_rate"] == 0.0
        assert row["mean_within_3se"] and row["var_within_3se"]
    big = run_marginal(
        ExperimentConfig.from_dict(
            base_config(
                kind="marginal",
                gmm={"weights": [1.0], "means": [0.0], "stds": [1.0]},
                schedule={"name": "uniform", "t0": 1e-3, "n": 10},
                lambda_list=[1.0],
                n_traj=8000,
            )
        )
    )
    ratio = report.rows[1]["se_mean"] / big.rows[0]["se_mean"]
    assert 1.2 <= ratio <= 1.7  # doubling n shrinks SE by about sqrt(2)


def test_marginal_flags_divergent_runs(monkeypatch):
    import diffint.harness as harness_mod

    def diverging_batch(spec, field, lam, dt, t0, seed, n_traj):
        out = np.zeros(n_traj)
        out[: max(1, n_traj // 100)] = np.nan  # 1% lost trajectories
        return out

    monkeypatch.setattr(harness_mod, "em_terminal_batch", diverging_batch)
    cfg = ExperimentConfig.from_dict(
        base_config(
            kind="marginal",
            gmm={"weights": [1.0], "means": [0.0], "stds": [1.0]},
            schedule={"name": "uniform", "t0": 1e-3, "n": 10},
            lambda_list=[1.0],
            n_traj=1000,
        )
    )
    report = run_marginal(cfg)
    assert report.summary["failed"]
    assert report.rows[0]["failed"]
    assert report.rows[0]["divergence_rate"] > 1e-3


# -- trace --------------------------------------------------------------------


def test_trace_metrics():
    cfg = ExperimentConfig.from_dict(
        base_config(
            kind="trace",
            gmm={"weights": [1.0], "means": [0.0], "stds": [0.1]},
            schedule={"name": "quadratic", "t0": 1e-3, "n": 10},
            x_t=1.2,
            points_per_interval=8,
        )
    )
    report = run_trace(cfg)
    assert len(report.rows) == 10 * 9  # 10 intervals x (anchor + 8 interior)
    node_rows = [row for row in report.rows if row["is_node"]]
    assert len(node_rows) == 10
    for row in node_rows:
        assert row["delta_s_score"] == 0.0
        assert row["delta_s_eps"] == 0.0
    assert (
        report.summary["trace_mean_delta_eps_r2"]
        <= report.summary["trace_mean_delta_eps_r0"]
    )
    assert (
        report.summary["final_step_mean_delta_s_eps"]
        < report.summary["final_step_mean_delta_s_score"]
    )


def test_trace_evaluates_the_field_once_per_point(monkeypatch):
    calls = []
    monkeypatch.setattr(EpsilonField, "__call__",
                        _counted(calls, "field", EpsilonField.__call__))
    counts = []
    for orders in ([0], [0, 1, 2, 3]):
        calls.clear()
        run_trace(ExperimentConfig.from_dict(base_config(
            kind="trace", x_t=1.2, points_per_interval=2, orders=orders)))
        counts.append(len(calls))
    assert counts[0] == counts[1]


# -- loglik --------------------------------------------------------------------


def test_loglik_rows_and_units():
    x0s = list(np.linspace(-1.5, 1.5, 10))
    cfg = ExperimentConfig.from_dict(
        base_config(
            kind="loglik",
            gmm={"weights": [1.0], "means": [0.0], "stds": [1.0]},
            x0_list=x0s,
        )
    )
    report = run_loglik(cfg)
    assert len(report.rows) == 10
    for row in report.rows:
        assert abs(row["gap_nats"]) < 1e-3
        assert row["gap_bits"] == pytest.approx(row["gap_nats"] / np.log(2))
    mode = run_loglik(
        ExperimentConfig.from_dict(
            base_config(
                kind="loglik",
                gmm={"weights": [1.0], "means": [0.0], "stds": [1.0]},
                x0_list=[0.0],
            )
        )
    )
    assert abs(mode.rows[0]["loglik_ode_nats"] + 0.5 * np.log(2 * np.pi)) < 1e-3


# -- CLI ------------------------------------------------------------------------


def _write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_cli_sample_writes_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    cfg = _write_config(tmp_path, base_config(x_t=1.0))
    code = main(["sample", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("# schema=")
    assert "step,t,rho,state,nfe" in text


def test_cli_json_format(tmp_path):
    out = tmp_path / "report.json"
    cfg = _write_config(tmp_path, base_config(x_t=1.0))
    assert main(["sample", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "diffint-report-v2"
    assert doc["provenance"]["config"]["x_t"] == 1.0


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, base_config(sampler={"name": "bogus"}))
    assert main(["sample", "--config", str(cfg)]) == 2
    assert main(["sample", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"kind": "trace", "x_t": [1, 2]},
        {"batch": "x"},
        {"seed": "z"},
        {"kind": "convergence", "n_list": [10, "a"]},
        {"schedule": {"name": "quadratic", "t0": 1e-3, "n": "ten"}},
        {"kind": "loglik", "x0_list": ["a"]},
        {"sampler": {"name": "tab", "order": "two"}},
        {"sampler": {"name": "sddim", "eta": "x"}},
        {"kind": "convergence", "n_list": [10, 20], "batch": -1},
        {"kind": "marginal", "n_traj": 0},
        {"kind": "trace", "x_t": 1.0, "points_per_interval": -3},
        {"sampler": {"name": "tab", "order": 5}},
        {"sampler": {"name": "rho_ab", "order": -1}},
        {"sampler": {"name": "ipndm", "order": 9}},
        {"sampler": {"name": "sddim", "eta": 1.5}},
        {"schedule": {"name": "power_t", "n": 10, "kappa": "x"}},
        {"schedule": {"name": "quadratic", "n": 10, "t_end": "x"}},
        {"schedule": {"name": "quadratic", "n": 10, "t0": 2.0}},
        {"seed": -1},
        # the seed is one 64-bit key word
        {"seed": 2**64},
        {"seed": 2**100},
        {"batch": float("inf")},
        {"out": 1},
        {"kind": "convergence", "n_list": [0, 10]},
        # a grid no address space holds: MemoryError whatever the overcommit policy
        {"schedule": {"name": "quadratic", "n": 1e18}},
        # steps and sizes the runners build, checked when the config loads
        {"kind": "convergence", "n_list": [2, 4], "ref_dt": 0},
        {"kind": "marginal", "dt": 0},
        {"kind": "marginal", "dt": float("nan")},
        {"kind": "convergence", "n_list": [2, 4], "ref_dt": -1e-3},
        {"kind": "marginal", "lambda_list": [-1]},
        {"kind": "marginal", "lambda_list": [float("inf")]},
        {"kind": "marginal", "dt": 0.5},
        {"kind": "trace", "x_t": 1.0, "ref_dt": 0.5},
        {"kind": "convergence", "n_list": [2, 4], "ref_dt": 0.01},
        {"kind": "loglik", "x0_list": [0.0], "dt": 0.01},
        {"kind": "loglik", "x0_list": [0.0], "dt": 1e-300},
        {"kind": "trace", "x_t": 1.0, "ref_dt": 1e-300},
        {"kind": "convergence", "n_list": [2, 4], "batch": 2**64},
        {"kind": "marginal", "n_traj": 2**64},
        {"kind": "trace", "x_t": 1.0, "points_per_interval": 2**64},
        {"kind": "convergence", "n_list": [2, 1e18]},
        # the reference starts at the diffusion's t_end
        {"kind": "convergence", "n_list": [2, 4],
         "schedule": {"name": "uniform", "t0": 1e-3, "n": 10, "t_end": 0.5}},
        {"kind": "study", "n_list": [2, 4], "sampler": [{"name": "ddim"}],
         "schedule": [{"name": "uniform", "t0": 1e-3, "n": 10, "t_end": 0.5}]},
        # a study takes non-empty lists of distinct samplers and of schedules with one t0
        {"kind": "study", "n_list": [2, 4]},
        {"kind": "study", "n_list": [2, 4], "sampler": [],
         "schedule": [{"name": "uniform", "n": 10}]},
        {"kind": "study", "n_list": [2, 4], "sampler": [{"name": "ddim"}, {"name": "ddim"}],
         "schedule": [{"name": "uniform", "n": 10}]},
        {"kind": "study", "n_list": [2, 4], "sampler": [{"name": "ddim"}],
         "schedule": [{"name": "uniform", "t0": 1e-3, "n": 10},
                      {"name": "quadratic", "t0": 1e-2, "n": 10}]},
        {"kind": "study", "n_list": [2, 4], "sampler": [{"name": "tab", "order": 9}],
         "schedule": [{"name": "uniform", "n": 10}]},
        # a misspelt key inside a config object is an error, not a default
        {"sampler": {"name": "tab", "oder": 2}},
        {"schedule": {"name": "power_t", "n": 10, "kapa": 3}},
        {"gmm": {"weights": [1.0], "means": [0.0], "stds": [1.0], "foo": 1}},
        {"kind": "study", "n_list": [2, 4],
         "sampler": [{"name": "ddim"}, {"name": "tab", "oder": 2}],
         "schedule": [{"name": "uniform", "n": 10}]},
        {"kind": "study", "n_list": [2, 4], "sampler": [{"name": "ddim"}],
         "schedule": [{"name": "uniform", "n": 10}, {"name": "power_t", "n": 10, "kapa": 3}]},
        # each extrapolation order is one report column
        {"kind": "trace", "x_t": 1.0, "orders": [-1]},
        {"kind": "trace", "x_t": 1.0, "orders": [2, 2]},
    ],
)
def test_cli_malformed_value_exit_code(tmp_path, overrides):
    raw = base_config(**overrides)
    assert main([raw["kind"], "--config", str(_write_config(tmp_path, raw))]) == 2


def test_cli_seed_override_is_validated(tmp_path):
    cfg = _write_config(tmp_path, base_config())
    for seed in (-1, 2**64, 2**100):
        assert main(["sample", "--config", str(cfg), "--seed", str(seed)]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_loglik_divergent_point_fails_whole_run(tmp_path):
    # all points are integrated in one call, so one overflowing point
    # is a numerical failure of the experiment
    raw = base_config(
        kind="loglik", gmm={"weights": [1.0], "means": [0.0], "stds": [1.0]},
        x0_list=[0.0, 1e200],
    )
    assert main(["loglik", "--config", str(_write_config(tmp_path, raw))]) == 3


# values of every JSON type, including ones that fail conversion
# (strings, containers, None), fail range checks (negatives, non-finite)
# or pass; finite numbers stay below 1e3 in magnitude, except for
# values beyond any array size, so that no example allocates or runs a
# grid of millions of steps
_FUZZ_NUMBERS = st.one_of(
    st.integers(-5, 40),
    st.floats(-1e3, 1e3),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308,
                     5e-324, 2**64, 2**130, -(2**70)]),
)
_FUZZ_SCALARS = st.one_of(st.none(), st.booleans(), _FUZZ_NUMBERS, st.text(max_size=4))
_FUZZ_VALUES = st.one_of(
    _FUZZ_SCALARS,
    st.lists(_FUZZ_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), _FUZZ_SCALARS, max_size=2),
)
_FUZZ_KEYS = [
    ("kind",), ("seed",), ("out",), ("format",), ("x_t",), ("n_list",),
    ("lambda_list",), ("x0_list",), ("orders",), ("diffusion",), ("gmm",), ("sampler",),
    ("schedule",), ("unknown",),
    ("diffusion", "preset"), ("diffusion", "beta_min"), ("diffusion", "beta_max"),
    ("diffusion", "sigma_min"), ("diffusion", "sigma_max"),
    ("gmm", "weights"), ("gmm", "means"), ("gmm", "stds"),
    ("sampler", "name"), ("sampler", "order"), ("sampler", "eta"),
    ("schedule", "name"), ("schedule", "t0"), ("schedule", "kappa"),
]
# the keys that set a step, a horizon or a size take values from fixed
# lists of valid and invalid ones, so that every kind's run stays short
_FUZZ_STEPS = st.sampled_from([0, -1, float("nan"), float("inf"), 1e-300, 2e-3, 1e-3, 5e-4, "x"])
_FUZZ_HORIZONS = st.sampled_from([0, -1, float("nan"), float("inf"), 0.05, 0.1, 0.2, "x"])
_FUZZ_SIZES = st.one_of(
    st.integers(-5, 40),
    st.sampled_from([2.5, float("nan"), float("inf"), 1e18, 2**64, "x", None]),
)
_FUZZ_BOUNDED = {
    ("dt",): _FUZZ_STEPS, ("ref_dt",): _FUZZ_STEPS,
    ("diffusion", "t_end"): _FUZZ_HORIZONS, ("schedule", "t_end"): _FUZZ_HORIZONS,
    ("batch",): _FUZZ_SIZES, ("n_traj",): _FUZZ_SIZES,
    ("points_per_interval",): _FUZZ_SIZES, ("schedule", "n"): _FUZZ_SIZES,
}
_FUZZ_EDITS = st.one_of(
    st.tuples(st.sampled_from(_FUZZ_KEYS), _FUZZ_VALUES),
    st.sampled_from(sorted(_FUZZ_BOUNDED)).flatmap(
        lambda key: st.tuples(st.just(key), _FUZZ_BOUNDED[key])
    ),
)


@settings(max_examples=150, deadline=5000)
@given(st.sampled_from(KINDS), st.lists(_FUZZ_EDITS, min_size=1, max_size=3))
def test_cli_fuzzed_config_exits_0_2_or_3(kind, edits):
    raw = base_config(
        kind=kind,
        diffusion={"preset": "vpsde", "beta_min": 0.1, "beta_max": 20.0, "t_end": 0.1},
        schedule={"name": "quadratic", "t0": 1e-3, "n": 4},
        n_traj=16, n_list=[2, 4], x0_list=[0.0],
    )
    if kind == "study":
        raw["sampler"], raw["schedule"] = [raw["sampler"]], [raw["schedule"]]
    for key, value in edits:
        target = raw
        if len(key) == 2:
            parent = raw.get(key[0])
            if isinstance(parent, list) and parent and isinstance(parent[0], dict):
                parent = parent[0]  # a study's first sampler or schedule
            elif not isinstance(parent, dict):
                parent = raw[key[0]] = {}
            target = parent
        target[key[-1]] = value
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        # --out keeps a fuzzed "out" value from naming where the report goes
        code = main([kind, "--config", path, "--out", os.path.join(tmp, "report")])
    assert code in (0, 2, 3)


def test_cli_kind_mismatch(tmp_path):
    cfg = _write_config(tmp_path, base_config())
    assert main(["convergence", "--config", str(cfg)]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # the first Euler step from x_t = 1e308 overflows
    raw = base_config(sampler={"name": "euler"}, x_t=1e308)
    cfg = _write_config(tmp_path, raw)
    assert main(["sample", "--config", str(cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_seed_override(tmp_path):
    cfg = _write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "--config", str(cfg), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(out2), "--seed", "7"]) == 0
    assert out1.read_text() == out2.read_text()


def test_cli_weights_cache_round_trip(tmp_path):
    out = tmp_path / "table.json"
    cfg = _write_config(tmp_path, base_config(sampler={"name": "tab", "order": 2}))
    assert main(["weights", "cache", "--config", str(cfg), "--out", str(out)]) == 0
    table = WeightTable.load(out)
    assert table.order == 2
    assert table.n_steps == 10
    assert table.to_json() == out.read_text()


def test_cli_weights_cache_checks_order_as_tab(tmp_path):
    # the cached table is tab's, so a non-tab sampler's order must be a tab order
    raw = base_config(sampler={"name": "ddim", "order": 7})
    cfg = _write_config(tmp_path, raw)
    assert main(["weights", "cache", "--config", str(cfg), "--out", str(tmp_path / "t.json")]) == 2


def test_cli_weights_cache_rejects_a_study(tmp_path):
    raw = base_config(kind="study", n_list=[2, 4], sampler=[{"name": "tab", "order": 2}],
                      schedule=[{"name": "uniform", "n": 10}])
    cfg = _write_config(tmp_path, raw)
    assert main(["weights", "cache", "--config", str(cfg), "--out", str(tmp_path / "t.json")]) == 2


def test_cli_weights_cache_requires_out(tmp_path):
    cfg = _write_config(tmp_path, base_config())
    assert main(["weights", "cache", "--config", str(cfg)]) == 2


# -- shipped configs --------------------------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of each shipped config's json report; marginal.json runs with
# n_traj 4096 in place of its 50000
GOLDEN = {
    "convergence.json": "5c8bd4edf3a7659f6317245d8c03007dcd8c71c778df5cf63c62f0b2859b4e6d",
    "loglik.json": "0576b5d3b8e5e8fcb4c4f135d3e65c82b559cbc907b3b54462876d449ef0f88b",
    "marginal.json": "29fa523fddc316428816c92a075d1bd0b057c59034193bfa11d537b394a076a7",
    "sample.json": "7fed3589bbe4b449c0ea57bf0ac96c918a4d5bfbed5b42b287a668e4587e179f",
    "study_ablation.json": "63087dc57796c916e27ac8e9d380bf1949958fbb6f891f02a1f8aa6d9cf52289",
    "study_convergence.json": "662937ba9848a01671346343ce0bbe18f3a5ed534421f34c36f64a535c354276",
    "trace.json": "68e411e7b6ca871803dc6c9abe0252400f147e12812b02e613771daad48e917b",
}


def _shipped_raw(name: str) -> dict:
    raw = json.loads((CONFIGS / name).read_text())
    if raw["kind"] == "marginal":
        raw["n_traj"] = 4096
    return raw


@functools.cache
def _shipped_report(name: str):
    return run_experiment(ExperimentConfig.from_dict(_shipped_raw(name)))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_config_reports_are_pinned(name):
    assert sorted(GOLDEN) == sorted(p.name for p in CONFIGS.glob("*.json"))
    text = _shipped_report(name).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
    embedded = json.loads(text)["provenance"]["config"]
    assert run_experiment(ExperimentConfig.from_dict(embedded)).to_json() == text


def _memo_reference(fn):
    """fn(spec, field, x, dt, t0) computed once per (x, dt, t0): the
    reference is a pure function of them, so every caller gets its bits."""
    cache = {}

    def memo(spec, field, x, dt, t0):
        key = (np.asarray(x).tobytes(), dt, t0)
        if key not in cache:
            cache[key] = fn(spec, field, x, dt, t0)
        return cache[key]

    return memo


def test_study_equals_single_sampler_convergence(monkeypatch):
    report = _shipped_report("study_convergence.json")
    raw = _shipped_raw("study_convergence.json")
    # the twelve convergence runs below share one reference solve
    for name in ("reference_solve", "reference_self_check"):
        monkeypatch.setattr(harness, name, _memo_reference(getattr(harness, name)))
    fits = report.summary["fits"]
    assert len(fits) == len(raw["sampler"]) * len(raw["schedule"])
    for sampler in raw["sampler"]:
        for schedule in raw["schedule"]:
            single = run_convergence(ExperimentConfig.from_dict(
                {**raw, "kind": "convergence", "sampler": sampler, "schedule": schedule}
            ))
            fit = fits.pop(0)
            labels = {"sampler": fit["sampler"], "schedule": fit["schedule"]}
            rows = [r for r in report.rows if r["sampler"] == labels["sampler"]
                    and r["schedule"] == labels["schedule"]]
            assert rows == [{**labels, **row} for row in single.rows]
            assert fit["order"] == single.summary["order"]
            assert fit["points_used"] == single.summary["points_used"]


def _counted(calls: list, name: str, fn):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counted


def test_study_draws_checks_and_solves_the_reference_once(monkeypatch):
    calls = []
    for name in ("draw_terminal_states", "reference_self_check", "reference_solve"):
        monkeypatch.setattr(harness, name, _counted(calls, name, getattr(harness, name)))
    raw = _shipped_raw("study_ablation.json")
    report = run_experiment(ExperimentConfig.from_dict({**raw, "batch": 4}))
    # the self-check's solve at ref_dt runs on the field memo the reference
    # solve just filled
    assert calls == ["draw_terminal_states", "reference_solve", "reference_self_check"]
    assert len(report.rows) == len(raw["sampler"]) * len(raw["schedule"]) * len(raw["n_list"])
    assert not any("," in row["sampler"] + row["schedule"] for row in report.rows)
