import json

import numpy as np
import pytest

from diffint import ConfigError, WeightTable, epsilon_field, euler_sample
from diffint.cli import main
from diffint.harness import (
    ExperimentConfig,
    draw_terminal_states,
    run_convergence,
    run_experiment,
    run_loglik,
    run_marginal,
    run_sample,
    run_trace,
)
from diffint.oracle import em_terminal_batch
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
    assert first.splitlines()[0].startswith("# schema=diffint-report-v1")


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

    def diverging_batch(spec, field, lam, dt, t0, seed, n_traj, chunk=8192):
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
    assert doc["schema"] == "diffint-report-v1"
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
    ],
)
def test_cli_malformed_value_exit_code(tmp_path, overrides):
    raw = base_config(**overrides)
    assert main([raw["kind"], "--config", str(_write_config(tmp_path, raw))]) == 2


def test_cli_kind_mismatch(tmp_path):
    cfg = _write_config(tmp_path, base_config())
    assert main(["convergence", "--config", str(cfg)]) == 2


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    raw = base_config(
        kind="loglik",
        gmm={"weights": [1.0], "means": [0.0], "stds": [1.0]},
        x0_list=[0.0],
        dt=5e-3,  # violates the likelihood solver's step contract
    )
    cfg = _write_config(tmp_path, raw)
    assert main(["loglik", "--config", str(cfg)]) == 3
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


def test_cli_weights_cache_requires_out(tmp_path):
    cfg = _write_config(tmp_path, base_config())
    assert main(["weights", "cache", "--config", str(cfg)]) == 2
