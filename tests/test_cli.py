import json
import os

import numpy as np
import pytest

from noisyfed import ChannelError, ConfigError, make_task, run, save_task
from noisyfed import cli
from noisyfed.cli import main
from noisyfed.config import load_experiment, parse_experiment
from noisyfed.traceio import read_trace


def read_sweep_rows(path):
    lines = [ln for ln in path.read_text().strip().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "value,final_sq_dist,slope,total_energy"
    return lines[1:]


def experiment_doc(**overrides):
    doc = {
        "task": {"n_clients": 6, "dim": 6, "samples_per_client": 12,
                 "heterogeneity": 1.0, "ridge": 0.1, "noise_std": 4.0,
                 "seed": 5},
        "run": {"n_participants": 3, "rounds": 40, "local_epochs": 3,
                "batch_size": 3, "mode": "MT", "seed": 17},
        "policy": {"name": "mt_partial", "params": {}},
        "replicas": 3,
        "checks": [{"kind": "bound"}, {"kind": "schedule"}],
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_round_trips_losslessly():
    doc = experiment_doc()
    exp = parse_experiment(doc)
    again = parse_experiment(exp.to_dict())
    assert again.to_dict() == exp.to_dict()


def test_unknown_key_reported_with_path():
    doc = experiment_doc()
    doc["run"]["moed"] = "MT"
    with pytest.raises(ConfigError, match=r"run\.moed"):
        parse_experiment(doc)


def test_unknown_task_key_reported_with_path():
    doc = experiment_doc()
    doc["task"]["dimension"] = 7
    with pytest.raises(ConfigError, match=r"task\.dimension"):
        parse_experiment(doc)


def test_missing_required_key():
    doc = experiment_doc()
    del doc["run"]["rounds"]
    with pytest.raises(ConfigError, match=r"run\.rounds"):
        parse_experiment(doc)


def test_bound_check_requires_schedule_policy():
    doc = experiment_doc(policy={"name": "equal_power",
                                 "params": {"snr_db": 10}})
    with pytest.raises(ConfigError, match="schedule-backed"):
        parse_experiment(doc)


def test_run_writes_traces_and_summary(tmp_path):
    cfg = write_config(tmp_path, experiment_doc())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    assert files == ["mean_trace.csv", "summary.json", "trace_rep000.csv",
                     "trace_rep001.csv", "trace_rep002.csv"]
    config, rows = read_trace(out / "trace_rep000.csv")
    assert config["stream_layout"] == 6
    assert config["derived"]["mu"] > 0
    assert config["derived"]["rate_constant"] > 0
    assert [r["t"] for r in rows] == list(range(1, 41))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["completed"] == 3
    assert all(c["passed"] for c in summary["checks"])
    # Every emitted file carries the fully resolved configuration.
    assert summary["resolved"]["derived"]["rate_constant"] > 0
    assert (out / "mean_trace.csv").read_text().startswith("# config: ")


def test_run_byte_identical_and_worker_invariant(tmp_path):
    cfg = write_config(tmp_path, experiment_doc())
    out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    assert main(["run", cfg, "--out", str(out3), "--workers", "2"]) == 0
    for name in os.listdir(out1):
        a = (out1 / name).read_bytes()
        assert a == (out2 / name).read_bytes()
        assert a == (out3 / name).read_bytes()


def test_run_with_task_file(tmp_path):
    task = make_task(n_clients=4, dim=3, samples_per_client=6, seed=1)
    task_path = tmp_path / "task.json"
    save_task(task, task_path)
    doc = experiment_doc(task={"file": str(task_path)})
    doc["run"]["n_participants"] = 2
    doc["checks"] = []
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0


def test_run_reports_divergence(tmp_path):
    doc = experiment_doc(policy={"name": "equal_power",
                                 "params": {"snr_db": -70.0}})
    doc["checks"] = []
    doc["run"]["divergence_factor"] = 100.0
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"]
    assert all(d["kind"] == "divergence" for d in summary["diverged"])


def test_run_invalid_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"task\": {}}")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


def test_failed_check_gives_nonzero_exit(tmp_path):
    doc = experiment_doc()
    doc["checks"] = [{"kind": "slope", "window": [10, 40],
                      "range": [-0.01, 0.0]}]
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1


def test_verify_lemmas_passes(capsys):
    assert main(["verify", "lemmas", "--replicas", "10000"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_theorems_negative_control(capsys):
    assert main(["verify", "theorems", "--noise-scale", "2.0"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] schedule_admissible" in out
    # The stream layout is named once, before the engine-run estimates, and
    # the tally stays last.
    lines = out.splitlines()
    assert lines.count("stream layout 6") == 1
    first_bound = next(i for i, line in enumerate(lines)
                       if "bound_holds[" in line)
    assert lines.index("stream layout 6") < first_bound
    assert lines[-1].endswith(" checks passed")


def test_verify_rejects_tiny_replica_count():
    assert main(["verify", "lemmas", "--replicas", "50"]) == 2


def test_verify_requires_scope():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify"])
    assert excinfo.value.code == 2


def test_sweep_axis_table(tmp_path, capsys):
    doc = experiment_doc()
    doc["replicas"] = 2
    doc["checks"] = []
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sw"
    assert main(["sweep", cfg, "--axis", "run.rounds", "--values", "20,40",
                 "--out", str(out)]) == 0
    rows = read_sweep_rows(out / "sweep.csv")
    assert len(rows) == 2


def test_sweep_single_value_matches_plain_run(tmp_path):
    doc = experiment_doc()
    doc["checks"] = []
    cfg = write_config(tmp_path, doc)
    out_run = tmp_path / "run_out"
    out_sweep = tmp_path / "sweep_out"
    assert main(["run", cfg, "--out", str(out_run)]) == 0
    assert main(["sweep", cfg, "--axis", "run.n_participants", "--values",
                 "3", "--out", str(out_sweep)]) == 0
    summary = json.loads((out_run / "summary.json").read_text())
    row = read_sweep_rows(out_sweep / "sweep.csv")[0]
    final = float(row.split(",")[1])
    assert final == pytest.approx(summary["mean_final_sq_dist"], rel=1e-12)


def test_sweep_snr_monotonicity(tmp_path):
    doc = experiment_doc(policy={"name": "mdt_constant_snr",
                                 "params": {"snr_target": 1.0}})
    doc["run"]["mode"] = "MDT"
    doc["run"]["rounds"] = 60
    doc["run"]["seed"] = 500
    doc["replicas"] = 12
    doc["checks"] = []
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sw"
    assert main(["sweep", cfg, "--axis", "policy.params.snr_target",
                 "--values", "1,10,100", "--out", str(out)]) == 0
    rows = read_sweep_rows(out / "sweep.csv")
    finals = [float(r.split(",")[1]) for r in rows]
    assert finals[0] >= finals[1] >= finals[2]


def _sweep_halving_ratio(tmp_path, policy):
    """How much doubling the horizon divides the final distance: 2^-slope of
    a least-squares line through log final distance against log horizon,
    over a sweep of 100, 200 and 400 rounds, 36 replicas each."""
    doc = experiment_doc(policy={"name": policy, "params": {}})
    doc["run"]["n_participants"] = 6
    doc["run"]["seed"] = 500
    doc["replicas"] = 36
    doc["checks"] = []
    cfg = write_config(tmp_path, doc, name=f"{policy}.json")
    out = tmp_path / policy
    assert main(["sweep", cfg, "--axis", "run.rounds", "--values",
                 "100,200,400", "--out", str(out)]) == 0
    rows = [r.split(",") for r in read_sweep_rows(out / "sweep.csv")]
    horizons = np.log([float(r[0]) for r in rows])
    finals = np.log([float(r[1]) for r in rows])
    return 2.0 ** -np.polyfit(horizons, finals, 1)[0]


def test_sweep_horizon_scales_inversely(tmp_path):
    # Final distance tracks 1/T: doubling the horizon roughly halves it.
    assert abs(_sweep_halving_ratio(tmp_path, "mt_full") - 2.0) <= 0.6


def test_sweep_horizon_check_fails_without_decaying_noise(tmp_path):
    # Negative control: at a constant SNR the final distance does not fall
    # as 1/T, so the same check must fail.
    assert abs(_sweep_halving_ratio(tmp_path, "equal_power") - 2.0) > 0.6


def test_sweep_non_numeric_axis_usage_error(tmp_path):
    cfg = write_config(tmp_path, experiment_doc())
    assert main(["sweep", cfg, "--axis", "run.mode", "--values", "1",
                 "--out", str(tmp_path / "o")]) == 2


def test_sweep_missing_axis_usage_error(tmp_path):
    cfg = write_config(tmp_path, experiment_doc())
    assert main(["sweep", cfg, "--axis", "run.nope", "--values", "1",
                 "--out", str(tmp_path / "o")]) == 2


def test_load_experiment_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_experiment(path)


@pytest.mark.parametrize("replicas", ["0", "-3"])
def test_run_rejects_nonpositive_replica_override(tmp_path, capsys, replicas):
    cfg = write_config(tmp_path, experiment_doc())
    out = tmp_path / "out"
    assert main(["run", cfg, "--replicas", replicas, "--out", str(out)]) == 2
    assert "error: --replicas" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "verify"])
def test_negative_seed_override_is_usage_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, experiment_doc())
    argv = {"run": ["run", cfg, "--out", str(tmp_path / "o")],
            "sweep": ["sweep", cfg, "--axis", "run.rounds", "--values", "5",
                      "--out", str(tmp_path / "o")],
            "verify": ["verify", "lemmas"]}[command]
    assert main(argv + ["--seed", "-1"]) == 2
    assert "error: --seed" in capsys.readouterr().err


def test_negative_config_seed_is_usage_error(tmp_path, capsys):
    doc = experiment_doc()
    doc["run"]["seed"] = -1
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "run.seed" in capsys.readouterr().err


def test_diversity_policy_without_powers_is_usage_error(tmp_path, capsys):
    doc = experiment_doc(policy={"name": "diversity_t2",
                                 "params": {"rho_uplink": 2.0}})
    doc["run"]["channel"] = "analog_physical"
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error: policy 'diversity_t2' needs parameters ['rho_downlink']" \
        in capsys.readouterr().err


def test_run_records_channel_failure_per_replica(tmp_path, monkeypatch,
                                                 capsys):
    # Replica 1 (seed 18) fails in the channel; the others complete.
    def flaky_run(task, cfg):
        if cfg.seed == 18:
            raise ChannelError("deep fade persisted beyond 10 retransmissions")
        return run(task, cfg)

    monkeypatch.setattr(cli, "run", flaky_run)
    doc = experiment_doc()
    doc["checks"] = []
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] == [
        {"replica": 1, "kind": "channel",
         "error": "deep fade persisted beyond 10 retransmissions"}]
    assert summary["completed"] + len(summary["diverged"]) == doc["replicas"]
    assert [r["replica"] for r in summary["replicas"]] == [0, 2]
    assert not (out / "trace_rep001.csv").exists()
    assert "[WARN] 1 replica(s) diverged or failed" in capsys.readouterr().out


def test_summary_carries_replica_diagnostics(tmp_path):
    doc = experiment_doc()
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    experiment = parse_experiment(doc)
    task = cli.build_task(experiment)
    for entry in summary["replicas"]:
        result = run(task, cli.replica_config(experiment, entry["replica"],
                                              17))
        for key in ("max_iterate_distance", "trajectory_radius",
                    "radius_exceeded", "fade_retries"):
            assert entry[key] == result.diagnostics[key], key
        assert entry["radius_exceeded"] == \
            (entry["max_iterate_distance"] > entry["trajectory_radius"])


def test_mdt_policy_with_model_upload_is_usage_error(tmp_path, capsys):
    doc = experiment_doc(policy={"name": "mdt_constant_snr",
                                 "params": {"snr_target": 10.0}})
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error: policy 'mdt_constant_snr' needs mode 'MDT'" \
        in capsys.readouterr().err


def test_mt_full_with_partial_participation_is_usage_error(tmp_path, capsys):
    # mt_full schedules the noise of every client; K < N would ignore K.
    doc = experiment_doc(policy={"name": "mt_full", "params": {}})
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error: policy 'mt_full' needs every client (6) to take part; " \
        "use 'mt_partial'" in capsys.readouterr().err


def test_weighted_mt_full_on_analog_channel_is_usage_error(tmp_path, capsys):
    doc = experiment_doc(policy={"name": "mt_full",
                                 "params": {"weights": [2, 1, 1, 1, 1, 1]}})
    doc["run"].update(n_participants=6, channel="analog_physical")
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error: policy 'mt_full' weights need channel 'effective_noise'" \
        in capsys.readouterr().err
    # The same weights on the effective-noise channel still run.
    doc["run"]["channel"] = "effective_noise"
    doc["checks"] = []
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o2")]) == 0
