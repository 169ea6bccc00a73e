import hashlib
import json
import math
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


def test_one_worker_builds_the_task_once_per_family(tmp_path, monkeypatch):
    calls = []

    def counting_make_task(**params):
        calls.append(params)
        return make_task(**params)

    monkeypatch.setattr(cli, "make_task", counting_make_task)
    cfg = write_config(tmp_path, experiment_doc())
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


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


def test_run_with_every_replica_diverged_still_checks_schedule(tmp_path):
    doc = experiment_doc(policy={"name": "mt_partial",
                                 "params": {"variance_scale": 1e12}})
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["completed"] == 0
    bound, schedule = summary["checks"]
    assert bound["estimate"] == "nan" and not bound["passed"]
    assert schedule["estimate"] == pytest.approx(1e12 - 1)
    assert not schedule["passed"]


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


def test_verify_all_prints_twelve_checks(capsys):
    assert main(["verify", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split("] ", 1)[1].split(":")[0] for line in lines
             if line.startswith("[PASS]")]
    families = ("mt_full", "mt_partial", "mdt_constant_snr")
    assert names == [
        "aggregation_noise_moments", "client_sampling_moments",
        "differential_upload_variance", "differential_upload_variance",
        "sgd_one_step_bound", "noise_tracks_sgd_floor",
        *(f"{check}[{family}]" for family in families
          for check in ("schedule_admissible", "bound_holds"))]
    assert lines[-1] == "12/12 checks passed"


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


def test_verify_theorems_reports_diverged_families(capsys):
    # Every replica diverges at round 1; each family still prints its lines,
    # and the schedule check reads the family's policy all the same.
    assert main(["verify", "theorems", "--noise-scale", "1e12"]) == 1
    lines = capsys.readouterr().out.splitlines()
    bound_lines = [line for line in lines if "bound_holds[" in line]
    assert len(bound_lines) == 3
    assert all(line.startswith("[FAIL]") and line.endswith("5 of 5 diverged")
               for line in bound_lines)
    schedule = {line.split("[")[2].split("]")[0]:
                float(line.split("estimate=")[1].split()[0])
                for line in lines if "schedule_admissible[" in line}
    assert all(line.startswith("[FAIL]") for line in lines
               if "schedule_admissible[" in line)
    # MT noise scaled by 1e12 is 1e12 times its cap.
    assert schedule["mt_full"] == pytest.approx(1e12 - 1, rel=1e-5)
    assert schedule["mt_partial"] == pytest.approx(1e12 - 1, rel=1e-5)
    # MDT's downlink cap shrinks with the SNR it actually uses, here 1e-12
    # of the target, so its excess is larger still.
    assert 1e12 < schedule["mdt_constant_snr"] < math.inf
    assert lines[-1] == "1/7 checks passed"


def test_verify_bound_matches_run_check_bound(tmp_path):
    # verify's mt_full family as a noisyfed run family: the default task of
    # experiment_doc is the verify task.
    assert experiment_doc()["task"] == cli.VERIFY_TASK
    doc = experiment_doc(policy={"name": "mt_full", "params": {}},
                         replicas=5, checks=[{"kind": "bound"}])
    doc["run"] = {"n_participants": 6, "rounds": 60, "local_epochs": 3,
                  "batch_size": 3, "mode": "MT", "seed": 100}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
    check_bound = json.loads((out / "summary.json").read_text())["checks"][0]
    verify = {r.name: r for r in cli._theorem_reports(1.0, 0)}
    assert verify["bound_holds[mt_full]"].estimate == check_bound["estimate"]


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


def test_sweep_with_diverged_replicas_fails(tmp_path, capsys):
    doc = experiment_doc(policy={"name": "equal_power",
                                 "params": {"snr_db": 10.0}}, checks=[])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sw"
    assert main(["sweep", cfg, "--axis", "policy.params.snr_db", "--values",
                 "10,-90", "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "[WARN] policy.params.snr_db=-90: 3/3 replica(s) diverged" \
        in printed
    assert "snr_db=10:" not in printed
    rows = read_sweep_rows(out / "sweep.csv")
    assert rows[1] == "-90,nan,nan,nan"


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


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-4"])
def test_nonpositive_workers_is_usage_error(tmp_path, capsys, command,
                                            workers):
    cfg = write_config(tmp_path, experiment_doc())
    out = tmp_path / "out"
    argv = {"run": ["run", cfg],
            "sweep": ["sweep", cfg, "--axis", "run.rounds", "--values", "5"]}
    assert main(argv[command] + ["--workers", workers, "--out", str(out)]) == 2
    assert "error: --workers" in capsys.readouterr().err
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


@pytest.mark.parametrize("name, params, key", [
    ("equal_power", {"snr_db": "ten"}, "snr_db"),
    ("equal_power", {"snr_db": None}, "snr_db"),
    ("mt_full", {"weights": "abc"}, "weights"),
    ("mt_full", {"weights": [1, 2]}, "weights"),
    ("mt_partial", {"variance_scale": "x"}, "variance_scale"),
    ("mt_partial", {"variance_scale": -1}, "variance_scale"),
    ("mt_partial", {"variance_scale": True}, "variance_scale"),
    ("mt_partial", {"variance_scale": float("nan")}, "variance_scale"),
    ("mdt_constant_snr", {"snr_target": -1}, "snr_target"),
    ("diversity_t2", {"rho_uplink": [1], "rho_downlink": 2.0}, "rho_uplink"),
    ("diversity_t2", {"rho_uplink": -1, "rho_downlink": 2.0}, "rho_uplink"),
])
def test_invalid_policy_parameter_is_usage_error(tmp_path, capsys, name,
                                                 params, key):
    doc = experiment_doc(policy={"name": name, "params": params}, checks=[])
    doc["run"].update(
        n_participants=6 if name == "mt_full" else 3,
        mode="MDT" if name == "mdt_constant_snr" else "MT")
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"error: policy parameter {key!r} must" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_parser_is_built_once_per_process():
    assert cli.make_parser() is cli.make_parser()


def test_run_records_channel_failure_per_replica(tmp_path, monkeypatch,
                                                 capsys):
    # Replica 1 (seed 18) fails in the channel; the others complete.
    def flaky_run(task, cfg, *family):
        if cfg.seed == 18:
            raise ChannelError("deep fade persisted beyond 10 retransmissions")
        return run(task, cfg, *family)

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


# SHA-256 of summary.json and mean_trace.csv of a 12-round, 2-replica family
# per preset, with the bound and schedule checks where the preset has a
# schedule: they pin each check's estimate (``schedule_excess`` included),
# the resolved ``rate_constant`` and ``bound_variant``, the emitted policy
# parameters and the mean trace.
_PRESET_FAMILIES = {
    "noise_free": ({}, {}),
    "equal_power": ({"snr_db": 12.0}, {}),
    "mt_full": ({"weights": [2, 1, 1, 1, 1, 0]}, {"n_participants": 6}),
    "mt_partial": ({}, {}),
    "mdt_constant_snr": ({"snr_target": 5.0}, {"mode": "MDT"}),
    "power_t2": ({"distance": 1.5}, {"channel": "analog_physical"}),
    "diversity_t2": ({"rho_uplink": 5.0, "rho_downlink": 5.0},
                     {"channel": "analog_physical"}),
}
GOLDEN_RUN_FILES = {
    "noise_free": (
        "f46f66fd6855ddefebd68e9da4fac78244e174de039509ae07be5d2ef860e592",
        "01188545a686c167e2aa7b26256ff332d0c2850129e59eb81790b4615c313763"),
    "equal_power": (
        "21c3cde6d86b60c32588eccef5ee3ea70e1bf730a53964132e8e809a64ea24e7",
        "fca859220d05dadbe63caa201d6225620001f46a85a1757376cbdf42b78d0d9f"),
    "mt_full": (
        "6532f9106b95b6018ee926b4f55bbca11999da87df5dd5ac3d16e0b79a711d77",
        "49e06f7f3762354615fc3015b640fa151aa9a835154492fd2d5df26d20f74102"),
    "mt_partial": (
        "a6b7eb3d3f264954e4426f1a10831e5d50fc478dbb46c71fa5276b04db25ef3e",
        "bf3750913f4b5c234cecfb133697cf7e829e1bd3193bd930934107de55281c85"),
    "mdt_constant_snr": (
        "c5e1e0a83b15491dc17e0219bbbaa200da5ac654276124b929b02c4faf4c1f07",
        "55b076f7018a9ee0c623cc82aeacbe3ed02bc7513695b286563d84071cd5100f"),
    "power_t2": (
        "de08e8130d076dce4fba56b269801eb2da64f052dde65c949829e42ceb625ad1",
        "eec403f11af8ee6aea35f85ce07bb6c1a26de9a9f5570e9c3461e90b16d6de72"),
    "diversity_t2": (
        "308ac97ad38fcff5ec8df1301940e811502b9e8141a5f2eda3217d9e8fc94e88",
        "7875a8a581366595f94d0385b8c94aa6c8d202ea85e432026d8b37218fd893ec"),
}


def _family_digests(tmp_path, name, params, run):
    doc = experiment_doc(policy={"name": name, "params": params}, replicas=2)
    doc["run"].update(rounds=12, **run)
    if name in ("noise_free", "equal_power"):
        doc["checks"] = []
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) \
        in (0, 1)
    return tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                 for f in ("summary.json", "mean_trace.csv"))


@pytest.mark.parametrize("name", _PRESET_FAMILIES)
def test_run_files_match_golden(tmp_path, name):
    params, run = _PRESET_FAMILIES[name]
    assert _family_digests(tmp_path, name, params, run) \
        == GOLDEN_RUN_FILES[name]


def test_louder_schedule_fails_run_files_golden(tmp_path):
    # Negative control: twice the scheduled noise must move both files.
    summary, mean = _family_digests(tmp_path, "mt_partial",
                                    {"variance_scale": 2}, {})
    golden = GOLDEN_RUN_FILES["mt_partial"]
    assert summary != golden[0] and mean != golden[1]
