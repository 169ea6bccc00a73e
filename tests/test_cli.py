import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import noisyfed
from noisyfed import (ChannelError, ConfigError, QuadraticTask, RunConfig,
                      make_task, run, save_task)
from noisyfed import cli, config, policies, traceio
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
    assert parse_experiment(exp) == exp


def test_parse_fills_defaults_and_drops_empty_checks():
    doc = experiment_doc(policy={"name": "mt_partial"}, checks=[])
    del doc["replicas"]
    exp = parse_experiment(doc)
    assert exp["policy"] == {"name": "mt_partial", "params": {}}
    assert exp["replicas"] == 1 and "checks" not in exp
    assert exp["task"] == doc["task"] and exp["task"] is not doc["task"]


def test_empty_task_file_path_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment_doc(task={"file": ""}))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: task file : cannot read (No such file or "
                   "directory)"]
    assert not out.exists()


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


def test_run_config_fields_are_the_run_keys():
    # A run input the experiment file cannot set is one no run reaches.
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert fields - {"policy_name", "policy_params"} == set(config._RUN_KEYS)


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
    assert config["stream_layout"] == 8
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


def _traced_family(tmp_path, replicas):
    """The traced memory still held after a streamed 200-round family of
    ``replicas`` replicas, and the traced peak while it ran."""
    doc = experiment_doc(replicas=replicas, checks=[])
    doc["task"].update(n_clients=4, dim=3, samples_per_client=6)
    doc["run"].update(n_participants=2, rounds=200, local_epochs=1,
                      batch_size=2)
    experiment = parse_experiment(doc)
    setup = cli.family_setup(experiment, 17)
    out = tmp_path / f"r{replicas}"
    out.mkdir()
    tracemalloc.start()
    try:
        family = cli.run_family(experiment, 17, setup=setup, out=str(out))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(family.completed) == replicas
    assert family.sq_dist.shape == family.loss.shape == (replicas, 200)
    assert len(os.listdir(out)) == replicas
    return held, peak


def test_family_memory_does_not_grow_with_its_traces(tmp_path):
    # A family keeps two float64 columns and the finals per replica, about
    # 5 KB at T=200; keeping every replica's trace rows held about 65 KB.
    _traced_family(tmp_path, 1)     # first-call allocations
    held20, peak20 = _traced_family(tmp_path, 20)
    held60, peak60 = _traced_family(tmp_path, 60)
    assert (held60 - held20) / 40 <= 10 * 1024
    assert peak60 - peak20 <= 0.5 * 2 ** 20


def test_cli_import_leaves_process_pool_out():
    # One worker never starts a pool, so importing the CLI does not load it.
    src = os.path.dirname(os.path.dirname(noisyfed.__file__))
    code = ("import sys, noisyfed.cli; print(sorted(m for m in "
            "('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules))")
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert loaded.strip() == "[]"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_diverged_replica_writes_no_trace(tmp_path, capsys, workers):
    # At -55 dB replicas 1 and 3 of seeds 17..22 diverge; the others complete.
    doc = experiment_doc(policy={"name": "equal_power",
                                 "params": {"snr_db": -55.0}},
                         replicas=6, checks=[])
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out),
                 "--workers", workers]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert [d["replica"] for d in summary["diverged"]] == [1, 3]
    assert all(d["kind"] == "divergence" for d in summary["diverged"])
    assert [r["replica"] for r in summary["replicas"]] == [0, 2, 4, 5]
    assert sorted(os.listdir(out)) == [
        "mean_trace.csv", "summary.json", "trace_rep000.csv",
        "trace_rep002.csv", "trace_rep004.csv", "trace_rep005.csv"]
    assert "[WARN] 2 replica(s) diverged or failed" in capsys.readouterr().out


def test_family_asks_its_policy_each_round_once(tmp_path, monkeypatch):
    # The replicas and the schedule check share the family's schedule: one
    # call for all its rounds, whatever the number of replicas.
    calls = []
    round_params = policies.Policy.round_params

    def counting_round_params(self, rounds):
        calls.append(rounds.tolist())
        return round_params(self, rounds)

    monkeypatch.setattr(policies.Policy, "round_params",
                        counting_round_params)
    doc = experiment_doc()
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == [list(range(1, doc["run"]["rounds"] + 1))]


def _louder_past(rounds):
    """mt_partial's emit, with twice its variances at indices past
    ``rounds``."""
    def emit(p, t):
        params = policies._mt_partial(p, t)
        louder = np.where(t > rounds, 2.0, 1.0)
        return params._replace(
            uplink_variance=louder * params.uplink_variance,
            downlink_variance=louder * params.downlink_variance)
    return emit


@pytest.mark.parametrize("quiet_rounds, passed", [(12, True), (6, False)])
def test_schedule_check_judges_what_the_run_used(tmp_path, monkeypatch,
                                                 quiet_rounds, passed):
    # Negative control: a policy twice as loud past round 6 puts a 12-round
    # run at twice its cap, so the schedule check must fail; twice as loud
    # only past round 12, the run never uses the louder rounds and passes.
    monkeypatch.setitem(policies.PRESETS, "mt_partial", dataclasses.replace(
        policies.PRESETS["mt_partial"], emit=_louder_past(quiet_rounds)))
    doc = experiment_doc(replicas=1, checks=[{"kind": "schedule"}])
    doc["run"].update(rounds=12, local_epochs=2)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) \
        == (0 if passed else 1)
    [check] = json.loads((out / "summary.json").read_text())["checks"]
    assert check["passed"] is passed
    if not passed:
        assert check["estimate"] == pytest.approx(1.0)


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


def test_unfittable_slope_check_fails_and_writes_the_summary(tmp_path,
                                                             capsys):
    # All-zero targets make the zero start the optimum, so every squared
    # distance of a noise-free run is exactly 0 and no point can be fitted.
    # The run ended as a usage error after every replica had run, and wrote
    # no summary.json.
    task = make_task(n_clients=4, dim=3, samples_per_client=6, seed=1)
    task_path = tmp_path / "task.json"
    save_task(QuadraticTask(task.features, np.zeros_like(task.targets), 0.1),
              task_path)
    doc = experiment_doc(task={"file": str(task_path)},
                         policy={"name": "noise_free", "params": {}})
    doc["run"]["n_participants"] = 2
    doc["checks"] = [{"kind": "slope"}]
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["completed"] == 3 and summary["mean_final_sq_dist"] == 0.0
    [check] = summary["checks"]
    assert check["name"] == "check_slope" and check["passed"] is False
    assert check["estimate"] == "nan"
    assert check["detail"] == ("window=(10, 40) range=[-1.3,-0.7]: rate fit "
                               "needs at least 10 positive points in window")
    assert capsys.readouterr().out.startswith(
        "[FAIL] check_slope: estimate=nan ")


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
    assert lines.count("stream layout 8") == 1
    first_bound = next(i for i, line in enumerate(lines)
                       if "bound_holds[" in line)
    assert lines.index("stream layout 8") < first_bound
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


@pytest.mark.parametrize("scope", ["lemmas", "all"])
def test_verify_rejects_too_few_replicas_before_any_oracle(
        capsys, monkeypatch, scope):
    # The error named no key path and came after the aggregation and
    # client-sampling oracles had run.
    called = []
    for name in ("aggregation_noise_oracle", "client_sampling_oracle",
                 "differential_upload_oracle", "sgd_one_step_oracle"):
        monkeypatch.setattr(cli.analysis, name,
                            lambda *a, name=name, **k: called.append(name))
    monkeypatch.setattr(cli, "_theorem_reports",
                        lambda *a: called.append("theorems") or [])
    assert main(["verify", scope, "--replicas", "9999"]) == 2
    assert capsys.readouterr().err \
        == "error: --replicas: need at least 10000 replicas, got 9999\n"
    assert called == []


@pytest.mark.parametrize("scope", ["theorems", "all"])
@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_verify_rejects_a_bad_noise_scale_before_any_oracle(
        capsys, monkeypatch, scope, scale):
    # The error named policy.params.variance_scale, a key the command line
    # does not have, and under "all" came after every lemma oracle had run.
    called = []
    for name in ("aggregation_noise_oracle", "client_sampling_oracle",
                 "differential_upload_oracle", "sgd_one_step_oracle"):
        monkeypatch.setattr(cli.analysis, name,
                            lambda *a, name=name, **k: called.append(name))
    monkeypatch.setattr(cli, "_theorem_reports",
                        lambda *a: called.append("theorems") or [])
    assert main(["verify", scope, f"--noise-scale={scale}"]) == 2
    assert capsys.readouterr().err == ("error: --noise-scale: must be "
                                       f"positive and finite, not "
                                       f"{float(scale)!r}\n")
    assert called == []


@pytest.mark.parametrize("replicas", ["9999", str(10 ** 30)])
def test_verify_theorems_ignore_the_replica_count(monkeypatch, replicas):
    called = []
    monkeypatch.setattr(cli, "_theorem_reports",
                        lambda *a: called.append("theorems") or [])
    assert main(["verify", "theorems", "--replicas", replicas]) == 0
    assert called == ["theorems"]


@pytest.mark.parametrize("scope", ["lemmas", "all"])
def test_verify_replica_count_whose_arrays_cannot_exist_is_usage_error(
        capsys, scope):
    # It ended in numpy's "Maximum allowed dimension exceeded" ValueError
    # from the lemma oracles' first draw.  Only a count no array can hold is
    # tried here.
    assert main(["verify", scope, "--replicas", str(10 ** 30)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --replicas: replicas * n_clients * dim ")
    assert "more than one array can hold" in err and err.count("\n") == 1


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


@pytest.mark.parametrize("axis, values, tasks", [
    ("policy.params.snr_db", "10,12,14,16", 1),
    ("task.noise_std", "1,2,4", 3),
])
def test_sweep_builds_each_task_once(tmp_path, monkeypatch, axis, values,
                                     tasks):
    # The points of a sweep share one task per distinct task document.
    calls = []

    def counting_make_task(**params):
        calls.append(params)
        return make_task(**params)

    monkeypatch.setattr(cli, "make_task", counting_make_task)
    doc = experiment_doc(policy={"name": "equal_power",
                                 "params": {"snr_db": 10.0}},
                         replicas=1, checks=[])
    doc["run"]["rounds"] = 12
    assert main(["sweep", write_config(tmp_path, doc), "--axis", axis,
                 "--values", values, "--out", str(tmp_path / "sw")]) == 0
    assert len(calls) == tasks
    assert len(read_sweep_rows(tmp_path / "sw" / "sweep.csv")) \
        == len(values.split(","))


def test_sweep_warns_of_a_window_too_short_to_fit(tmp_path, capsys):
    doc = experiment_doc(replicas=1, checks=[])
    out = tmp_path / "sw"
    assert main(["sweep", write_config(tmp_path, doc), "--axis",
                 "run.rounds", "--values", "5,12", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "[WARN] run.rounds=5: slope window [1, 5]: rate fit needs at " \
           "least 10 positive points in window" in printed
    assert "run.rounds=12" not in printed
    short, fitted = (r.split(",") for r in read_sweep_rows(out / "sweep.csv"))
    assert short[2] == "nan" and math.isfinite(float(fitted[2]))


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


@pytest.mark.parametrize("values, message", [
    ("abc", "error: --values: 'abc' is not a number"),
    ("1,x", "error: --values: 'x' is not a number"),
    ("20.5", "error: sweep[run.rounds=20.5].run.rounds: expected int, "
             "got float"),
], ids=["letters", "second_chunk", "float_for_int"])
def test_sweep_bad_value_is_usage_error(tmp_path, capsys, values, message):
    cfg = write_config(tmp_path, experiment_doc())
    out = tmp_path / "o"
    assert main(["sweep", cfg, "--axis", "run.rounds", "--values", values,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def _count_runs(monkeypatch):
    """The seeds of every engine run the CLI starts from here on."""
    seeds = []

    def counting_run(task, cfg, *family):
        seeds.append(cfg.seed)
        return run(task, cfg, *family)

    monkeypatch.setattr(cli, "run", counting_run)
    return seeds


@pytest.mark.parametrize("policy, axis, values, message", [
    ("mt_partial", "run.local_epochs", "1,0",
     "error: sweep[run.local_epochs=0]: run.local_epochs: must be >= 1"),
    ("noise_free", "run.n_participants", "3,9",
     "error: sweep[run.n_participants=9]: run.n_participants: 9 exceeds "
     "task.n_clients (6)"),
], ids=["local_epochs", "participants"])
def test_sweep_bad_late_value_runs_no_family(tmp_path, capsys, monkeypatch,
                                             policy, axis, values, message):
    # Every point is set up before the first family runs.
    runs = _count_runs(monkeypatch)
    doc = experiment_doc(policy={"name": policy, "params": {}}, checks=[])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["sweep", cfg, "--axis", axis, "--values", values,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists() and runs == []
    # The good value alone sweeps.
    assert main(["sweep", cfg, "--axis", axis, "--values",
                 values.split(",")[0], "--out", str(out)]) == 0
    assert len(runs) == doc["replicas"]


@pytest.mark.parametrize("rounds, check, message", [
    (12, {"window": [10, 18]}, "checks[0].window: [10, 18] holds 3 of the "
                               "12 rounds; a slope fit needs at least 10"),
    (9, {}, "checks[0].window: [2, 9] holds 8 of the 9 rounds"),
    (12, {"window": [12, 3]}, "checks[0].window: expected low <= high, "
                              "got [12, 3]"),
    (12, {"range": [-0.7, -1.3]}, "checks[0].range: expected low <= high, "
                                  "got [-0.7, -1.3]"),
], ids=["given_window", "default_window", "reversed_window",
        "reversed_range"])
def test_unfittable_slope_check_is_usage_error(tmp_path, capsys, monkeypatch,
                                               rounds, check, message):
    runs = _count_runs(monkeypatch)
    doc = experiment_doc(checks=[{"kind": "slope", **check}])
    doc["run"]["rounds"] = rounds
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists() and runs == []


def test_slope_window_of_ten_rounds_is_fitted(tmp_path, monkeypatch):
    # Control: 12 rounds' default window, [3, 12], holds the ten a fit needs.
    runs = _count_runs(monkeypatch)
    doc = experiment_doc(checks=[{"kind": "slope"}])
    doc["run"]["rounds"] = 12
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) \
        in (0, 1)
    [check] = json.loads((out / "summary.json").read_text())["checks"]
    assert check["detail"].startswith("window=(3, 12)")
    assert math.isfinite(check["estimate"])
    assert len(runs) == doc["replicas"]


def _task_payload(**overrides):
    task = make_task(n_clients=4, dim=3, samples_per_client=6, seed=1)
    payload = {"dim": 3, "ridge": 0.1, "clients": [
        {"features": f.tolist(), "targets": t.tolist()}
        for f, t in zip(task.features, task.targets)]}
    payload.update(overrides)
    return json.dumps(payload)


def _ragged_payload():
    payload = json.loads(_task_payload())
    payload["clients"][1]["features"].pop()
    payload["clients"][1]["targets"].pop()
    return json.dumps(payload)


# name -> (experiment file text or None for the default, task file text or
# None for none); each names the file that is wrong.
_MALFORMED_FILES = {
    "missing_experiment": ("missing", None),
    "experiment_not_json": ("{not json", None),
    "missing_task": (None, "missing"),
    "task_not_json": (None, "{not json"),
    "task_without_clients": (None, json.dumps({"dim": 3, "ridge": 0.1})),
    "task_ridge_not_number": (None, _task_payload(ridge="x")),
    "task_ragged": (None, _ragged_payload()),
    "task_dim_mismatch": (None, _task_payload(dim=4)),
}


@pytest.mark.parametrize("case", _MALFORMED_FILES)
def test_malformed_file_is_usage_error(tmp_path, capsys, case):
    experiment_text, task_text = _MALFORMED_FILES[case]
    exp_path, task_path = tmp_path / "exp.json", tmp_path / "task.json"
    doc = experiment_doc(checks=[])
    doc["run"]["n_participants"] = 2
    if task_text is not None:
        doc["task"] = {"file": str(task_path)}
        if task_text != "missing":
            task_path.write_text(task_text)
    if experiment_text != "missing":
        exp_path.write_text(experiment_text or json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(exp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    named = exp_path if task_text is None else task_path
    assert err.startswith("error: ") and str(named) in err
    assert "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_that_is_a_file_is_usage_error(tmp_path, capsys, monkeypatch,
                                           command, below):
    # Before, a run failed with a raw FileExistsError (or, below a file,
    # NotADirectoryError) after its first replica, a sweep after every point.
    runs = _count_runs(monkeypatch)
    cfg = write_config(tmp_path, experiment_doc())
    out = tmp_path / "out"
    out.write_text("kept\n")
    argv = {"run": ["run", cfg],
            "sweep": ["sweep", cfg, "--axis", "run.rounds", "--values", "20"]}
    assert main(argv[command] + ["--out", str(out / below)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out {out / below}: {out} is not a directory"]
    assert out.read_text() == "kept\n" and runs == []


def test_allocation_beyond_the_address_space_is_one_error_line(tmp_path,
                                                               capsys):
    # 12 rounds of 10**16 local steps pass the array-size check, but their
    # learning rates are 853 PiB, beyond any 64-bit machine's virtual
    # address space (at most 2**57 bytes), so the allocation fails at once.
    doc = experiment_doc(checks=[], replicas=1)
    doc["run"].update(rounds=12, local_epochs=10 ** 16)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: Unable to allocate 853. PiB")
    assert not out.exists()


def test_overflowing_spectrum_is_one_error_line(tmp_path, capsys):
    # The gradient bound's check reports it; numpy warns of nothing on the
    # way there.
    doc = experiment_doc()
    doc["task"]["spectrum"] = [1, 1e300]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: task: the gradient bound ")
    assert err[0].endswith("^2 overflows")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("trajectory_radius_factor", 1e100),
                                        ("divergence_factor", 100.0),
                                        ("schedule_on", "iteration")])
def test_retired_run_key_is_usage_error(tmp_path, capsys, key, value):
    doc = experiment_doc()
    doc["run"][key] = value
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"run.{key}: unknown key" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("batch", [0, -2, 13])
def test_batch_outside_client_dataset_is_usage_error(tmp_path, capsys, batch):
    doc = experiment_doc()      # 12 samples per client
    doc["run"]["batch_size"] = batch
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: run.batch_size: {batch} must be in [1, 12] " \
        "(task.samples_per_client)" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_negative_config_seed_is_usage_error(tmp_path, capsys):
    doc = experiment_doc()
    doc["run"]["seed"] = -1
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "run.seed" in capsys.readouterr().err


def _overflowing(case):
    doc = experiment_doc(checks=[])
    if case == "snr_db":
        doc["policy"] = {"name": "equal_power", "params": {"snr_db": 1e300}}
    else:
        doc["task"][case] = {"seed": -1, "ridge": 1e300}[case]
    return doc


@pytest.mark.parametrize("case, message", [
    ("seed", "task.seed: must be >= 0"),
    ("snr_db", "error: policy.params.snr_db: must be within ±3082 dB, "
               "not 1e+300"),
    ("ridge", "error: task.ridge: 1e+300 makes the gradient bound overflow"),
], ids=["task_seed", "snr_db", "task_ridge"])
def test_out_of_range_task_or_policy_value_is_usage_error(tmp_path, capsys,
                                                          case, message):
    # Each raised a raw ValueError or OverflowError before.
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, _overflowing(case)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["heterogeneity", "ridge", "noise_std"])
def test_non_finite_task_number_is_usage_error(tmp_path, capsys, key, value):
    # Python's json reads NaN and Infinity.  A NaN ridge was reported as a
    # non-finite model vector, an infinite one warned first, and a NaN
    # heterogeneity or noise_std as targets too large.
    doc = experiment_doc()
    doc["task"][key] = value
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
    assert caught == []
    assert capsys.readouterr().err \
        == f"error: {tmp_path / 'exp.json'}.task.{key}: expected a finite " \
           f"number, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("where, key, message", [
    ("run", "rounds", "run: rounds * local_epochs"),
    ("run", "local_epochs", "run: rounds * local_epochs"),
    (None, "replicas", "replicas: 2 * replicas * run.rounds"),
    ("task", "n_clients", "task: n_clients * samples_per_client * dim"),
    ("task", "samples_per_client", "task: n_clients * samples_per_client"),
    ("task", "dim", "task: n_clients * samples_per_client * dim"),
    ("run", "--replicas", "error: --replicas: 2 * replicas * run.rounds"),
    ("sweep", "--replicas", "error: sweep[run.rounds=5]: --replicas: 2 * "),
], ids=["rounds", "local_epochs", "replicas", "n_clients",
        "samples_per_client", "dim", "run_replicas_flag",
        "sweep_replicas_flag"])
def test_count_whose_arrays_cannot_exist_is_usage_error(tmp_path, capsys,
                                                        where, key, message):
    # Each ended in numpy's "Maximum allowed size exceeded" ValueError, or,
    # for n_clients, drew clients for far longer than a test may run.
    huge = 10 ** 30
    doc = experiment_doc()
    if where in ("run", "task") and not key.startswith("--"):
        doc[where][key] = huge
    elif where is None:
        doc[key] = huge
    cfg, out = write_config(tmp_path, doc), str(tmp_path / "o")
    argv = ["sweep", cfg, "--axis", "run.rounds", "--values", "5"] \
        if where == "sweep" else ["run", cfg]
    if key == "--replicas":
        argv += ["--replicas", str(huge)]
    assert main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert message in err and "more than one array can hold" in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not os.path.exists(out)


_POWERS = {"rho_uplink": 2.0, "rho_downlink": 2.0}


@pytest.mark.parametrize("policy, params, task, rounds, key", [
    ("mt_partial", {}, {"ridge": 1e153}, 12, "task.ridge"),
    ("mt_full", {}, {"ridge": 1e153}, 12, "task.ridge"),
    ("diversity_t2", _POWERS, {"ridge": 1e153}, 12, "task.ridge"),
    ("power_t2", {}, {"ridge": 1e153}, 12, "task.ridge"),
    # Every round finite, but their energies' sum overflows.
    ("mt_partial", {}, {"ridge": 1e152}, 80, "task.ridge"),
    ("power_t2", {"distance": 1e10, "pathloss": 40}, {}, 12,
     "policy.params.distance and policy.params.pathloss"),
    ("diversity_t2", dict(_POWERS, distance=1e-10, pathloss=40), {}, 12,
     "policy.params.distance and policy.params.pathloss"),
    ("mt_partial", {}, {"heterogeneity": 1e154}, 12, "task.heterogeneity"),
    ("mt_partial", {}, {"noise_std": 1e154}, 12, "task.noise_std"),
], ids=["ridge_mt_partial", "ridge_mt_full", "ridge_diversity_t2",
        "ridge_power_t2", "ridge_energy_sum", "far_power_t2",
        "near_diversity_t2", "heterogeneity", "noise_std"])
def test_schedule_or_task_leaving_the_floats_is_usage_error(
        tmp_path, capsys, policy, params, task, rounds, key):
    # Each raised a raw ZeroDivisionError or OverflowError, exited 1 or ran
    # with zero noise and infinite power before.
    doc = experiment_doc(policy={"name": policy, "params": params}, checks=[])
    doc["task"].update(task)
    doc["run"].update(rounds=rounds, n_participants=6 if policy == "mt_full"
                      else 3)
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case, value", [("snr_db", 3000), ("ridge", 1e100),
                                         ("pathloss", 30)])
def test_large_value_in_range_runs(tmp_path, case, value):
    # Controls: a large snr_db whose energy over the rounds is finite runs,
    # a large ridge whose gradient bound is finite runs, and so does a
    # pathloss of 3000 dB.
    doc = experiment_doc(replicas=1, checks=[])
    if case == "snr_db":
        doc["policy"] = {"name": "equal_power", "params": {"snr_db": value}}
    elif case == "pathloss":
        doc["policy"] = {"name": "power_t2",
                         "params": {"distance": 1e10, "pathloss": value}}
    else:
        doc["task"]["ridge"] = value
    doc["run"]["rounds"] = 5
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["completed"] == 1
    assert math.isfinite(summary["replicas"][0]["energy_uplink"])


@pytest.mark.parametrize("snr_db", [3082, 3079])
def test_energy_leaving_the_floats_is_usage_error(tmp_path, capsys, snr_db):
    # At 3082 dB both directions' first round already sum to inf; at 3079
    # each round is finite but the five rounds' uplink energy is not.  Both
    # exited 0 with infinite energies before.
    doc = experiment_doc(policy={"name": "equal_power",
                                 "params": {"snr_db": snr_db}}, checks=[])
    doc["run"]["rounds"] = 5
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: policy.params.snr_db: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_diversity_policy_without_powers_is_usage_error(tmp_path, capsys):
    doc = experiment_doc(policy={"name": "diversity_t2",
                                 "params": {"rho_uplink": 2.0}})
    doc["run"]["channel"] = "analog_physical"
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error: policy.params: policy 'diversity_t2' needs parameters " \
        "['rho_downlink']" in capsys.readouterr().err


@pytest.mark.parametrize("name, params, key", [
    ("equal_power", {"snr_db": "ten"}, "snr_db"),
    ("equal_power", {"snr_db": None}, "snr_db"),
    ("mt_full", {"variance_scale": 0}, "variance_scale"),
    ("mt_full", {"variance_scale": math.inf}, "variance_scale"),
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
    assert f"error: policy.params.{key}: must" in err
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
    assert "error: run.mode: policy 'mdt_constant_snr' needs mode 'MDT'" \
        in capsys.readouterr().err


def test_mt_full_with_partial_participation_is_usage_error(tmp_path, capsys):
    # mt_full schedules the noise of every client; K < N would ignore K.
    doc = experiment_doc(policy={"name": "mt_full", "params": {}})
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error: run.n_participants: policy 'mt_full' needs every client " \
        "(6) to take part; use 'mt_partial'" in capsys.readouterr().err


def test_mt_full_weights_are_unknown_parameter(tmp_path, capsys):
    # mt_full splits its noise budget equally; per-client weights are gone.
    doc = experiment_doc(policy={"name": "mt_full",
                                 "params": {"weights": [2, 1, 1, 1, 1, 1]}})
    doc["run"]["n_participants"] = 6
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: policy.params: unknown parameters ['weights']" in err
    assert "Traceback" not in err
    assert not out.exists()
    # The same experiment without weights still runs.
    doc["policy"]["params"] = {}
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0


def test_weighted_mt_full_on_analog_channel_is_usage_error(tmp_path, capsys):
    # Weights are an unknown parameter on the analog channel too.
    doc = experiment_doc(policy={"name": "mt_full",
                                 "params": {"weights": [2, 1, 1, 1, 1, 1]}})
    doc["run"].update(n_participants=6, channel="analog_physical")
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: policy.params: unknown parameters ['weights']" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
    # mt_full without weights still runs on the analog channel.
    doc["policy"]["params"] = {}
    doc["checks"] = []
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o2")]) == 0


def test_mdt_constant_snr_on_analog_channel_is_usage_error(tmp_path, capsys):
    # The analog uplink would send the SNR target as a transmit power, so
    # the uplink noise would not follow the differentials: rejected.
    doc = experiment_doc(policy={"name": "mdt_constant_snr",
                                 "params": {"snr_target": 5.0}})
    doc["run"].update(mode="MDT", channel="analog_physical")
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: run.channel: policy 'mdt_constant_snr' needs channel " \
        "'effective_noise', not 'analog_physical'" in err
    assert "Traceback" not in err
    assert not out.exists()
    # The same experiment on the effective-noise channel still runs.
    doc["run"]["channel"] = "effective_noise"
    doc["checks"] = []
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o2")]) == 0


# SHA-256 of summary.json and mean_trace.csv of a 12-round, 2-replica family
# per preset, with the bound and schedule checks where the preset has a
# schedule: they pin each check's estimate (``schedule_excess`` included),
# the resolved ``rate_constant`` and ``bound_variant``, the emitted policy
# parameters and the mean trace.  Captured at stream layout 8, which both
# files name.
_PRESET_FAMILIES = {
    "noise_free": ({}, {}),
    "equal_power": ({"snr_db": 12.0}, {}),
    "mt_full": ({}, {"n_participants": 6}),
    "mt_partial": ({}, {}),
    "mdt_constant_snr": ({"snr_target": 5.0}, {"mode": "MDT"}),
    "power_t2": ({"distance": 1.5}, {"channel": "analog_physical"}),
    "diversity_t2": ({"rho_uplink": 5.0, "rho_downlink": 5.0},
                     {"channel": "analog_physical"}),
}
GOLDEN_RUN_FILES = {
    "noise_free": (
        "912658ef7e91b7a8887df002b0e317f10ada770e4f2291bc7164586452b76afd",
        "997f29cf1ab1068e4c1e18b6636cacd85a7aaa6e935cba4d738bffc67cf2de1b"),
    "equal_power": (
        "a354fd7a7fa788013fc45a9522cbaf4cae2cb24b845dabfe39936f94397921a6",
        "48f8b04b2d56582f898176094a414edded5af46fd454e198ff9a3d558fbddd18"),
    "mt_full": (
        "d67512e6f35aa54c1dfa6524773958f99255158fc700170b2b75c338e4ecd031",
        "b426678b858dcf64d0e1074702c431935610ea03b971141384577d6d75b8d644"),
    "mt_partial": (
        "055d97fb84b9b3f1951578fa896afb196a63508b7a3692a850e4f26405c191fd",
        "b9a7e034477b9ef2427d27a6e1cf49e5a5b929296600f03b91825ce94733e93a"),
    "mdt_constant_snr": (
        "1f66f542bfa03ae7efe07cbb7f923f538fc9ff38c82446d4544a3ae96499ca52",
        "9bedf4edecea82931e8a408a4a9ccb7fda0ed66b47359d1b6eb93c1586934962"),
    "power_t2": (
        "2dd5d38e04c58854533a1aab4219dbda42fbe0e7bb5092ff76313e4bbccb7f21",
        "f042a9616132a6c4fc8b856bb475afc3864ea1f8b3e2f656ef87cd650965229a"),
    "diversity_t2": (
        "1affbebf95a435b638b1eb952a2079b313f1a6beac9d78d1f0059d825d2a846e",
        "bede8681044e1830c16afca0fbe435065929924ff7ada71ef35194189a8eda60"),
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


# SHA-256 of sweep.csv of a 12-round, 2-replica equal_power sweep over a
# fitted point and a diverged one (every cell nan).  Captured at stream
# layout 8.
GOLDEN_SWEEP_FILE = \
    "c055018cce0fe8811eb9fbc61da34a392170661f03d75d8131682c5de3394347"


def _sweep_digest(tmp_path):
    doc = experiment_doc(policy={"name": "equal_power",
                                 "params": {"snr_db": 10.0}},
                         replicas=2, checks=[])
    doc["run"]["rounds"] = 12
    out = tmp_path / "sw"
    assert main(["sweep", write_config(tmp_path, doc), "--axis",
                 "policy.params.snr_db", "--values", "12,-90", "--out",
                 str(out)]) == 1
    return hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()


def test_sweep_file_matches_golden(tmp_path):
    assert _sweep_digest(tmp_path) == GOLDEN_SWEEP_FILE


def _rewritten_digest(path, leak=False):
    """SHA-256 of the CSV file at ``path`` written again by
    ``traceio.write_csv`` from its config, header and cells; with ``leak``,
    its last cell as an ``np.float64``."""
    config_line, header, *lines = path.read_text().splitlines()
    rows = [[int(cell) if cell.lstrip("-").isdigit() else float(cell)
             for cell in line.split(",")] for line in lines]
    if leak:
        rows[-1][-1] = np.float64(rows[-1][-1])
    traceio.write_csv(path, header.split(","), zip(*rows),
                      json.loads(config_line[len("# config: "):]))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", ["mean_trace.csv", "sweep.csv"])
def test_numpy_scalar_cell_fails_table_bytes_golden(tmp_path, name):
    # write_csv gives a golden file's bytes back from its cells; negative
    # control: one cell that leaks as np.float64 reprs differently.
    if name == "sweep.csv":
        _sweep_digest(tmp_path)
        path, golden = tmp_path / "sw" / name, GOLDEN_SWEEP_FILE
    else:
        params, run = _PRESET_FAMILIES["mt_partial"]
        _family_digests(tmp_path, "mt_partial", params, run)
        path = tmp_path / "out" / name
        golden = GOLDEN_RUN_FILES["mt_partial"][1]
    assert _rewritten_digest(path) == golden
    assert _rewritten_digest(path, leak=True) != golden
