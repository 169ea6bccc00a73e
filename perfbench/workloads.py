"""The benchmark's workloads: each one's CLI call and the outputs it must give.

A workload's inputs come from the workload seed alone.  A run workload's whole
call is one seed-averaged family of ``replicas`` consecutive replica seeds
through ``noisyfed run --workers 1``, with the checks; workload seed s runs
replicas s*R .. s*R + R - 1, so seeds give disjoint families.  Its timed passes
are one-replica calls of the same family's replica seeds, in turn, without
checks, so each one's trace must equal the family's trace of that replica.
``verify_oracles`` passes the workload seed to ``noisyfed verify``; its timed
passes repeat the whole call.
"""

import json
import os

TASK_FULL = {"n_clients": 10, "dim": 20, "samples_per_client": 40,
             "heterogeneity": 1.0, "ridge": 0.05, "noise_std": 32.0,
             "seed": 7}
TASK_PARTIAL = dict(TASK_FULL, n_clients=50, seed=11)

CHECKS = [{"kind": "bound"},
          {"kind": "slope", "window": [50, 200], "range": [-1.3, -0.7]},
          {"kind": "schedule"}]

ROUNDS = 200
# The gate's own copy of the trace header, so a format change shows.
TRACE_COLUMNS = ("t", "sq_dist", "loss", "eta", "sigma2_ul", "zeta2_dl",
                 "rho_ul", "rho_dl", "div_ul", "div_dl", "snr_global",
                 "energy_cum")


def _run(**overrides):
    run = {"rounds": ROUNDS, "local_epochs": 5, "batch_size": 4}
    run.update(overrides)
    return run


WORKLOADS = {
    "full_mt": {
        "task": TASK_FULL,
        "run": _run(n_participants=10, mode="MT", channel="effective_noise",
                    distribution="gaussian"),
        "policy": {"name": "mt_full", "params": {}},
        "replicas": 20,
        "known_failing": (),
    },
    "partial_mdt": {
        "task": TASK_PARTIAL,
        "run": _run(n_participants=5, mode="MDT"),
        "policy": {"name": "mdt_constant_snr", "params": {"snr_target": 10.0}},
        "replicas": 20,
        "known_failing": (),
    },
    # The realized analog downlink noise is about 5x the scheduled zeta2_dl,
    # so the slope misses its range at this revision.  The check stays in the
    # experiment and is reported with its estimate; it is not gated, so a fix
    # shows as it turning to PASS.
    "analog_diversity": {
        "task": TASK_FULL,
        "run": _run(n_participants=10, mode="MT", channel="analog_physical"),
        "policy": {"name": "diversity_t2",
                   "params": {"rho_uplink": 10.0, "rho_downlink": 10.0}},
        "replicas": 4,
        "known_failing": ("check_slope",),
    },
    "verify_oracles": {
        "verify_replicas": 100_000,
        "min_checks": 12,
    },
}


def is_run_workload(name):
    return "task" in WORKLOADS[name]


def experiment(name, seed):
    """The experiment document of a run workload for one workload seed."""
    spec = WORKLOADS[name]
    return {"task": dict(spec["task"]),
            "run": dict(spec["run"], seed=seed * spec["replicas"]),
            "policy": {"name": spec["policy"]["name"],
                       "params": dict(spec["policy"]["params"])},
            "replicas": spec["replicas"],
            "checks": [dict(c) for c in CHECKS]}


def write_experiments(name, seed, run_dir):
    """Write a run workload's experiment file and its timed passes' file."""
    if not is_run_workload(name):
        return
    doc = experiment(name, seed)
    with open(os.path.join(run_dir, "experiment.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh)
    with open(os.path.join(run_dir, "sample.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(doc, replicas=1, checks=[]), fh)


def cli_argv(name, seed, run_dir, out_dir):
    """Arguments of the workload's whole ``noisyfed.cli.main`` call."""
    if is_run_workload(name):
        return ["run", os.path.join(run_dir, "experiment.json"),
                "--workers", "1", "--out", out_dir]
    return ["verify", "all", "--replicas",
            str(WORKLOADS[name]["verify_replicas"]), "--seed", str(seed)]


def sample_replica(name, k):
    """The family replica that timed pass k runs (None: the whole call)."""
    if not is_run_workload(name):
        return None
    return k % WORKLOADS[name]["replicas"]


def sample_argv(name, seed, k, run_dir, out_dir):
    """Arguments of timed pass k of the workload."""
    replica = sample_replica(name, k)
    if replica is None:
        return cli_argv(name, seed, run_dir, out_dir)
    base = seed * WORKLOADS[name]["replicas"]
    return ["run", os.path.join(run_dir, "sample.json"), "--workers", "1",
            "--seed", str(base + replica), "--out", out_dir]
