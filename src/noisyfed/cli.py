"""Command-line harness: reproducible runs, verification suites, and sweeps.

Subcommands:

* ``run <config.json>`` — execute the configured replicas, write one trace CSV
  per replica as it completes plus a seed-averaged summary, evaluate the
  configured checks.
* ``verify <scope>`` — run the statistical oracle suites (``lemmas``), the
  schedule/bound checks (``theorems``), or both (``all``).
* ``sweep <config.json> --axis <dotted.path> --values a,b,c`` — re-run the
  experiment across a numeric axis and tabulate final distance, fitted slope,
  and total energy.

Exit status is 0 iff everything requested passed; 1 on failed checks or
diverged or failed replicas; 2 on usage or configuration errors.
"""

import argparse
import copy
import dataclasses
import functools
import math
import os
import sys
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import analysis, traceio
from .config import load_experiment, parse_experiment
from .engine import RunConfig, family_inputs, run
from .errors import (ChannelError, ConfigError, DivergenceError,
                     NoisyFedError, StatisticalPowerError)
from .policies import (PRESETS, LearningRateSchedule, mt_full_noise,
                       mt_partial_noise)
from .seeding import DOMAIN_ORACLE, STREAM_LAYOUT, stream
from .tasks import derive_constants, load_task, make_task


def build_task(experiment):
    if experiment.task_file:
        return load_task(experiment.task_file)
    return make_task(**experiment.task)


def replica_config(experiment, replica, base_seed):
    run_params = dict(experiment.run)
    run_params.pop("seed", None)
    return RunConfig(seed=base_seed + replica,
                     policy_name=experiment.policy_name,
                     policy_params=experiment.policy_params,
                     **run_params)


def resolved_config(experiment, policy, constants, replica, seed):
    """Everything needed to reproduce and interpret one replica's trace."""
    derived = {name: getattr(constants, name) for name in (
        "mu", "lipschitz", "kappa", "gamma_noniid", "grad_bound",
        "opt_value", "trajectory_radius")}
    resolved = {
        "experiment": experiment.to_dict(),
        "replica": replica,
        "seed": seed,
        "stream_layout": STREAM_LAYOUT,
        "policy": {"name": policy.name, "params": policy.params()},
        "derived": dict(derived, sgd_var=list(constants.sgd_var),
                        lr_gamma=policy.lr.gamma, lr_beta=policy.lr.beta,
                        initial_gap=constants.initial_gap),
    }
    if policy.preset.bound is not None:
        resolved["derived"]["rate_constant"] = analysis.rate_constant(
            policy, constants)
        resolved["derived"]["bound_variant"] = policy.preset.bound
    return resolved


class Replica(NamedTuple):
    """A completed replica's finals, as its ``summary.json`` entry lists
    them."""

    final_sq_dist: float
    final_loss: float
    energy_uplink: float
    energy_downlink: float
    diagnostics: dict


def _run_replica(setup, experiment, replica, base_seed, out):
    """Run one replica on its family's :func:`family_setup`; with ``out``,
    write its trace there as soon as it completes.  Returns its
    :class:`Replica` and its squared distances and losses as a ``(2, T)``
    array, or, for a diverged or failed replica, its ``{"replica", "kind",
    "error"}`` and None."""
    try:
        result = run(setup[0], replica_config(experiment, replica, base_seed),
                     setup[1:])
    except (DivergenceError, ChannelError) as exc:
        kind = "channel" if isinstance(exc, ChannelError) else "divergence"
        return {"replica": replica, "kind": kind, "error": str(exc)}, None
    traces = result.traces
    if out is not None:
        # Made just before its first file: a directory made a whole run
        # earlier costs each write more on some file systems.
        os.makedirs(out, exist_ok=True)
        traceio.write_trace(
            os.path.join(out, f"trace_rep{replica:03d}.csv"), traces,
            resolved_config(experiment, result.policy, result.constants,
                            replica, base_seed + replica))
    return Replica(traces[-1].sq_dist, traces[-1].loss, result.energy_uplink,
                   result.energy_downlink, result.diagnostics), np.array(
        [[tr.sq_dist for tr in traces], [tr.loss for tr in traces]])


class Family(NamedTuple):
    """A seed family's outcome, without its traces: the completed replicas
    as ``(replica, Replica)`` pairs, their squared distances and losses as
    ``(completed, T)`` arrays, the diverged or failed replicas' entries, the
    rounds 1..T and the completed replicas' mean per round (empty arrays
    when none completed), and the policy, constants and round schedule
    (:func:`engine.family_inputs`) that every replica shared."""

    completed: list
    diverged: list
    sq_dist: np.ndarray
    loss: np.ndarray
    rounds: np.ndarray
    mean_sq: np.ndarray
    mean_loss: np.ndarray
    policy: object
    constants: object
    schedule: list


def family_setup(experiment, base_seed, task=None):
    """What every replica of an experiment's family, seeded from
    ``base_seed``, shares: the task (built here unless given), then the
    policy, constants and round schedule of :func:`engine.family_inputs`.
    It raises every configuration error that the first replica would."""
    if task is None:
        task = build_task(experiment)
    return (task, *family_inputs(task, replica_config(experiment, 0,
                                                      base_seed)))


def run_family(experiment, base_seed, workers=1, setup=None, out=None):
    """Run an experiment's replicas, seeded ``base_seed + replica``, on
    ``workers`` processes, and return their :class:`Family`.  Its
    :func:`family_setup` (made here unless given) comes first, so no replica
    runs on a bad configuration.  With ``out``, each replica's trace is
    written there as it completes."""
    setup = setup or family_setup(experiment, base_seed)
    replicas, rounds = experiment.replicas, len(setup[3])
    args = (repeat(setup), repeat(experiment), range(replicas),
            repeat(base_seed), repeat(out))
    if workers == 1:
        outcomes = map(_run_replica, *args)
    else:
        from concurrent.futures import ProcessPoolExecutor
        workers = min(workers, replicas)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_replica, *args,
                                     chunksize=-(-replicas // workers)))
    sq_dist, loss = np.empty((2, replicas, rounds))
    completed, diverged = [], []
    for replica, (record, columns) in enumerate(outcomes):
        if columns is None:
            diverged.append(record)
        else:
            sq_dist[len(completed)], loss[len(completed)] = columns
            completed.append((replica, record))
    sq_dist, loss = sq_dist[:len(completed)], loss[:len(completed)]
    means = [a.mean(axis=0) if completed else np.array([])
             for a in (sq_dist, loss)]
    return Family(completed, diverged, sq_dist, loss,
                  np.arange(1.0, rounds + 1), *means, *setup[1:])


def _evaluate_checks(experiment, family):
    """Evaluate the experiment's checks on a family's seed-averaged trace;
    the schedule check judges each round's :class:`RoundPolicy` of the
    family's schedule against that round's cap, so it runs even when no
    replica completed."""
    reports = []
    rounds, mean_sq = family.rounds, family.mean_sq
    for check in experiment.checks:
        kind = check["kind"]
        if kind == "schedule":
            # The parser allows only schedule-backed presets.
            excess = max(family.policy.schedule_excess(t, rp)
                         for t, rp in enumerate(family.schedule, 1))
            reports.append(analysis.OracleReport(
                name="check_schedule", passed=excess <= 1e-9, estimate=excess,
                reference=0.0, tolerance=1e-9,
                detail="max relative excess over the admissible noise power"))
        elif not family.completed:
            reports.append(analysis.OracleReport(
                name=f"check_{kind}", passed=False, estimate=math.nan,
                reference=math.nan, tolerance=0.0,
                detail="no completed replicas"))
        elif kind == "bound":
            bounds = np.array([analysis.convergence_bound(
                int(t), family.policy, family.constants) for t in rounds])
            ratio = float(np.max(mean_sq / bounds))
            reports.append(analysis.OracleReport(
                name="check_bound", passed=ratio <= 1.0, estimate=ratio,
                reference=1.0, tolerance=0.0,
                detail=f"max(mean/bound) over {len(rounds)} rounds"))
        elif kind == "slope":
            window = tuple(check.get("window", analysis.default_slope_window(
                len(rounds))))
            lo, hi = check.get("range", (-1.3, -0.7))
            fit = analysis.fit_rate(rounds, mean_sq, window)
            reports.append(analysis.OracleReport(
                name="check_slope", passed=lo <= fit.slope <= hi,
                estimate=fit.slope, reference=0.5 * (lo + hi),
                tolerance=0.5 * (hi - lo),
                detail=f"window={window} range=[{lo},{hi}]"))
    return reports


def _check_overrides(args):
    """Reject command-line overrides that the experiment file would reject."""
    if args.replicas is not None and args.replicas < 1:
        raise ConfigError("--replicas: must be >= 1")
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed: must be >= 0")
    if getattr(args, "workers", 1) < 1:
        raise ConfigError("--workers: must be >= 1")


def cmd_run(args):
    _check_overrides(args)
    experiment = load_experiment(args.config)
    if args.replicas is not None:
        experiment.replicas = args.replicas
    base_seed = args.seed if args.seed is not None \
        else experiment.run.get("seed", 0)
    family = run_family(experiment, base_seed, args.workers, out=args.out)
    completed, diverged = family.completed, family.diverged
    reports = _evaluate_checks(experiment, family)

    os.makedirs(args.out, exist_ok=True)    # no replica may have made it
    finals = [{"replica": replica, "seed": base_seed + replica,
               **dict(zip(Replica._fields[:-1], record)),
               **record.diagnostics} for replica, record in completed]
    summary = {
        "experiment": experiment.to_dict(),
        "base_seed": base_seed,
        "completed": len(finals),
        "diverged": diverged,
        "replicas": finals,
    }
    if completed:
        replica = completed[0][0]
        resolved = resolved_config(experiment, family.policy,
                                   family.constants, replica,
                                   base_seed + replica)
        traceio.write_mean_trace(os.path.join(args.out, "mean_trace.csv"),
                                 family.rounds, family.mean_sq,
                                 family.mean_loss, resolved_config=resolved)
        summary["resolved"] = resolved
        summary["mean_final_sq_dist"] = float(family.mean_sq[-1])
    # With no completed replica, the schedule check still has an estimate.
    summary["checks"] = [
        {"name": r.name, "passed": r.passed, "estimate": r.estimate,
         "reference": r.reference, "tolerance": r.tolerance,
         "detail": r.detail}
        for r in reports]

    traceio.write_json(os.path.join(args.out, "summary.json"), summary)
    for report in reports:
        print(report.line())
    if diverged:
        print(f"[WARN] {len(diverged)} replica(s) diverged or failed; "
              "see summary.json")
    if completed:
        print(f"completed {len(finals)}/{experiment.replicas} replicas; "
              f"mean final squared distance {summary['mean_final_sq_dist']:.6g}")
    failed = bool(diverged) or any(not r.passed for r in reports)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_TASK = {"n_clients": 6, "dim": 6, "samples_per_client": 12,
               "heterogeneity": 1.0, "ridge": 0.1, "noise_std": 4.0, "seed": 5}


def _verify_task():
    return make_task(**VERIFY_TASK)


def _lemma_reports(replicas, seed):
    task = _verify_task()
    constants = derive_constants(task, batch=3, trajectory_radius=8.0)
    lr = LearningRateSchedule.from_constants(constants, 3)
    reports = []

    reports.append(analysis.aggregation_noise_oracle(
        n_clients=4, dim=3, variances=0.5,
        replicas=max(replicas, 100_000),
        rng=stream(seed, DOMAIN_ORACLE, 0, 1)))

    rng = stream(seed, DOMAIN_ORACLE, 0, 2)
    start = constants.opt + rng.normal(size=task.dim)
    models = analysis.local_sgd(task, np.arange(task.n_clients), start,
                                lr.etas(3), batch=3, rng=rng)
    reports.append(analysis.client_sampling_oracle(
        models, n_participants=2, eta=lr.eta(3), local_epochs=3,
        grad_bound=constants.grad_bound))

    for epochs, snr in ((1, 1.0), (5, 10.0)):
        reports.append(analysis.differential_upload_oracle(
            task, w_prev=constants.opt + 0.5, n_participants=2,
            snr_target=snr, downlink_variance=0.1, local_epochs=epochs,
            batch=3, replicas=replicas,
            rng=stream(seed, DOMAIN_ORACLE, epochs, 3)))

    state = np.stack([constants.opt + 0.3 * rng.normal(size=task.dim)
                      for _ in range(task.n_clients)])
    reports.append(analysis.sgd_one_step_oracle(
        task, state, lr, iter_index=4, batch=3, replicas=replicas,
        rng=stream(seed, DOMAIN_ORACLE, 0, 4), constants=constants))
    return reports


def _theorem_reports(noise_scale, seed):
    task = _verify_task()
    constants = derive_constants(task, batch=3, trajectory_radius=8.0)
    lr = LearningRateSchedule.from_constants(constants, 3)
    n_clients, n_participants, epochs, rounds = task.n_clients, 2, 3, 60
    reports = []

    # Closed-form identity: the upload schedule's noise power one round ahead
    # equals (clients^2 or participants) times the squared learning rate.
    t_probe = np.arange(1, 200)
    full = np.array([mt_full_noise(int(t) + 1, n_clients, lr)[0]
                     for t in t_probe])
    target = n_clients ** 2 * np.array([lr.eta(int(t)) ** 2 for t in t_probe])
    ident_full = float(np.max(np.abs(full / target - 1.0)))
    part = np.array([mt_partial_noise(int(t) + 1, n_clients, n_participants,
                                      lr)[0] for t in t_probe])
    target_p = n_participants * np.array([lr.eta(int(t)) ** 2
                                          for t in t_probe])
    ident_part = float(np.max(np.abs(part / target_p - 1.0)))
    reports.append(analysis.OracleReport(
        name="noise_tracks_sgd_floor", passed=max(ident_full, ident_part) < 1e-9,
        estimate=max(ident_full, ident_part), reference=0.0, tolerance=1e-9,
        detail="schedule(t+1) vs squared learning rate identity"))

    # The presets whose schedule carries its own bound, at their defaults,
    # each run as a family of noisyfed run and judged with its own constants.
    params = {} if noise_scale == 1.0 else {"variance_scale": noise_scale}
    for name in analysis.BOUND_VARIANTS:
        preset = PRESETS[name]
        experiment = parse_experiment({
            "task": VERIFY_TASK,
            "run": {"n_participants": n_clients if preset.every_client
                    else n_participants, "rounds": rounds,
                    "local_epochs": epochs, "batch_size": 3,
                    "mode": preset.mode or "MT"},
            "policy": {"name": name, "params": params},
            "replicas": 5,
            "checks": [{"kind": "schedule"}, {"kind": "bound"}],
        }, source=f"verify[{name}]")
        family = run_family(experiment, seed + 100)
        schedule, bound = _evaluate_checks(experiment, family)
        reports.append(dataclasses.replace(
            schedule, name=f"schedule_admissible[{name}]",
            detail="relative excess over the admissible noise power"))
        detail = f"max(mean/bound), 5 seeds x {rounds} rounds"
        if family.diverged:
            detail += f"; {len(family.diverged)} of 5 diverged"
        reports.append(dataclasses.replace(
            bound, name=f"bound_holds[{name}]",
            passed=bound.passed and not family.diverged, detail=detail))
    return reports


def cmd_verify(args):
    _check_overrides(args)
    reports = []
    if args.scope in ("lemmas", "all"):
        reports.extend(_lemma_reports(args.replicas, args.seed))
    lemmas = len(reports)
    if args.scope in ("theorems", "all"):
        reports.extend(_theorem_reports(args.noise_scale, args.seed))
    for i, report in enumerate(reports):
        if i == lemmas:     # the bound_holds estimates run engine.run
            print(f"stream layout {STREAM_LAYOUT}")
        print(report.line())
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _axis_lookup(doc, axis):
    node = doc
    parts = axis.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"axis {axis!r}: no such path")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"axis {axis!r}: no such path")
    value = node[leaf]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"axis {axis!r}: not a numeric field")
    return node, leaf


def _parse_values(text):
    values = []
    for chunk in filter(None, map(str.strip, text.split(","))):
        try:
            value = float(chunk)
        except ValueError:
            raise ConfigError(f"--values: {chunk!r} is not a number") from None
        values.append(int(value) if value.is_integer() else value)
    if not values:
        raise ConfigError("--values must list at least one number")
    return values


def cmd_sweep(args):
    _check_overrides(args)
    experiment = load_experiment(args.config)
    doc = experiment.to_dict()
    node, leaf = _axis_lookup(doc, args.axis)
    values = _parse_values(args.values)
    was_int = isinstance(node[leaf], int) and not isinstance(node[leaf], bool)

    # Every point is set up first: a bad value anywhere runs no family.  The
    # points share one task per distinct task document.
    points, tasks = [], {}
    for value in values:
        point = copy.deepcopy(doc)
        pnode, pleaf = _axis_lookup(point, args.axis)
        pnode[pleaf] = int(value) if was_int and float(value).is_integer() \
            else value
        label = f"sweep[{args.axis}={value}]"
        point_exp = parse_experiment(point, source=label)
        if args.replicas is not None:
            point_exp.replicas = args.replicas
        base_seed = args.seed if args.seed is not None \
            else point_exp.run.get("seed", 0)
        key = traceio.canonical_json(point["task"])
        try:
            if key not in tasks:
                tasks[key] = build_task(point_exp)
            setup = family_setup(point_exp, base_seed, tasks[key])
        except ConfigError as exc:
            raise ConfigError(f"{label}: {exc}") from None
        points.append((value, point_exp, base_seed, setup))

    lines = [f"# config: {traceio.canonical_json({'experiment': doc, 'axis': args.axis})}",
             "value,final_sq_dist,slope,total_energy"]
    failed = False
    print(f"{'value':>12s} {'final_sq_dist':>14s} {'slope':>8s} {'energy':>12s}")
    for value, point_exp, base_seed, setup in points:
        family = run_family(point_exp, base_seed, args.workers, setup)
        completed, diverged = family.completed, family.diverged
        final = slope = energy = math.nan
        unfitted = None
        if not completed:
            print(f"{value:>12g} {'diverged':>14s}")
        else:
            mean_sq = family.mean_sq
            final = float(mean_sq[-1])
            window = analysis.default_slope_window(len(mean_sq))
            try:
                slope = analysis.fit_rate(family.rounds, mean_sq,
                                          window).slope
            except ConfigError as exc:
                unfitted = f"slope window {list(window)}: {exc}"
            energy = float(np.mean([r.energy_uplink + r.energy_downlink
                                    for _, r in completed]))
            print(f"{value:>12g} {final:>14.6g} {slope:>8.3f} {energy:>12.6g}")
        lines.append(f"{value},{final!r},{slope!r},{energy!r}")
        if unfitted:
            print(f"[WARN] {args.axis}={value:g}: {unfitted}")
        if diverged:
            failed = True
            print(f"[WARN] {args.axis}={value:g}: {len(diverged)}/"
                  f"{point_exp.replicas} replica(s) diverged or failed")

    os.makedirs(args.out, exist_ok=True)
    traceio.atomic_write_text(os.path.join(args.out, "sweep.csv"),
                              "\n".join(lines) + "\n")
    return 1 if failed else 0


@functools.cache
def make_parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="noisyfed",
        description="Federated averaging over noisy channels: run, verify, sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the base seed")
    p_run.add_argument("--replicas", type=int, default=None)
    p_run.add_argument("--out", default="noisyfed-out")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("scope", choices=("lemmas", "theorems", "all"))
    p_verify.add_argument("--replicas", type=int, default=10_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--noise-scale", type=float, default=1.0,
                          help="test hook: scale schedule noise (negative control)")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep one numeric config axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True,
                         help="dotted path, e.g. policy.params.snr_target")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numbers")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--replicas", type=int, default=None)
    p_sweep.add_argument("--out", default="noisyfed-out")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StatisticalPowerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoisyFedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
