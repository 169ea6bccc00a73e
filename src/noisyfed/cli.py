"""Command-line harness: reproducible runs, verification suites, and sweeps.

Subcommands:

* ``run <config.json>`` — execute the configured replicas, write one trace CSV
  per replica plus a seed-averaged summary, evaluate the configured checks.
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
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import analysis, traceio
from .config import load_experiment, parse_experiment
from .engine import (RunConfig, round_schedule, run, run_constants,
                     run_policy)
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


def resolved_config(experiment, result, replica, seed):
    """Everything needed to reproduce and interpret one replica's trace."""
    c = result.constants
    resolved = {
        "experiment": experiment.to_dict(),
        "replica": replica,
        "seed": seed,
        "stream_layout": STREAM_LAYOUT,
        "policy": {"name": result.policy.name,
                   "params": result.policy.params()},
        "derived": {
            "mu": c.mu,
            "lipschitz": c.lipschitz,
            "kappa": c.kappa,
            "gamma_noniid": c.gamma_noniid,
            "grad_bound": c.grad_bound,
            "sgd_var": list(c.sgd_var),
            "opt_value": c.opt_value,
            "trajectory_radius": c.trajectory_radius,
            "lr_gamma": result.policy.lr.gamma,
            "lr_beta": result.policy.lr.beta,
            "initial_gap": _initial_gap(c),
        },
    }
    if result.policy.preset.bound is not None:
        resolved["derived"]["rate_constant"] = analysis.rate_constant(
            _bound_spec(result))
        resolved["derived"]["bound_variant"] = result.policy.preset.bound
    return resolved


def _initial_gap(constants):
    """The squared distance from the zero start to the optimum."""
    return float(np.sum(constants.opt ** 2))


def _bound_spec(result):
    """The convergence bound of a run's family, from the policy and the
    constants the run used."""
    policy = result.policy
    return analysis.BoundSpec(
        variant=policy.preset.bound,
        constants=result.constants,
        local_epochs=policy.lr.local_epochs,
        n_clients=policy.n_clients,
        n_participants=policy.n_participants,
        dim=result.constants.opt.size,
        initial_gap=_initial_gap(result.constants),
        snr_target=policy.params().get("snr_target"),
    )


def _run_replicas(setup, experiment, replicas, base_seed):
    """Run the given replicas of an experiment on its family's
    :func:`family_setup`."""
    task, *shared = setup
    results = []
    for replica in replicas:
        try:
            result, error = run(task, replica_config(
                experiment, replica, base_seed), *shared), None
        except DivergenceError as exc:
            result, error = None, {"kind": "divergence", "error": str(exc)}
        except ChannelError as exc:
            result, error = None, {"kind": "channel", "error": str(exc)}
        results.append((replica, result, error))
    return results


class Family(NamedTuple):
    """A seed family's outcome: the completed ``(replica, result)`` pairs,
    the diverged or failed replicas as ``{"replica", "kind", "error"}``
    entries, the mean trace of the completed replicas (empty arrays when none
    completed), the policy every replica ran and its round schedule, one
    :class:`RoundPolicy` per round (:func:`engine.round_schedule`)."""

    completed: list
    diverged: list
    rounds: np.ndarray
    mean_sq: np.ndarray
    mean_loss: np.ndarray
    policy: object
    schedule: list


def family_setup(experiment, base_seed):
    """What every replica of an experiment's family, seeded from
    ``base_seed``, shares: the task, then the policy, constants and round
    schedule that :func:`engine.run` takes after the config.  It raises
    every configuration error that the first replica would."""
    task = build_task(experiment)
    config = replica_config(experiment, 0, base_seed)
    constants = run_constants(task, config)
    policy = run_policy(task, config, constants)
    return task, policy, constants, round_schedule(policy, config)


def run_family(experiment, base_seed, workers=1, setup=None):
    """Run an experiment's replicas, seeded ``base_seed + replica``, and
    return their :class:`Family`.  Its :func:`family_setup` (made here
    unless given) comes first, so no replica runs on a bad configuration.
    """
    setup = setup or family_setup(experiment, base_seed)
    _, policy, _, schedule = setup
    shares = [range(i, experiment.replicas, workers)
              for i in range(min(workers, experiment.replicas))]
    if workers == 1:
        results = _run_replicas(setup, experiment, shares[0], base_seed)
    else:
        with ProcessPoolExecutor(max_workers=len(shares)) as pool:
            results = sorted((r for share in pool.map(
                _run_replicas, repeat(setup), repeat(experiment), shares,
                repeat(base_seed))
                for r in share), key=lambda r: r[0])
    completed = [(replica, result) for replica, result, err in results
                 if err is None]
    diverged = [{"replica": replica, **err} for replica, _, err in results
                if err is not None]
    if not completed:
        return Family(completed, diverged, *(np.array([]),) * 3, policy,
                      schedule)
    rounds = np.array([tr.t for tr in completed[0][1].traces], dtype=float)
    mean_sq = np.mean([[tr.sq_dist for tr in r.traces]
                       for _, r in completed], axis=0)
    mean_loss = np.mean([[tr.loss for tr in r.traces]
                         for _, r in completed], axis=0)
    return Family(completed, diverged, rounds, mean_sq, mean_loss, policy,
                  schedule)


def _evaluate_checks(experiment, family):
    """Evaluate the experiment's checks on a family's seed-averaged trace;
    the schedule check judges each round's :class:`RoundPolicy` of the
    family's schedule against that round's cap, so it runs even when no
    replica completed."""
    reports = []
    rounds, mean_sq = family.rounds, family.mean_sq
    first = family.completed[0][1] if family.completed else None
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
        elif first is None:
            reports.append(analysis.OracleReport(
                name=f"check_{kind}", passed=False, estimate=math.nan,
                reference=math.nan, tolerance=0.0,
                detail="no completed replicas"))
        elif kind == "bound":
            spec = _bound_spec(first)
            bounds = np.array([analysis.convergence_bound(int(t), spec)
                               for t in rounds])
            ratio = float(np.max(mean_sq / bounds))
            reports.append(analysis.OracleReport(
                name="check_bound", passed=ratio <= 1.0, estimate=ratio,
                reference=1.0, tolerance=0.0,
                detail=f"max(mean/bound) over {len(rounds)} rounds"))
        elif kind == "slope":
            total = int(rounds[-1])
            window = tuple(check.get("window", (max(total // 4, 1), total)))
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
    family = run_family(experiment, base_seed, args.workers)
    completed, diverged = family.completed, family.diverged
    reports = _evaluate_checks(experiment, family)

    os.makedirs(args.out, exist_ok=True)
    finals = []
    first_resolved = None
    for replica, result in completed:
        seed = base_seed + replica
        resolved = resolved_config(experiment, result, replica, seed)
        if first_resolved is None:
            first_resolved = resolved
        path = os.path.join(args.out, f"trace_rep{replica:03d}.csv")
        traceio.write_trace(path, result.traces, resolved)
        finals.append({"replica": replica, "seed": seed,
                       "final_sq_dist": result.traces[-1].sq_dist,
                       "final_loss": result.traces[-1].loss,
                       "energy_uplink": result.energy_uplink,
                       "energy_downlink": result.energy_downlink,
                       **result.diagnostics})

    summary = {
        "experiment": experiment.to_dict(),
        "base_seed": base_seed,
        "completed": len(finals),
        "diverged": diverged,
        "replicas": finals,
    }
    if completed:
        traceio.write_mean_trace(os.path.join(args.out, "mean_trace.csv"),
                                 family.rounds, family.mean_sq,
                                 family.mean_loss,
                                 resolved_config=first_resolved)
        summary["resolved"] = first_resolved
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

    # Every point is set up first: a bad value anywhere runs no family.
    points = []
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
        try:
            setup = family_setup(point_exp, base_seed)
        except ConfigError as exc:
            raise ConfigError(f"{label}: {exc}") from None
        points.append((value, point_exp, base_seed, setup))

    lines = [f"# config: {traceio.canonical_json({'experiment': doc, 'axis': args.axis})}",
             "value,final_sq_dist,slope,total_energy"]
    failed = False
    print(f"{'value':>12s} {'final_sq_dist':>14s} {'slope':>8s} {'energy':>12s}")
    for value, point_exp, base_seed, setup in points:
        completed, diverged, rounds, mean_sq, *_ = run_family(
            point_exp, base_seed, args.workers, setup)
        final = slope = energy = math.nan
        if not completed:
            print(f"{value:>12g} {'diverged':>14s}")
        else:
            final, total = float(mean_sq[-1]), len(mean_sq)
            try:
                slope = analysis.fit_rate(rounds, mean_sq,
                                          (max(total // 4, 1), total)).slope
            except ConfigError:
                pass
            energy = float(np.mean([r.energy_uplink + r.energy_downlink
                                    for _, r in completed]))
            print(f"{value:>12g} {final:>14.6g} {slope:>8.3f} {energy:>12.6g}")
        lines.append(f"{value},{final!r},{slope!r},{energy!r}")
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
