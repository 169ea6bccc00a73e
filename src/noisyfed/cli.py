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
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analysis, traceio
from .config import (BOUND_VARIANT_FOR_POLICY, load_experiment,
                     parse_experiment)
from .engine import RunConfig, run
from .errors import (ChannelError, ConfigError, DivergenceError,
                     NoisyFedError, StatisticalPowerError)
from .policies import (LearningRateSchedule, build_policy, mt_full_noise,
                       mt_partial_noise)
from .seeding import DOMAIN_ORACLE, STREAM_LAYOUT, stream
from .tasks import derive_constants, load_task, make_task


def build_task(experiment):
    if experiment.task_file:
        return load_task(experiment.task_file)
    params = dict(experiment.task)
    if "spectrum" in params:
        params["spectrum"] = tuple(params["spectrum"])
    return make_task(**params)


def replica_config(experiment, replica, base_seed):
    run_params = dict(experiment.run)
    run_params.pop("seed", None)
    return RunConfig(seed=base_seed + replica,
                     policy_name=experiment.policy_name,
                     policy_params=experiment.policy_params,
                     **run_params)


def resolved_config(experiment, cfg, result, replica):
    """Everything needed to reproduce and interpret one replica's trace."""
    c = result.constants
    doc = experiment.to_dict()
    resolved = {
        "experiment": doc,
        "replica": replica,
        "seed": cfg.seed,
        "stream_layout": STREAM_LAYOUT,
        "policy": {"name": result.policy_name, "params": result.policy_params},
        "derived": {
            "mu": c.mu,
            "lipschitz": c.lipschitz,
            "kappa": c.kappa,
            "gamma_noniid": c.gamma_noniid,
            "grad_bound": c.grad_bound,
            "sgd_var": list(c.sgd_var),
            "opt_value": c.opt_value,
            "trajectory_radius": c.trajectory_radius,
            "lr_gamma": result.lr.gamma,
            "lr_beta": result.lr.beta,
            "initial_gap": float(np.sum((result.initial_model - c.opt) ** 2)),
        },
    }
    variant = BOUND_VARIANT_FOR_POLICY.get(experiment.policy_name)
    if variant is not None:
        spec = _bound_spec(experiment, result, variant)
        resolved["derived"]["rate_constant"] = analysis.rate_constant(spec)
        resolved["derived"]["bound_variant"] = variant
    return resolved


def _bound_spec(experiment, result, variant):
    c = result.constants
    gap = float(np.sum((result.initial_model - c.opt) ** 2))
    snr = result.policy_params.get("snr_target") \
        if variant == "mdt_constant_snr" else None
    return analysis.BoundSpec(
        variant=variant,
        constants=c,
        local_epochs=experiment.run.get("local_epochs", 1),
        n_clients=len(c.sgd_var),
        n_participants=experiment.run["n_participants"],
        dim=result.initial_model.size,
        initial_gap=gap,
        snr_target=snr,
    )


def _run_replicas(payload):
    """Run the given replicas of an experiment document on one task."""
    doc, replicas, base_seed = payload
    experiment = parse_experiment(doc)
    task = build_task(experiment)
    results = []
    for replica in replicas:
        try:
            result, error = run(task, replica_config(
                experiment, replica, base_seed)), None
        except DivergenceError as exc:
            result, error = None, {"kind": "divergence", "error": str(exc)}
        except ChannelError as exc:
            result, error = None, {"kind": "channel", "error": str(exc)}
        results.append((replica, result, error))
    return results


def _execute_replicas(experiment, base_seed, workers):
    # One task per worker, which runs every workers-th replica on it.
    shares = [(experiment.to_dict(), range(i, experiment.replicas, workers),
               base_seed) for i in range(min(workers, experiment.replicas))]
    if workers == 1:
        return _run_replicas(shares[0])
    with ProcessPoolExecutor(max_workers=len(shares)) as pool:
        return sorted((r for share in pool.map(_run_replicas, shares)
                       for r in share), key=lambda r: r[0])


def _evaluate_checks(experiment, results, rounds, mean_sq):
    """Evaluate the experiment's checks on the seed-averaged trace."""
    reports = []
    first = next((r for _, r, err in results if err is None), None)
    for check in experiment.checks:
        kind = check["kind"]
        if first is None:
            reports.append(analysis.OracleReport(
                name=f"check_{kind}", passed=False, estimate=math.nan,
                reference=math.nan, tolerance=0.0,
                detail="no completed replicas"))
            continue
        if kind == "bound":
            variant = BOUND_VARIANT_FOR_POLICY[experiment.policy_name]
            spec = _bound_spec(experiment, first, variant)
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
        elif kind == "schedule":
            excess = _max_schedule_excess(experiment, first)
            reports.append(analysis.OracleReport(
                name="check_schedule", passed=excess <= 1e-9, estimate=excess,
                reference=0.0, tolerance=1e-9,
                detail="max relative excess over the admissible noise power"))
    return reports


def _max_schedule_excess(experiment, result, rounds=None):
    total = rounds or experiment.run["rounds"]
    policy = build_policy(experiment.policy_name, experiment.policy_params,
                          result.constants, len(result.constants.sgd_var),
                          experiment.run["n_participants"],
                          experiment.run.get("local_epochs", 1))
    excesses = [policy.schedule_excess(t) for t in range(1, total + 1)]
    excesses = [e for e in excesses if e is not None]
    return max(excesses) if excesses else 0.0


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
    os.makedirs(args.out, exist_ok=True)

    results = _execute_replicas(experiment, base_seed, args.workers)

    diverged = []
    finals = []
    sq_stack = []
    loss_stack = []
    rounds = None
    first_resolved = None
    for replica, result, err in results:
        if err is not None:
            diverged.append({"replica": replica, **err})
            continue
        cfg = replica_config(experiment, replica, base_seed)
        resolved = resolved_config(experiment, cfg, result, replica)
        if first_resolved is None:
            first_resolved = resolved
        path = os.path.join(args.out, f"trace_rep{replica:03d}.csv")
        traceio.write_trace(path, result.traces, resolved)
        finals.append({"replica": replica, "seed": cfg.seed,
                       "final_sq_dist": result.traces[-1].sq_dist,
                       "final_loss": result.traces[-1].loss,
                       "energy_uplink": result.energy_uplink,
                       "energy_downlink": result.energy_downlink,
                       **result.diagnostics})
        sq_stack.append([tr.sq_dist for tr in result.traces])
        loss_stack.append([tr.loss for tr in result.traces])
        if rounds is None:
            rounds = np.array([tr.t for tr in result.traces], dtype=float)

    reports = []
    summary = {
        "experiment": experiment.to_dict(),
        "base_seed": base_seed,
        "completed": len(finals),
        "diverged": diverged,
        "replicas": finals,
    }
    if sq_stack:
        mean_sq = np.mean(sq_stack, axis=0)
        mean_loss = np.mean(loss_stack, axis=0)
        traceio.write_mean_trace(os.path.join(args.out, "mean_trace.csv"),
                                 rounds, mean_sq, mean_loss,
                                 resolved_config=first_resolved)
        reports = _evaluate_checks(experiment, results, rounds, mean_sq)
        summary["resolved"] = first_resolved
        summary["mean_final_sq_dist"] = float(mean_sq[-1])
        summary["checks"] = [
            {"name": r.name, "passed": r.passed, "estimate": r.estimate,
             "reference": r.reference, "tolerance": r.tolerance,
             "detail": r.detail}
            for r in reports]
    else:
        reports = _evaluate_checks(experiment, results, np.array([]),
                                   np.array([]))
        summary["checks"] = [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in reports]

    traceio.write_json(os.path.join(args.out, "summary.json"), summary)
    for report in reports:
        print(report.line())
    if diverged:
        print(f"[WARN] {len(diverged)} replica(s) diverged or failed; "
              "see summary.json")
    if sq_stack:
        print(f"completed {len(finals)}/{experiment.replicas} replicas; "
              f"mean final squared distance {summary['mean_final_sq_dist']:.6g}")
    failed = bool(diverged) or any(not r.passed for r in reports)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_task(seed=5):
    return make_task(n_clients=6, dim=6, samples_per_client=12,
                     heterogeneity=1.0, ridge=0.1, noise_std=4.0, seed=seed)


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
    models = np.stack([
        _local_models_for_oracle(task, k, start, lr, steps=3, batch=3, rng=rng)
        for k in range(task.n_clients)])
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


def _local_models_for_oracle(task, client, start, lr, steps, batch, rng):
    w = np.array(start, copy=True)
    for j in range(1, steps + 1):
        picks = rng.choice(task.clients[client].size, size=batch,
                           replace=False)
        w = w - lr.eta(j) * task.sample_gradient(client, w, picks)
    return w


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

    for name, mode, params, variant in (
            ("mt_full", "MT", {}, "mt_full"),
            ("mt_partial", "MT", {}, "mt_partial"),
            ("mdt_constant_snr", "MDT", {"snr_target": 10.0},
             "mdt_constant_snr")):
        participants = n_clients if name == "mt_full" else n_participants
        policy_params = dict(params)
        if noise_scale != 1.0:
            policy_params["variance_scale"] = noise_scale
        policy = build_policy(name, policy_params, constants, n_clients,
                              participants, epochs)
        excess = max(policy.schedule_excess(t) for t in range(1, rounds + 1))
        reports.append(analysis.OracleReport(
            name=f"schedule_admissible[{name}]", passed=excess <= 1e-9,
            estimate=excess, reference=0.0, tolerance=1e-9,
            detail="relative excess over the admissible noise power"))

        sq = []
        gap = None
        for s in range(5):
            cfg = RunConfig(n_participants=participants, rounds=rounds,
                            local_epochs=epochs, batch_size=3, mode=mode,
                            policy_name=name, policy_params=policy_params,
                            seed=seed + 100 + s)
            result = run(task, cfg)
            sq.append([tr.sq_dist for tr in result.traces])
            gap = float(np.sum((result.initial_model - constants.opt) ** 2))
        mean_sq = np.mean(sq, axis=0)
        spec = analysis.BoundSpec(
            variant=variant, constants=constants, local_epochs=epochs,
            n_clients=n_clients, n_participants=participants, dim=task.dim,
            initial_gap=gap, snr_target=params.get("snr_target"))
        bounds = np.array([analysis.convergence_bound(t, spec)
                           for t in range(1, rounds + 1)])
        ratio = float(np.max(mean_sq / bounds))
        reports.append(analysis.OracleReport(
            name=f"bound_holds[{name}]", passed=ratio <= 1.0, estimate=ratio,
            reference=1.0, tolerance=0.0,
            detail=f"max(mean/bound), 5 seeds x {rounds} rounds"))
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
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        value = float(chunk)
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

    os.makedirs(args.out, exist_ok=True)
    rows = []
    print(f"{'value':>12s} {'final_sq_dist':>14s} {'slope':>8s} {'energy':>12s}")
    for value in values:
        point = copy.deepcopy(doc)
        pnode, pleaf = _axis_lookup(point, args.axis)
        pnode[pleaf] = int(value) if was_int and float(value).is_integer() \
            else value
        point_exp = parse_experiment(point, source=f"{args.axis}={value}")
        if args.replicas is not None:
            point_exp.replicas = args.replicas
        base_seed = args.seed if args.seed is not None \
            else point_exp.run.get("seed", 0)
        results = _execute_replicas(point_exp, base_seed, args.workers)
        sq_stack = [[tr.sq_dist for tr in res.traces]
                    for _, res, err in results if err is None]
        energies = [res.energy_uplink + res.energy_downlink
                    for _, res, err in results if err is None]
        if not sq_stack:
            rows.append((value, math.nan, math.nan, math.nan))
            print(f"{value:>12g} {'diverged':>14s}")
            continue
        mean_sq = np.mean(sq_stack, axis=0)
        rounds = np.arange(1, len(mean_sq) + 1)
        total = len(mean_sq)
        try:
            slope = analysis.fit_rate(rounds, mean_sq,
                                      (max(total // 4, 1), total)).slope
        except ConfigError:
            slope = math.nan
        energy = float(np.mean(energies))
        rows.append((value, float(mean_sq[-1]), slope, energy))
        print(f"{value:>12g} {mean_sq[-1]:>14.6g} {slope:>8.3f} {energy:>12.6g}")

    lines = [f"# config: {traceio.canonical_json({'experiment': doc, 'axis': args.axis})}",
             "value,final_sq_dist,slope,total_energy"]
    for value, final, slope, energy in rows:
        lines.append(f"{value},{repr(float(final))},{repr(float(slope))},"
                     f"{repr(float(energy))}")
    traceio.atomic_write_text(os.path.join(args.out, "sweep.csv"),
                              "\n".join(lines) + "\n")
    return 0


def make_parser():
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
    parser = make_parser()
    args = parser.parse_args(argv)
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
