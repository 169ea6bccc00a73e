"""End-to-end verification of the package's headline guarantees.

Each test prints one PASS/FAIL line (run ``pytest tests/test_acceptance.py -v -s``
to see them) and asserts the same condition, so the suite doubles as a
human-readable report:

 1. inverse-time convergence under the full-participation upload schedule;
 2. the same under sampled-client upload;
 3. the same under constant-SNR differential upload;
 4. error-floor separation of constant-SNR transmission from growing power;
 5. integer diversity orders match continuous power control at equal energy;
 6. moments of client-averaged uplink noise;
 7. exhaustive client-sampling moments against the deficiency bound;
 8. differential-upload variance bound across epoch/SNR settings;
 9. exact budget conservation and the published diversity staircase;
10. distribution-freeness of criteria 1-3 (Gaussian, uniform, Laplace);
11. byte-identical traces for identical seeds.
"""

import json
import time

import numpy as np
import pytest

from noisyfed import (LearningRateSchedule, budget_split, derive_constants,
                      diversity_orders, fit_rate, make_task,
                      reference_diversity_schedule)
from noisyfed.analysis import (aggregation_noise_oracle,
                               client_sampling_oracle,
                               differential_upload_oracle, local_sgd)
from noisyfed.cli import _evaluate_checks, run_family
from noisyfed.cli import main as cli_main
from noisyfed.config import parse_experiment

N_SEEDS = 20
BASE_SEED = 1000
ROUNDS = 200
SLOPE_RANGE = [-1.3, -0.7]
RATE_CHECKS = [{"kind": "bound"},
               {"kind": "slope", "window": [50, 200], "range": SLOPE_RANGE}]

TASK_FULL = dict(n_clients=10, dim=20, samples_per_client=40,
                 heterogeneity=1.0, ridge=0.05, noise_std=32.0, seed=7)
TASK_PARTIAL = dict(TASK_FULL, n_clients=50, seed=11)

# Each family's task, participants, mode and policy parameters.
FAMILIES = {
    "mt_full": (TASK_FULL, 10, "MT", {}),
    "mt_partial": (TASK_PARTIAL, 5, "MT", {}),
    "mdt_constant_snr": (TASK_PARTIAL, 5, "MDT", {"snr_target": 10.0}),
}

_family_cache = {}


def check(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def seed_family(task, policy, params=None, checks=(), **run):
    """The N_SEEDS-replica family of an experiment document: its completed
    replicas, diverged entries, mean squared distance, checks by name and
    wall time."""
    doc = {"task": task,
           "run": {"rounds": ROUNDS, "local_epochs": 5, "batch_size": 4,
                   **run},
           "policy": {"name": policy, "params": params or {}},
           "replicas": N_SEEDS, "checks": list(checks)}
    key = json.dumps(doc, sort_keys=True)
    if key not in _family_cache:
        experiment = parse_experiment(doc)
        start = time.perf_counter()
        family = run_family(experiment, BASE_SEED)
        elapsed = time.perf_counter() - start
        reports = _evaluate_checks(experiment, family)
        _family_cache[key] = (family.completed, family.diverged,
                              family.mean_sq, {r.name: r for r in reports},
                              elapsed)
    return _family_cache[key]


def family_run(family, distribution):
    task, participants, mode, params = FAMILIES[family]
    return seed_family(task, family, params, RATE_CHECKS,
                       n_participants=participants, mode=mode,
                       distribution=distribution)


def preset_run(policy_name, params=None):
    """Mean squared distance and mean total energy of a TASK_FULL preset."""
    completed, diverged, mean_sq, _, _ = seed_family(
        TASK_FULL, policy_name, params, n_participants=10, mode="MT")
    assert not diverged, diverged
    return mean_sq, float(np.mean([r["energy_uplink"] + r["energy_downlink"]
                                   for r in completed]))


def _rate_criterion(family):
    _, diverged, _, checks, elapsed = family_run(family, "gaussian")
    bound, slope = checks["check_bound"], checks["check_slope"]
    fast = elapsed < 60.0
    check(f"rate[{family}]",
          bound.passed and slope.passed and fast and not diverged,
          f"bound_holds={bound.passed} slope={slope.estimate:+.3f} in "
          f"{SLOPE_RANGE} diverged={len(diverged)} runtime={elapsed:.1f}s")


def test_criterion_1_full_participation_rate():
    _rate_criterion("mt_full")


def test_criterion_2_partial_participation_rate():
    _rate_criterion("mt_partial")


def test_criterion_3_differential_upload_rate():
    _rate_criterion("mdt_constant_snr")


def test_criterion_4_error_floor_separation():
    eq_mean, _ = preset_run("equal_power", {"snr_db": 10.0})
    pw_mean, _ = preset_run("power_t2")
    ratio = eq_mean[-1] / pw_mean[-1]
    final_third = (2 * ROUNDS // 3, ROUNDS)
    eq_slope = fit_rate(np.arange(1, ROUNDS + 1), eq_mean, final_third).slope
    check("error_floor_separation",
          ratio >= 5.0 and eq_slope > -0.3,
          f"equal/power final ratio={ratio:.1f} (need >=5) "
          f"equal-power final-third slope={eq_slope:+.2f} (need > -0.3)")


def test_criterion_5_diversity_parity():
    eq_mean, eq_energy = preset_run("equal_power", {"snr_db": 10.0})
    pw_mean, pw_energy = preset_run("power_t2")
    dv_mean, dv_energy = preset_run("diversity_t2", {"rho_uplink": 10.0,
                                                     "rho_downlink": 10.0})
    nf_mean, _ = preset_run("noise_free")
    within = dv_mean[-1] <= 2.0 * pw_mean[-1]
    beats_equal = eq_mean[-1] >= 2.0 * dv_mean[-1]
    energy_matched = abs(dv_energy - pw_energy) <= ROUNDS * (10.0 + 10.0)
    ideal_smallest = nf_mean[-1] < min(eq_mean[-1], pw_mean[-1], dv_mean[-1])
    check("diversity_parity",
          within and beats_equal and energy_matched and ideal_smallest,
          f"div/power={dv_mean[-1] / pw_mean[-1]:.2f} (need <=2) "
          f"equal/div={eq_mean[-1] / dv_mean[-1]:.1f} (need >=2) "
          f"energy gap={abs(dv_energy - pw_energy) / pw_energy:.1%} "
          f"ideal smallest={ideal_smallest}")


def test_criterion_6_aggregated_noise_moments():
    start = time.perf_counter()
    report = aggregation_noise_oracle(n_clients=4, dim=3, variances=0.5,
                                      replicas=100_000,
                                      rng=np.random.default_rng(314))
    elapsed = time.perf_counter() - start
    rel = abs(report.estimate - 0.375) / 0.375
    check("aggregated_noise_moments",
          report.passed and rel <= 0.05 and elapsed < 10.0,
          f"estimate={report.estimate:.4f} target=0.375 rel_err={rel:.3f} "
          f"runtime={elapsed:.1f}s")


def test_criterion_7_sampling_moments_exhaustive():
    start = time.perf_counter()
    task = make_task(n_clients=6, dim=6, samples_per_client=12,
                     heterogeneity=1.5, ridge=0.1, noise_std=4.0, seed=5)
    constants = derive_constants(task, batch=3, trajectory_radius=12.0)
    lr = LearningRateSchedule.from_constants(constants, 3)
    rng = np.random.default_rng(2718)
    failures = []
    for config in range(50):
        start_model = constants.opt + rng.normal(size=task.dim)
        models = local_sgd(task, np.arange(task.n_clients), start_model,
                           lr.etas(3), batch=3, rng=rng)
        report = client_sampling_oracle(models, n_participants=2,
                                        eta=lr.eta(3), local_epochs=3,
                                        grad_bound=constants.grad_bound)
        if not report.passed:
            failures.append(config)
    elapsed = time.perf_counter() - start
    check("sampling_moments_exhaustive",
          not failures and elapsed < 10.0,
          f"50 frozen-model configs, failures={failures} "
          f"runtime={elapsed:.1f}s")


def test_criterion_8_differential_upload_bound():
    start = time.perf_counter()
    task = make_task(n_clients=6, dim=6, samples_per_client=12,
                     heterogeneity=1.0, ridge=0.1, noise_std=4.0, seed=5)
    constants = derive_constants(task, batch=3, trajectory_radius=8.0)
    outcomes = []
    for epochs in (1, 5):
        for snr in (1.0, 10.0):
            report = differential_upload_oracle(
                task, w_prev=constants.opt + 0.5, n_participants=2,
                snr_target=snr, downlink_variance=0.1, local_epochs=epochs,
                batch=3, replicas=10_000,
                rng=np.random.default_rng(epochs * 100 + int(snr)))
            outcomes.append((epochs, snr, report.passed,
                             report.estimate <= report.reference))
    elapsed = time.perf_counter() - start
    all_ok = all(p and b for _, _, p, b in outcomes)
    check("differential_upload_bound",
          all_ok and elapsed < 30.0,
          f"configs={[(e, s) for e, s, _, _ in outcomes]} all within bound, "
          f"runtime={elapsed:.1f}s")


def test_criterion_9_budget_and_staircase():
    conserved = True
    worst = 0.0
    for total, rounds in ((3.5, 100), (11.0, 500), (1.0, 10_000)):
        split = budget_split(total, rounds)
        rel = abs(float(split.sum()) - total) / total
        worst = max(worst, rel)
        conserved &= rel <= 1e-12
    rho0 = 10.0
    staircase_ok = all(
        diversity_orders(reference_diversity_schedule(t) * rho0, rho0)
        == reference_diversity_schedule(t)
        for t in range(1, 501))
    edges_ok = ([reference_diversity_schedule(t)
                 for t in (1, 9, 10, 45, 46, 125, 126, 270, 271, 500)]
                == [1, 1, 4, 4, 9, 9, 16, 16, 25, 25])
    check("budget_and_staircase",
          conserved and staircase_ok and edges_ok,
          f"max relative budget error={worst:.2e} (tol 1e-12); "
          f"staircase reproduced exactly={staircase_ok and edges_ok}")


@pytest.mark.parametrize("distribution", ["gaussian", "uniform", "laplace"])
def test_criterion_10_distribution_freeness(distribution):
    details = []
    ok = True
    for family in FAMILIES:
        _, diverged, _, checks, _ = family_run(family, distribution)
        bound, slope = checks["check_bound"], checks["check_slope"]
        ok &= bound.passed and slope.passed and not diverged
        details.append(f"{family}: slope={slope.estimate:+.2f} "
                       f"bound={bound.passed}")
    check(f"distribution_freeness[{distribution}]", ok, "; ".join(details))


def test_criterion_11_trace_determinism(tmp_path):
    doc = {
        "task": {"n_clients": 6, "dim": 6, "samples_per_client": 12,
                 "heterogeneity": 1.0, "ridge": 0.1, "noise_std": 4.0,
                 "seed": 5},
        "run": {"n_participants": 3, "rounds": 30, "local_epochs": 3,
                "batch_size": 3, "mode": "MT", "seed": 99},
        "policy": {"name": "mt_partial", "params": {}},
        "replicas": 2,
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["run", str(cfg), "--out", str(out2)]) == 0
    identical = all((out1 / name).read_bytes() == (out2 / name).read_bytes()
                    for name in ("trace_rep000.csv", "trace_rep001.csv",
                                 "mean_trace.csv"))
    check("trace_determinism", identical,
          "same seed twice -> byte-identical trace files")
