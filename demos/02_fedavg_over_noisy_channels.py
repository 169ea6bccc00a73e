"""Federated averaging under the four channel presets.

Runs the ideal, constant-10dB, growing-power, and integer-diversity presets on
the same synthetic task and seed set, then prints final distances, fitted
decay slopes, and spent energy.  The constant-SNR baseline hits an error floor
and drifts upward; the growing-SNR schemes track the ideal run.  Saves a
log-log plot when matplotlib is importable.
"""

import numpy as np

from noisyfed import RunConfig, fit_rate, make_task, run

SEEDS = 12
ROUNDS = 200

task = make_task(n_clients=10, dim=20, samples_per_client=40,
                 heterogeneity=1.0, ridge=0.05, noise_std=32.0, seed=7)

PRESETS = [
    ("noise_free", {}),
    ("equal_power", {"snr_db": 10.0}),
    ("power_t2", {}),
    ("diversity_t2", {"rho_uplink": 10.0, "rho_downlink": 10.0}),
]

curves = {}
energies = {}
for name, params in PRESETS:
    stack = []
    energy = []
    for s in range(SEEDS):
        cfg = RunConfig(n_participants=10, rounds=ROUNDS, local_epochs=5,
                        batch_size=4, mode="MT", policy_name=name,
                        policy_params=params, seed=4000 + s)
        res = run(task, cfg)
        stack.append(res.trace.sq_dist)
        energy.append(res.energy_uplink + res.energy_downlink)
    curves[name] = np.mean(stack, axis=0)
    energies[name] = float(np.mean(energy))

rounds = np.arange(1, ROUNDS + 1)
print(f"{'preset':>14} {'final dist':>12} {'slope(50-200)':>14} "
      f"{'final3rd':>9} {'energy':>12}")
for name, _ in PRESETS:
    mean = curves[name]
    slope = fit_rate(rounds, mean, (50, ROUNDS)).slope
    tail = fit_rate(rounds, mean, (2 * ROUNDS // 3, ROUNDS)).slope
    print(f"{name:>14} {mean[-1]:>12.4f} {slope:>14.3f} {tail:>9.2f} "
          f"{energies[name]:>12.0f}")

print()
print("constant receive SNR stalls (positive tail slope = growing floor);")
print("growing SNR keeps the inverse-time decay at the cost of a larger "
      "energy budget.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for name, _ in PRESETS:
        ax.loglog(rounds, curves[name], label=name)
    ax.set_xlabel("round")
    ax.set_ylabel("mean squared distance to optimum")
    ax.legend()
    ax.grid(True, which="both", alpha=0.3)
    fig.tight_layout()
    fig.savefig("presets.png", dpi=130)
    print("wrote presets.png")
