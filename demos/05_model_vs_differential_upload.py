"""Uploading models vs uploading model differentials.

Direct model upload needs its receive SNR to grow quadratically with the
round index; uploading the differential against the just-received model lets
a constant SNR suffice, because the differential itself shrinks as training
converges.  This script runs both under matched downlink schedules and sweeps
the constant SNR target.
"""

import numpy as np

from noisyfed import RunConfig, make_task, run

SEEDS = 10
ROUNDS = 150

task = make_task(n_clients=20, dim=12, samples_per_client=24,
                 heterogeneity=1.0, ridge=0.1, noise_std=8.0, seed=21)


def mean_final(policy_name, params, mode):
    finals = []
    uplink_power_spent = []
    for s in range(SEEDS):
        cfg = RunConfig(n_participants=4, rounds=ROUNDS, local_epochs=4,
                        batch_size=4, mode=mode, policy_name=policy_name,
                        policy_params=params, seed=2500 + s)
        res = run(task, cfg)
        finals.append(res.trace.sq_dist[-1])
        uplink_power_spent.append(res.energy_uplink)
    return float(np.mean(finals)), float(np.mean(uplink_power_spent))


mt_final, mt_energy = mean_final("mt_partial", {}, "MT")
print(f"direct upload, growing SNR schedule: final dist {mt_final:.4f}, "
      f"uplink energy {mt_energy:.0f}")
print()
print("differential upload at constant receive SNR:")
print(f"{'snr target':>11} {'final dist':>11} {'uplink energy':>14}")
for nu in (1.0, 3.0, 10.0, 30.0, 100.0):
    final, energy = mean_final("mdt_constant_snr", {"snr_target": nu}, "MDT")
    print(f"{nu:>11.0f} {final:>11.4f} {energy:>14.0f}")
print()
print("a fixed, modest SNR on the differential matches the growing-SNR")
print("direct upload: the shrinking differential does the scaling for free.")
