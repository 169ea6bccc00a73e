"""The analog over-the-air layer, measured.

Channel inversion makes simultaneous uploads add up coherently; receiver
noise is all that remains.  This script measures the aggregate SNR against
its closed-form prediction, shows the deep-fade retransmission machinery,
confirms that combining P receptions equals one reception at P times the
power, and compares the downlink's maximal-ratio combining (MRC) of its
copies with its closed form and with an equal-weight average of the copies.
"""

import numpy as np

from noisyfed import (analog_downlink_receive, analog_uplink_aggregate,
                      measure_global_snr)
from noisyfed.channel import draw_fades

rng = np.random.default_rng(42)
n_clients, dim, power, trials = 4, 50, 8.0, 4000

models = rng.normal(size=(n_clients, dim))
signal = models.sum(axis=0)

noise_powers = []
retries = 0
for _ in range(trials):
    agg, info = analog_uplink_aggregate(models, power, rng)
    resid = n_clients * agg - signal
    noise_powers.append(float(resid @ resid))
    retries += info["retries"]

measured = float(signal @ signal) / np.mean(noise_powers)
predicted_coherent = power * float(signal @ signal) / (dim * n_clients ** 2)
predicted_independent = power * float(np.sum(models ** 2)) / (dim * n_clients ** 2)
print(f"measured aggregate SNR over {trials} trials: {measured:.4f}")
print(f"closed-form reference (correlated uploads, dK^2): "
      f"{predicted_coherent:.4f}")
print(f"closed-form reference (independent uploads, dK):  "
      f"{predicted_independent:.4f}")
print(f"deep-fade retransmissions triggered: {retries} "
      f"(floor 0.05, Rayleigh tail ~0.25%)")

print()
gains, redraws = draw_fades((100_000,), rng, floor=0.3)
print(f"with an exaggerated floor of 0.3: {redraws} redraws out of 100000, "
      f"min |h| = {np.sqrt(gains).min():.3f}")

print()
base = np.zeros((1, 100_000))
for p in (1, 2, 4, 8):
    combined, _ = analog_uplink_aggregate(base, 1.0, rng, copies=p)
    print(f"combining {p} unit-noise receptions -> variance {combined.var():.4f} "
          f"(expected {1 / p:.4f})")

print()
err_div = np.concatenate([
    analog_uplink_aggregate(models, 2.0, rng, copies=4)[0] - models.mean(0)
    for _ in range(1500)])
err_pow = np.concatenate([
    analog_uplink_aggregate(models, 8.0, rng, copies=1)[0] - models.mean(0)
    for _ in range(1500)])
print(f"4 receptions at power 2 vs 1 reception at power 8: noise variance "
      f"{err_div.var():.4f} vs {err_pow.var():.4f}")

print()
# MRC leaves noise of variance 1/(power * sum_q |h_q|^2).  Its closed form
# copies * E[1 / sum_q |h_q|^2] = copies * int_0^inf e^{-s copies f^2}
# (1 + s)^-copies ds, here with s = e^x - 1, is 1 for an unfaded channel; an
# equal-weight average of the equalized copies keeps E[1/|h|^2] whatever
# their number.
floor = 0.05
x = np.linspace(0.0, 30.0, 300_001)
for copies in (1, 2, 5, 20):
    est, _ = analog_downlink_receive(np.zeros(dim), 1.0, rng, copies=copies,
                                     receivers=4000)
    closed = copies * np.trapezoid(
        np.exp((1 - copies) * x - np.expm1(x) * copies * floor ** 2), x)
    gains, _ = draw_fades((20_000, copies), rng, floor=floor)
    equal = np.mean((1.0 / gains).sum(axis=1)) / copies
    print(f"downlink MRC of {copies:2d} copies: variance x copies "
          f"{est.var() * copies:.3f} (closed form {closed:.3f}; "
          f"equal-weight average {equal:.3f})")

print()
agg, _ = analog_uplink_aggregate(models, power, rng)
snr = measure_global_snr(signal, n_clients * agg - signal, mode="MT")
print(f"one realized round: SNR {snr.ratio:.2f} "
      f"(signal power {snr.signal_power:.1f}, noise power {snr.noise_power:.1f})")
