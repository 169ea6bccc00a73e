import hashlib
import math

import numpy as np
import pytest

from noisyfed import (ChannelError, CombiningError, ConfigError, NoiseSpec,
                      PolicyError, RunConfig, add_effective_noise,
                      analog_downlink_receive, analog_uplink_aggregate,
                      diversity_combine, measure_global_snr, run)
from noisyfed.channel import draw_fades, sample_noise


def test_zero_variance_is_exact(rng):
    v = rng.normal(size=64)
    out = add_effective_noise(v, NoiseSpec(variance=0.0), rng)
    assert np.array_equal(out, v)


def test_gaussian_variance_monte_carlo(rng):
    out = add_effective_noise(np.zeros(100_000), NoiseSpec(variance=1.0), rng)
    assert 0.97 <= out.var() <= 1.03


def test_uniform_variance_monte_carlo(rng):
    spec = NoiseSpec(variance=0.25, distribution="uniform")
    out = add_effective_noise(np.zeros(100_000), spec, rng)
    assert 0.24 <= out.var() <= 0.26


def test_laplace_variance_monte_carlo(rng):
    spec = NoiseSpec(variance=0.5, distribution="laplace")
    out = add_effective_noise(np.zeros(100_000), spec, rng)
    assert abs(out.var() - 0.5) <= 0.02


def test_noise_is_zero_mean(rng):
    for dist in ("gaussian", "uniform", "laplace"):
        draws = sample_noise(NoiseSpec(variance=1.0, distribution=dist),
                             100_000, rng)
        assert abs(draws.mean()) <= 4.0 / math.sqrt(100_000) * draws.std()


def test_negative_variance_rejected():
    with pytest.raises(PolicyError):
        NoiseSpec(variance=-0.1)


def test_unknown_distribution_rejected():
    with pytest.raises(ConfigError):
        NoiseSpec(variance=1.0, distribution="cauchy")


def test_cross_stream_independence():
    a = sample_noise(NoiseSpec(variance=1.0), 100_000,
                     np.random.default_rng(1))
    b = sample_noise(NoiseSpec(variance=1.0), 100_000,
                     np.random.default_rng(2))
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_ota_noise_disabled_gives_exact_mean(rng):
    models = rng.normal(size=(3, 16))
    agg, info = analog_uplink_aggregate(models, power=2.0, rng=rng,
                                        noise_scale=0.0)
    assert np.allclose(agg, models.mean(axis=0), atol=1e-12)


def test_ota_high_power_limit(rng):
    s = rng.normal(size=32)
    models = np.stack([s, s])
    agg, _ = analog_uplink_aggregate(models, power=1e8, rng=rng)
    assert np.max(np.abs(agg - s)) <= 1e-2
    # Residual noise variance is 1/power per element.
    errs = np.concatenate([
        analog_uplink_aggregate(models, power=4.0, rng=rng)[0] - s
        for _ in range(2000)])
    assert abs(errs.var() - 0.25) <= 0.02


def test_ota_measured_snr_matches_prediction(rng):
    n_clients, dim, power = 4, 50, 8.0
    models = rng.normal(size=(n_clients, dim))
    signal = models.sum(axis=0)
    noise_powers = []
    for _ in range(10_000):
        agg, _ = analog_uplink_aggregate(models, power=power, rng=rng)
        resid = n_clients * agg - signal
        noise_powers.append(float(resid @ resid))
    measured = float(signal @ signal) / np.mean(noise_powers)
    predicted = power * float(signal @ signal) / (dim * n_clients ** 2)
    assert abs(measured - predicted) / predicted <= 0.05


def test_diversity_single_copy_identity(rng):
    v = rng.normal(size=10)
    assert np.array_equal(diversity_combine([v]), v)


def test_diversity_four_copies_quarter_variance(rng):
    copies = [rng.normal(size=100_000) for _ in range(4)]
    combined = diversity_combine(copies)
    assert abs(combined.var() - 0.25) <= 0.0125
    assert np.array_equal(diversity_combine(np.stack(copies)), combined)


def test_diversity_matches_power_scaling(rng):
    # Four receptions at power rho0 vs one at 4*rho0: matching noise power.
    models = rng.normal(size=(3, 25))
    mean = models.mean(axis=0)
    err_div = np.concatenate([
        analog_uplink_aggregate(models, power=2.0, rng=rng, copies=4)[0] - mean
        for _ in range(1500)])
    err_pow = np.concatenate([
        analog_uplink_aggregate(models, power=8.0, rng=rng, copies=1)[0] - mean
        for _ in range(1500)])
    assert abs(err_div.var() / err_pow.var() - 1.0) <= 0.05


def test_diversity_empty_rejected():
    with pytest.raises(CombiningError):
        diversity_combine([])
    with pytest.raises(CombiningError):
        diversity_combine(np.empty((0, 3)))


def test_downlink_receive_combining_reduces_noise(rng):
    v = rng.normal(size=40)
    err1 = np.concatenate([
        analog_downlink_receive(v, power=5.0, rng=rng, copies=1)[0] - v
        for _ in range(3000)])
    err4 = np.concatenate([
        analog_downlink_receive(v, power=5.0, rng=rng, copies=4)[0] - v
        for _ in range(3000)])
    assert abs(err1.mean()) <= 4 * err1.std() / math.sqrt(err1.size)
    ratio = err1.var() / err4.var()
    assert 3.0 <= ratio <= 5.0


def test_deep_fade_exhausts_retries(rng):
    with pytest.raises(ChannelError):
        draw_fades((4, 4), rng, floor=0.999999, max_retries=3)


def test_fade_floor_enforced(rng):
    gains, retries = draw_fades((2000,), rng, floor=0.5)
    assert np.all(np.abs(gains) >= 0.5)
    assert retries > 0


def test_measured_snr_equal_powers():
    s = np.array([3.0, 4.0])
    n = np.array([5.0, 0.0])
    m = measure_global_snr(s, n)
    assert m.ratio == pytest.approx(1.0)


def test_measured_snr_zero_noise_sentinel():
    m = measure_global_snr(np.ones(3), np.zeros(3))
    assert math.isinf(m.ratio)


def test_measured_snr_mode_validation():
    with pytest.raises(ConfigError):
        measure_global_snr(np.ones(2), np.ones(2), mode="XX")


def test_halved_noise_variance_doubles_snr(rng):
    # Paired Monte Carlo on the effective-noise model.
    dim, n_clients = 2000, 5
    models = rng.normal(size=(n_clients, dim))
    signal = models.sum(axis=0)

    def measured(var):
        noise = rng.normal(scale=math.sqrt(var), size=(n_clients, dim))
        return measure_global_snr(signal, noise.sum(axis=0)).ratio

    r_full = np.mean([measured(0.2) for _ in range(200)])
    r_half = np.mean([measured(0.1) for _ in range(200)])
    assert abs(r_half / r_full - 2.0) <= 0.2


def test_mdt_noise_power_decomposes(rng):
    # Removing the downlink term drops the noise power by exactly its share.
    dim, n_clients = 4000, 4
    up = rng.normal(scale=0.3, size=(n_clients, dim))
    down = rng.normal(scale=0.4, size=(n_clients, dim))
    both = (up - down).sum(axis=0)
    only_up = up.sum(axis=0)
    signal = np.ones(dim)
    full = measure_global_snr(signal, both, mode="MDT")
    ablated = measure_global_snr(signal, only_up, mode="MDT")
    contribution = full.noise_power - ablated.noise_power
    expected = dim * n_clients * 0.16
    assert abs(contribution - expected) / expected <= 0.1


# ---------------------------------------------------------------------------
# Byte identity of the analog layer's random-draw order.
#
# The golden digests were captured from the per-copy loop implementation
# (``draw_fades`` then ``rng.normal`` for each copy), which the reference
# functions below restate.  They pin outputs, retry counts, every
# ``ChannelError`` message and where the generator is left afterwards.
# ``GOLDEN_DIVERSITY_RUN`` pins a whole engine run, so it also depends on the
# engine's stream layout; it was re-captured for stream layout 2, whose
# per-round batch blocks and batched local SGD change the trajectory while
# the analog fade streams stay per client.
# ---------------------------------------------------------------------------

GOLDEN_DOWNLINK = \
    "e58b2cf714f6b8479dd650fa6e3cfc15afbe8155f9309c6ab90d4330d794a55c"
GOLDEN_UPLINK = \
    "f294ba7239affae77c04f9d737c03a236dc0575cd756ef956c564778f54fa872"
GOLDEN_UPLINK_SILENT = \
    "3f50cec29979efe39bac36e4f8774564fc19996408bf3d9cc614295498c577e2"
GOLDEN_DIVERSITY_RUN = \
    "20e096c18ebbfe3e15892620358d1704a77254bcac64643f8181a185452993ce"

_GOLDEN_SEEDS = (0, 1, 2)
_GOLDEN_FLOORS = (0.05, 0.5, 0.9)
_GOLDEN_COPIES = range(1, 31)


def _reference_downlink(v, power, rng, copies=1, distance=1.0, pathloss=2.0,
                        floor=0.05, max_retries=10, noise_scale=1.0,
                        noise_first=False):
    gain2 = distance ** (-pathloss)
    retries = 0
    received = []
    for _ in range(copies):
        if noise_first:
            noise = rng.normal(size=v.shape)
        fades, r = draw_fades(v.shape, rng, floor, max_retries)
        retries += r
        if not noise_first:
            noise = rng.normal(size=v.shape)
        noise_std = noise_scale / np.sqrt(power * gain2 * np.abs(fades) ** 2)
        received.append(v + noise_std * noise)
    return diversity_combine(received), {"retries": retries}


def _reference_uplink(models, power, rng, copies=1, floor=0.05,
                      max_retries=10, noise_scale=1.0):
    mean = models.mean(axis=0)
    retries = 0
    received = []
    for _ in range(copies):
        retries += draw_fades(models.shape, rng, floor, max_retries)[1]
        noise = noise_scale * rng.normal(size=models.shape[1])
        received.append(mean + noise / math.sqrt(power))
    return diversity_combine(received), {"retries": retries}


def _analog_digest(call):
    """SHA-256 over a grid of seeds, floors and copy counts of ``call``."""
    digest = hashlib.sha256()
    for seed in _GOLDEN_SEEDS:
        for floor in _GOLDEN_FLOORS:
            for copies in _GOLDEN_COPIES:
                rng = np.random.default_rng(seed * 1000 + copies)
                try:
                    out, info = call(rng, copies, floor)
                    digest.update(out.tobytes())
                    digest.update(str(info["retries"]).encode())
                except ChannelError as exc:
                    digest.update(f"ChannelError: {exc}".encode())
                digest.update(rng.standard_normal(3).tobytes())
    return digest.hexdigest()


_DOWNLINK_V = np.random.default_rng(91).normal(size=9)
_UPLINK_MODELS = np.random.default_rng(92).normal(size=(4, 9))


def _downlink_digest(fn, **extra):
    return _analog_digest(lambda rng, copies, floor: fn(
        _DOWNLINK_V, 3.0, rng, copies=copies, distance=1.5, floor=floor,
        **extra))


def _uplink_digest(fn, **extra):
    return _analog_digest(lambda rng, copies, floor: fn(
        _UPLINK_MODELS, 3.0, rng, copies=copies, floor=floor, **extra))


def _diversity_run_digest(task):
    cfg = RunConfig(n_participants=3, rounds=200, local_epochs=2,
                    batch_size=3, mode="MT", channel="analog_physical",
                    policy_name="diversity_t2",
                    policy_params={"rho_uplink": 10.0, "rho_downlink": 10.0},
                    seed=10)
    result = run(task, cfg)
    digest = hashlib.sha256()
    for trace in result.traces:
        digest.update(repr(trace.as_row()).encode())
    digest.update(result.final_model.tobytes())
    digest.update(str(result.diagnostics["fade_retries"]).encode())
    return digest.hexdigest()


def test_analog_downlink_matches_golden():
    assert _downlink_digest(analog_downlink_receive) == GOLDEN_DOWNLINK


def test_analog_uplink_matches_golden():
    assert _uplink_digest(analog_uplink_aggregate) == GOLDEN_UPLINK
    assert _uplink_digest(analog_uplink_aggregate, noise_scale=0.0) \
        == GOLDEN_UPLINK_SILENT


def test_reference_loops_match_golden():
    assert _downlink_digest(_reference_downlink) == GOLDEN_DOWNLINK
    assert _uplink_digest(_reference_uplink) == GOLDEN_UPLINK


def test_reordered_draws_fail_golden():
    # Negative control: the same draws with each copy's noise taken before
    # its fades must not reproduce the digest.
    assert _downlink_digest(_reference_downlink, noise_first=True) \
        != GOLDEN_DOWNLINK


def test_golden_grid_covers_deep_fade_errors():
    for fn, args in ((analog_downlink_receive, (_DOWNLINK_V,)),
                     (analog_uplink_aggregate, (_UPLINK_MODELS,))):
        with pytest.raises(ChannelError):
            for copies in _GOLDEN_COPIES:
                fn(*args, 3.0, np.random.default_rng(copies), copies=copies,
                   floor=0.9)


def test_deep_fade_error_leaves_generator_where_the_loop_does():
    for seed in range(40):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        outcomes = []
        for fn, rng in zip((analog_uplink_aggregate, _reference_uplink), rngs):
            try:
                outcomes.append(fn(_UPLINK_MODELS, 3.0, rng, copies=6,
                                   floor=0.9, max_retries=8)[1]["retries"])
            except ChannelError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_diversity_run_matches_golden(small_task):
    assert _diversity_run_digest(small_task) == GOLDEN_DIVERSITY_RUN
