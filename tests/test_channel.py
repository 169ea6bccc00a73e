import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from noisyfed import (ChannelError, ConfigError, NoiseSpec, PolicyError,
                      RunConfig, add_effective_noise, analog_downlink_receive,
                      analog_uplink_aggregate, measure_global_snr, run)
from noisyfed.channel import draw_fades, mrc_gains, sample_noise


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
    agg, info = analog_uplink_aggregate(models, power=math.inf, rng=rng)
    assert np.allclose(agg, models.mean(axis=0), atol=1e-12)
    received, _ = analog_downlink_receive(models[0], power=math.inf, rng=rng,
                                          copies=2, receivers=3)
    assert np.array_equal(received, np.tile(models[0], (3, 1)))


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


def _mrc_factor(copies, floor=0.05):
    """``copies * E[1 / sum_q g_q]`` for ``copies`` power gains
    ``g_q = floor**2 + Exp(1)``: with ``E[1/X] = int_0^inf E[e^{-sX}] ds``
    and the sum ``copies * floor**2 + Gamma(copies)``, it is
    ``copies * int_0^inf e^{-s copies floor^2} (1 + s)^{-copies} ds``.
    MRC's noise variance is this over ``copies * power * gain``."""
    shift = copies * floor * floor
    value, _ = integrate.quad(
        lambda s: math.exp(-s * shift) * (1.0 + s) ** -copies, 0.0, math.inf)
    return copies * value


def test_mrc_factor_closed_form():
    # One copy is the equalized copy's e^{f^2} E1(f^2); more copies approach
    # the 1/copies of an unfaded channel.
    assert _mrc_factor(1) == pytest.approx(
        special.exp1(0.05 ** 2) * math.exp(0.05 ** 2), rel=1e-9)
    assert [round(_mrc_factor(c), 2) for c in (1, 2, 5, 20)] \
        == [5.43, 1.95, 1.24, 1.05]


def test_downlink_receive_combining_reduces_noise(rng):
    # MRC of 4 copies against 1: the variance ratio 4 * I(1) / I(4) of the
    # closed form (16.37; an equal-weight average of the copies gives 4),
    # within the window of width 2 that held the equal-weight ratio.
    v = rng.normal(size=40)
    err1 = np.concatenate([
        analog_downlink_receive(v, power=5.0, rng=rng, copies=1)[0] - v
        for _ in range(3000)])
    err4 = np.concatenate([
        analog_downlink_receive(v, power=5.0, rng=rng, copies=4)[0] - v
        for _ in range(3000)])
    assert abs(err1.mean()) <= 4 * err1.std() / math.sqrt(err1.size)
    ratio = err1.var() / err4.var()
    predicted = 4 * _mrc_factor(1) / _mrc_factor(4)
    assert predicted - 1.0 <= ratio <= predicted + 1.0


def test_deep_fade_exhausts_retries(rng):
    # At floor 10 a fade is deep with probability 1 - e^-100, so every
    # redraw fails whatever the seed.
    with pytest.raises(ChannelError):
        draw_fades((4, 4), rng, floor=10.0, max_retries=3)
    with pytest.raises(ChannelError):
        analog_uplink_aggregate(np.zeros((2, 4)), 1.0, rng, floor=10.0,
                                max_retries=3)


def test_fade_floor_enforced(rng):
    gains, retries = draw_fades((2000,), rng, floor=0.5)
    assert np.all(np.sqrt(gains) >= 0.5)
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
# Byte identity of the analog layer's random-draw order (stream layout 7).
#
# A fade is its power gain |h|^2, one standard exponential, and a deep one
# (|h| below the floor) is redrawn, a retransmission.  Both directions draw
# the deep-fade counts of their ``copies`` fades per element as binomial
# thinning rounds.  The uplink, whose inversion cancels its fades, then draws
# one normal per element; the downlink, which combines its copies by MRC,
# one Gamma(copies) per element for their summed gain above
# ``copies * floor**2``, then one normal per element.  The reference
# functions below restate that order with loops over the elements.  The
# digests pin outputs, retry counts, every ``ChannelError`` message and
# where the generator is left afterwards.  GOLDEN_UPLINK and
# GOLDEN_UPLINK_SILENT were captured at stream layout 4, GOLDEN_DOWNLINK and
# ``GOLDEN_DIVERSITY_RUN``, which pins a whole engine run, at layout 7.
# ---------------------------------------------------------------------------

GOLDEN_DOWNLINK = \
    "e633e1e88181ac66957cfda58a9b847166b0daca14824e0213ab45cc838b3cc0"
GOLDEN_UPLINK = \
    "3c7ef7446d5a9e07189f99d768df006ae56da1fa134d53c734be88126e9b382c"
GOLDEN_UPLINK_SILENT = \
    "8c033485dc2c25f5ad344aef5926b357b1febfe0ed023d29f329d063481d0c5e"
GOLDEN_DIVERSITY_RUN = \
    "362a47d83a03300994f4a791602c043bf944d17281b7da54ecec4bac243ae83f"

_GOLDEN_SEEDS = (0, 1, 2)
_GOLDEN_FLOORS = (0.05, 0.5, 0.9)
_GOLDEN_COPIES = range(1, 31)


def _deep_fade_error(max_retries):
    return ChannelError(
        f"deep fade persisted beyond {max_retries} retransmissions")


def _layout3_fades(shape, rng, floor, max_retries):
    """Stream layout 3's element-wise process: complex gains from two
    normals each, every deep one redrawn until none is or the retries run
    out.  The reference for the distribution of later layouts' draws."""
    gains = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        / math.sqrt(2.0)
    retries = 0
    for attempt in range(max_retries + 1):
        deep = np.abs(gains) < floor
        if not deep.any():
            return np.abs(gains), retries
        if attempt == max_retries:
            raise _deep_fade_error(max_retries)
        n_deep = int(deep.sum())
        retries += n_deep
        gains[deep] = (rng.normal(size=n_deep)
                       + 1j * rng.normal(size=n_deep)) / math.sqrt(2.0)


def _reference_fades(shape, rng, floor, max_retries):
    """``draw_fades`` restated with a boolean mask over power gains."""
    gains = rng.standard_exponential(shape)
    retries = 0
    for attempt in range(max_retries + 1):
        deep = gains < floor * floor
        if not deep.any():
            return gains, retries
        if attempt == max_retries:
            raise _deep_fade_error(max_retries)
        n_deep = int(deep.sum())
        retries += n_deep
        gains[deep] = rng.standard_exponential(n_deep)


def _reference_retries(fades, rng, floor, max_retries):
    """Deep-fade retransmissions of ``fades`` fades as binomial thinning."""
    p_deep = -math.expm1(-floor * floor)
    deep = rng.binomial(fades, p_deep)
    retries = 0
    for attempt in range(max_retries + 1):
        if deep == 0:
            return retries
        if attempt == max_retries:
            raise _deep_fade_error(max_retries)
        retries += deep
        deep = rng.binomial(deep, p_deep)


def _reference_downlink(v, power, rng, copies=1, receivers=1, distance=1.0,
                        pathloss=2.0, floor=0.05, max_retries=10,
                        noise_first=False):
    shape = (receivers,) + v.shape
    if noise_first:
        noise = rng.standard_normal(shape)
    retries = _reference_retries(copies * math.prod(shape), rng, floor,
                                 max_retries)
    # The summed gain of each element's copies, one Gamma draw per element.
    gains = np.empty(shape)
    for index in np.ndindex(shape):
        gains[index] = rng.standard_gamma(copies) + copies * floor * floor
    if not noise_first:
        noise = rng.standard_normal(shape)
    gain2 = power * distance ** (-pathloss)
    estimates = []
    for r in range(receivers):
        std = np.sqrt(1.0 / (gains[r] * gain2))
        estimates.append(v + std * noise[r])
    return np.stack(estimates), {"retries": retries}


def _reference_uplink(models, power, rng, copies=1, floor=0.05,
                      max_retries=10):
    retries = _reference_retries(copies * models.size, rng, floor,
                                 max_retries)
    noise = rng.standard_normal(models.shape[1])
    return models.mean(axis=0) \
        + noise * (1.0 / math.sqrt(power * copies)), \
        {"retries": retries}


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
        _DOWNLINK_V, 3.0, rng, copies=copies, receivers=3, distance=1.5,
        floor=floor, **extra))


def _uplink_digest(fn, power=3.0):
    return _analog_digest(lambda rng, copies, floor: fn(
        _UPLINK_MODELS, power, rng, copies=copies, floor=floor))


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
    assert _uplink_digest(analog_uplink_aggregate, power=math.inf) \
        == GOLDEN_UPLINK_SILENT


def test_reference_loops_match_golden():
    assert _downlink_digest(_reference_downlink) == GOLDEN_DOWNLINK
    assert _uplink_digest(_reference_uplink) == GOLDEN_UPLINK


def test_reordered_draws_fail_golden():
    # Negative control: the same draws with the noise taken before the
    # deep-fade counts and gains must not reproduce the digest.
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


def test_draw_fades_matches_masked_reference():
    # Vectorized redraw rounds: one exponential for every deep element, in
    # C order, until none is deep or the retries run out.
    for seed in range(20):
        for floor in (0.05, 0.5, 0.9):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            outcomes = []
            for fn, rng in zip((draw_fades, _reference_fades), rngs):
                try:
                    outcomes.append(fn((3, 5, 7), rng, floor, 6))
                except ChannelError as exc:
                    outcomes.append(str(exc))
            if isinstance(outcomes[0], str):
                assert outcomes[0] == outcomes[1]
            else:
                np.testing.assert_array_equal(outcomes[0][0], outcomes[1][0])
                assert outcomes[0][1] == outcomes[1][1]
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("floor", [0.05, 0.5])
def test_downlink_noise_and_retries_match_closed_form(floor):
    # MRC of ``copies`` gains f^2 + Exp(1) leaves noise of variance
    # _mrc_factor(copies, f) / (copies * power * gain), e^{f^2} E1(f^2) /
    # (power * gain) for one copy; a draw is a redraw with probability
    # 1 - e^{-f^2}.  At f = 0.5 a fade is deep with probability 0.22 and
    # still deep after 10 redraws with 6e-8, so millions of fades in a call
    # would likely end in a ChannelError: fewer orders and elements there.
    orders, dim = {0.05: ((1, 2, 5, 20), 200), 0.5: ((1, 3), 60)}[floor]
    power, distance, receivers = 4.0, 1.5, 2000
    gain2 = distance ** -2.0
    rng = np.random.default_rng(77)
    fades = retries = 0
    for copies in orders:
        est, info = analog_downlink_receive(
            np.zeros(dim), power, rng, copies=copies, receivers=receivers,
            distance=distance, floor=floor)
        predicted = _mrc_factor(copies, floor) / (power * gain2 * copies)
        assert abs(est.var() / predicted - 1.0) <= 0.05
        fades += receivers * copies * dim
        retries += info["retries"]
    redraw_rate = retries / (fades + retries)
    assert abs(redraw_rate / -math.expm1(-floor ** 2) - 1.0) <= 0.1


def test_equal_weight_average_fails_mrc_closed_form():
    # Negative control: the equal-weight average of the equalized copies,
    # built from draw_fades, keeps one copy's e^{f^2} E1(f^2) over copies,
    # so it misses the MRC closed form at every order above 1.
    rng = np.random.default_rng(78)
    for copies in (2, 5, 20):
        gains, _ = draw_fades((100_000, copies), rng)
        std = np.sqrt((1.0 / gains).sum(axis=1)) / copies
        noise = std * rng.standard_normal(std.shape)
        ratio = noise.var() * copies / _mrc_factor(copies)
        assert ratio > 1.05


@pytest.mark.parametrize("floor", [0.05, 0.5])
def test_mrc_gains_match_elementwise_combining(floor):
    # The summed gain copies * f^2 + Gamma(copies) against the sum of
    # draw_fades' copies, element by element.
    for copies in (1, 2, 5, 20):
        summed, _ = mrc_gains((20_000,), copies,
                              np.random.default_rng(copies), floor)
        fades, _ = draw_fades((20_000, copies),
                              np.random.default_rng(100 + copies), floor)
        assert stats.ks_2samp(summed, fades.sum(axis=1)).pvalue > 0.01
    # Negative control: the Gamma draw without the floor's shift.
    fades, _ = draw_fades((20_000, 5), np.random.default_rng(7), 0.5)
    unshifted = np.random.default_rng(8).standard_gamma(5, 20_000)
    assert stats.ks_2samp(unshifted, fades.sum(axis=1)).pvalue < 1e-6


def test_draw_fades_is_shifted_exponential():
    # Exp(1) redrawn below f^2 is f^2 + Exp(1) by memorylessness, and so is
    # layout 3's |h|^2 from two normals.
    floor = 0.5
    gains, _ = draw_fades((20_000,), np.random.default_rng(5), floor=floor)
    mags, _ = _layout3_fades((20_000,), np.random.default_rng(6), floor, 10)
    assert stats.kstest(gains - floor ** 2, "expon").pvalue > 0.01
    assert stats.ks_2samp(gains, mags ** 2).pvalue > 0.01
    # Negative control: the unshifted gains are not Exp(1).
    assert stats.kstest(gains, "expon").pvalue < 1e-6


def _mean_and_se(samples):
    samples = np.asarray(samples, dtype=np.float64)
    return samples.mean(), samples.std(ddof=1) / math.sqrt(samples.size)


def test_uplink_retries_match_layout_3_loop():
    # Binomial deep-fade counts against the element-wise redraws they
    # replace: the mean retries at f = 0.5 and the ChannelError rate at a
    # floor where about half the calls fail, each within 4 standard errors.
    calls = 2000
    models = np.zeros((3, 5))
    rng_new, rng_old = np.random.default_rng(41), np.random.default_rng(42)
    new = [analog_uplink_aggregate(models, 3.0, rng_new, copies=2,
                                   floor=0.5)[1]["retries"]
           for _ in range(calls)]
    old = [_layout3_fades((2, 3, 5), rng_old, 0.5, 10)[1]
           for _ in range(calls)]
    (m_new, se_new), (m_old, se_old) = _mean_and_se(new), _mean_and_se(old)
    assert abs(m_new - m_old) <= 4 * math.hypot(se_new, se_old)
    p_deep = -math.expm1(-0.25)
    expected = 30 * sum(p_deep ** j for j in range(1, 11))
    assert abs(m_new - expected) <= 4 * se_new

    def fails(call):
        try:
            call()
        except ChannelError:
            return 1.0
        return 0.0

    models = np.zeros((2, 2))
    new = [fails(lambda: analog_uplink_aggregate(models, 3.0, rng_new,
                                                 floor=1.0, max_retries=3))
           for _ in range(calls)]
    old = [fails(lambda: _layout3_fades((1, 2, 2), rng_old, 1.0, 3))
           for _ in range(calls)]
    (m_new, se_new), (m_old, se_old) = _mean_and_se(new), _mean_and_se(old)
    assert abs(m_new - m_old) <= 4 * math.hypot(se_new, se_old)
    expected = 1.0 - (1.0 - (-math.expm1(-1.0)) ** 4) ** 4
    assert abs(m_new - expected) <= 4 * se_new


def test_diversity_run_matches_golden(small_task):
    assert _diversity_run_digest(small_task) == GOLDEN_DIVERSITY_RUN
