import hashlib
import json
import math
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from noisyfed import (AggregationError, ConfigError, DivergenceError,
                      LearningRateSchedule, QuadraticTask, RunConfig,
                      aggregate, downlink_broadcast, family_inputs,
                      local_steps, local_train, make_task, run,
                      sample_clients, uplink_transmit)
from noisyfed import NoiseSpec, PolicyError, engine
from noisyfed.channel import sample_noise
from noisyfed.engine import CHANNEL_LAYERS, TRANSMISSION_MODES
from noisyfed.policies import RoundPolicy
from noisyfed.seeding import (DOMAIN_BATCH, DOMAIN_DOWNLINK,
                              DOMAIN_FADE_DOWNLINK, DOMAIN_FADE_UPLINK,
                              DOMAIN_SAMPLING, DOMAIN_UPLINK, STREAM_LAYOUT,
                              stream)


def test_sample_clients_full_set(rng):
    assert np.array_equal(sample_clients(5, 5, rng), np.arange(5))


def test_sample_clients_subset_frequencies(rng):
    n, k, draws = 6, 2, 100_000
    counts = {s: 0 for s in combinations(range(n), k)}
    for _ in range(draws):
        picked = tuple(sample_clients(n, k, rng))
        counts[picked] += 1
    p = 1.0 / math.comb(n, k)
    se = math.sqrt(p * (1 - p) / draws)
    for subset, count in counts.items():
        assert abs(count / draws - p) <= 3.5 * se, subset


def test_sample_clients_marginal_inclusion(rng):
    n, k, draws = 8, 3, 50_000
    hits = np.zeros(n)
    for _ in range(draws):
        hits[sample_clients(n, k, rng)] += 1
    p = k / n
    se = math.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(hits / draws - p) <= 4 * se)


def test_sample_clients_invalid():
    with pytest.raises(ConfigError):
        sample_clients(3, 4, np.random.default_rng(0))


def _unit_blocks(seed, distribution, shape, rounds):
    """A run's first ``rounds`` downlink blocks, as the engine reads them."""
    return sample_noise(NoiseSpec(1.0, distribution), (rounds,) + shape,
                        stream(seed, DOMAIN_DOWNLINK))


def test_downlink_noise_free_exact(rng):
    w = rng.normal(size=12)
    unit = _unit_blocks(0, "gaussian", (4, 12), 1)[0]
    out = downlink_broadcast(w, unit, np.zeros(4))
    assert np.array_equal(out, np.tile(w, (4, 1)))
    # A zero-variance row is an exact copy even when others are noisy.
    unit = _unit_blocks(0, "laplace", (4, 12), 1)[0]
    out = downlink_broadcast(w, unit, [0.0, 1.0, 0.0, 1.0])
    assert np.array_equal(out[[0, 2]], np.tile(w, (2, 1)))
    assert not np.any(out[[1, 3]] == w)


def test_downlink_variance_matches_schedule():
    w = np.zeros(100_000)
    zeta2 = 0.3
    unit = _unit_blocks(77, "gaussian", (1, w.size), 1)[0]
    noise = downlink_broadcast(w, unit, [zeta2])[0]
    assert abs(noise.var() - zeta2) / zeta2 <= 0.05


def test_downlink_clients_independent():
    first, second = _unit_blocks(3, "gaussian", (2, 100_000), 2)
    for a, b in ((first[0], first[1]), (first[0], second[0])):
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def test_local_train_fixed_point():
    # Targets consistent with the start point and no ridge: zero gradient.
    features = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w0 = np.array([2.0, -1.0])
    task = QuadraticTask([features], [features @ w0], ridge=0.0)
    lr = LearningRateSchedule(mu=1.0, kappa=1.0, local_epochs=1)
    out = local_train(w0[None], local_steps(task, [0], None, lr.etas(5)))[0]
    assert np.allclose(out, w0, atol=1e-14)


def test_local_train_single_full_batch_step():
    features = np.array([[1.0, 2.0], [3.0, -1.0]])
    targets = np.array([1.0, 0.5])
    task = QuadraticTask([features], [targets], ridge=0.1)
    lr = LearningRateSchedule(mu=1.0, kappa=1.0, local_epochs=1)
    w0 = np.array([0.3, -0.2])
    out = local_train(w0[None], local_steps(task, [0], None, lr.etas(1)))[0]
    grad = features.T @ (features @ w0 - targets) / 2.0 + 0.1 * w0
    assert np.allclose(out, w0 - lr.eta(1) * grad, atol=1e-14)


def test_local_full_batch_descent_is_contraction():
    task = make_task(n_clients=1, dim=4, samples_per_client=10, ridge=0.2,
                     noise_std=1.0, seed=6)
    opt = task.client_optima()[0]
    lr = LearningRateSchedule(mu=1.0, kappa=1.0, local_epochs=1)
    w = opt + 3.0
    dists = [float(np.sum((w - opt) ** 2))]
    for step in range(30):
        w = local_train(w[None], local_steps(task, [0], None,
                                             lr.etas(step + 1)[step:]))[0]
        dists.append(float(np.sum((w - opt) ** 2)))
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_uplink_noise_free_both_modes(rng):
    w_local = rng.normal(size=6)
    w_prev = rng.normal(size=6)
    w_rec = w_prev + rng.normal(size=6)
    zero = np.zeros(6)
    assert np.array_equal(uplink_transmit(w_local, "MT", None, None, zero),
                          w_local)
    out = uplink_transmit(w_local, "MDT", w_prev, w_rec, zero)
    assert np.allclose(out, w_local - (w_rec - w_prev), atol=1e-15)


def test_uplink_mdt_recovers_injected_downlink_noise(rng):
    w_local = rng.normal(size=8)
    w_prev = rng.normal(size=8)
    downlink_noise = rng.normal(size=8)
    out = uplink_transmit(w_local, "MDT", w_prev, w_prev + downlink_noise,
                          np.zeros(8))
    assert np.allclose(out - w_local, -downlink_noise, atol=1e-14)


def test_uplink_mdt_requires_cached_reception(rng):
    with pytest.raises(ConfigError):
        uplink_transmit(rng.normal(size=3), "MDT", None, None, np.zeros(3))


def test_uplink_mt_residual_variance(rng):
    w = np.zeros(100_000)
    sigma2 = 0.4
    noise = rng.normal(scale=math.sqrt(sigma2), size=w.size)
    out = uplink_transmit(w, "MT", None, None, noise)
    assert abs(out.var() - sigma2) / sigma2 <= 0.05


def test_aggregate_matches_mean_oracle(rng):
    vectors = [rng.normal(size=9) for _ in range(7)]
    naive = sum(vectors) / 7.0
    assert np.allclose(aggregate(vectors), naive, atol=1e-12)
    assert np.array_equal(aggregate([vectors[0]]), vectors[0])
    same = [vectors[1]] * 4
    assert np.allclose(aggregate(same), vectors[1], atol=1e-15)
    with pytest.raises(AggregationError):
        aggregate(np.empty((0, 9)))


def test_degenerate_run_equals_plain_gradient_descent():
    task = make_task(n_clients=1, dim=4, samples_per_client=10, ridge=0.2,
                     noise_std=1.0, seed=6)
    cfg = RunConfig(n_participants=1, rounds=40, local_epochs=1,
                    batch_size=None, policy_name="noise_free", seed=0)
    result = run(task, cfg)

    w = np.zeros(4)
    lr = result.policy.lr
    for t in range(1, 41):
        w = w - lr.eta(t) * task.client_gradients(w)[0]
    assert np.allclose(result.final_model, w, atol=1e-12)
    opt = task.global_optimum()
    assert result.traces[-1].sq_dist == pytest.approx(
        float(np.sum((w - opt) ** 2)), abs=1e-12)


def test_identical_seeds_identical_traces(small_task):
    kw = dict(n_participants=3, rounds=15, local_epochs=2, batch_size=3,
              mode="MT", policy_name="mt_partial", seed=21)
    a = run(small_task, RunConfig(**kw))
    b = run(small_task, RunConfig(**kw))
    assert all(x.as_row() == y.as_row() for x, y in zip(a.traces, b.traces))
    assert np.array_equal(a.final_model, b.final_model)


def test_divergence_guard_aborts_with_partial_trace(small_task):
    cfg = RunConfig(n_participants=3, rounds=50, local_epochs=2, batch_size=3,
                    mode="MT", policy_name="equal_power",
                    policy_params={"snr_db": -70.0}, seed=2)
    with pytest.raises(DivergenceError) as excinfo:
        run(small_task, cfg)
    # One row per round up to the one that tripped the guard.
    tripped = int(str(excinfo.value).split()[1].rstrip(":"))
    assert [tr.t for tr in excinfo.value.traces] == list(range(1, tripped + 1))


def test_analog_channel_run_converges(small_task):
    cfg = RunConfig(n_participants=3, rounds=40, local_epochs=2, batch_size=3,
                    mode="MT", channel="analog_physical",
                    policy_name="power_t2", seed=10)
    result = run(small_task, cfg)
    assert result.traces[-1].sq_dist < result.traces[0].sq_dist
    assert all(tr.div_ul == 1 for tr in result.traces)


def test_analog_diversity_run_uses_integer_orders(small_task):
    cfg = RunConfig(n_participants=3, rounds=40, local_epochs=2, batch_size=3,
                    mode="MT", channel="analog_physical",
                    policy_name="diversity_t2",
                    policy_params={"rho_uplink": 2.0, "rho_downlink": 2.0},
                    seed=10)
    result = run(small_task, cfg)
    orders = [tr.div_ul for tr in result.traces]
    assert orders == sorted(orders)
    assert orders[-1] > orders[0] >= 1
    assert result.traces[-1].sq_dist < result.traces[0].sq_dist


def test_analog_downlink_pathloss_cancels_power_t2_compensation(small_task):
    # power_t2 raises its downlink power by distance**pathloss and the analog
    # downlink loses exactly that, so at distance 2 the run is bit for bit
    # the run at distance 1, with 4 times the power.
    def analog(distance):
        return run(small_task, RunConfig(
            n_participants=3, rounds=12, local_epochs=2, batch_size=3,
            channel="analog_physical", policy_name="power_t2",
            policy_params={"distance": distance}, seed=7))

    near, far = analog(1.0), analog(2.0)
    assert np.array_equal(far.final_model, near.final_model)
    for a, b in zip(near.traces, far.traces, strict=True):
        assert (b.sq_dist, b.loss, b.snr_global, b.zeta2_dl) \
            == (a.sq_dist, a.loss, a.snr_global, a.zeta2_dl)
        assert b.rho_dl == 4.0 * a.rho_dl


def test_energy_accumulates_monotonically(small_task):
    cfg = RunConfig(n_participants=3, rounds=20, local_epochs=2, batch_size=3,
                    mode="MT", policy_name="power_t2", seed=1)
    result = run(small_task, cfg)
    energies = [tr.energy_cum for tr in result.traces]
    assert all(a < b for a, b in zip(energies, energies[1:]))
    assert result.energy_uplink > 0 and result.energy_downlink > 0


def test_trace_rounds_strictly_increasing(small_task):
    cfg = RunConfig(n_participants=3, rounds=12, local_epochs=1, batch_size=3,
                    policy_name="noise_free", seed=0)
    result = run(small_task, cfg)
    ts = [tr.t for tr in result.traces]
    assert ts == list(range(1, 13))


@pytest.mark.parametrize("channel, policy", [
    ("effective_noise", "mt_partial"), ("analog_physical", "power_t2")])
def test_given_family_inputs_change_no_bit(small_task, channel, policy):
    cfg = RunConfig(n_participants=3, rounds=12, local_epochs=2, batch_size=3,
                    channel=channel, policy_name=policy, seed=4)
    derived = run(small_task, cfg)
    given = run(small_task, cfg, family_inputs(small_task, cfg))
    assert given.traces == derived.traces
    assert given.final_model.tobytes() == derived.final_model.tobytes()


def _stub_inputs(task, cfg, uplink_variance, downlink_variance):
    """The run's :func:`family_inputs` with every round's variances
    replaced."""
    policy, constants, _ = family_inputs(task, cfg)
    return policy, constants, [RoundPolicy(uplink_variance, downlink_variance)
                               for _ in range(cfg.rounds)]


@pytest.mark.parametrize("uplink, downlink", [(0.0, -1e-3), (-1e-3, 0.0)])
def test_negative_noise_variance_is_policy_error(small_task, uplink,
                                                 downlink):
    cfg = RunConfig(n_participants=3, rounds=3, local_epochs=2, batch_size=3,
                    seed=0)
    with pytest.raises(PolicyError, match="must be non-negative"):
        run(small_task, cfg, _stub_inputs(small_task, cfg, uplink, downlink))


def test_nan_aggregate_trips_divergence_guard(small_task):
    # Infinite uplink noise of both signs makes the round-1 aggregate NaN;
    # its squared distance must read as infinite so the guard still trips.
    cfg = RunConfig(n_participants=6, rounds=5, local_epochs=2, batch_size=3,
                    seed=0)
    with np.errstate(invalid="ignore"), \
            pytest.raises(DivergenceError, match="^round 1: ") as excinfo:
        run(small_task, cfg, _stub_inputs(small_task, cfg, math.inf, 0.0))
    traces = excinfo.value.traces
    assert [tr.t for tr in traces] == [1]
    assert traces[0].sq_dist == math.inf


def _subset_p_value(picks, population):
    """Chi-square p-value of the rows' index sets against the uniform law
    over all subsets of their size; a row that repeats an index falls in no
    subset."""
    subsets = list(combinations(range(population), picks.shape[1]))
    masks = np.bitwise_or.reduce(1 << picks, axis=1)
    counts = np.array([np.count_nonzero(masks == sum(1 << i for i in s))
                       for s in subsets])
    expected = len(picks) / len(subsets)
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    return stats.chi2.sf(statistic, len(subsets) - 1)


def _floyd_without_replacement_step(uniforms, population):
    size = uniforms.shape[-1]
    return np.stack([(uniforms[..., i] * (j + 1)).astype(np.intp)
                     for i, j in enumerate(range(population - size,
                                                 population))], axis=-1)


def test_floyd_subsets_are_uniform():
    uniforms = np.random.default_rng(17).random((40_000, 3))
    assert _subset_p_value(engine.floyd_sample(uniforms, 6), 6) > 1e-3
    # Negative control: keeping a repeated draw instead of taking j.
    assert _subset_p_value(_floyd_without_replacement_step(uniforms, 6),
                           6) < 1e-6


def test_floyd_sample_gives_distinct_indices_in_range():
    picks = engine.floyd_sample(
        np.random.default_rng(3).random((5, 10, 4)), 40)
    assert picks.shape == (5, 10, 4)
    assert picks.min() >= 0 and picks.max() < 40
    assert all(len(set(row)) == 4 for row in picks.reshape(-1, 4).tolist())
    # Drawing the whole population returns a permutation of it.
    full = engine.floyd_sample(np.random.default_rng(4).random((3, 12)), 12)
    assert all(sorted(row) == list(range(12)) for row in full.tolist())


def test_run_config_rejects_meaningless_combinations():
    with pytest.raises(ConfigError, match="needs mode 'MDT'"):
        RunConfig(n_participants=3, rounds=5, mode="MT",
                  policy_name="mdt_constant_snr")
    with pytest.raises(ConfigError, match="distribution"):
        RunConfig(n_participants=3, rounds=5, distribution="cauchy")
    with pytest.raises(ConfigError, match="'mdt_constant_snr' needs channel"):
        RunConfig(n_participants=3, rounds=5, mode="MDT",
                  channel="analog_physical", policy_name="mdt_constant_snr")


# ---------------------------------------------------------------------------
# Stream layout 7: one generator per domain and run, round t drawing the t-th
# block of its domain's stream, with a row for every client.  Layout 6 drew
# the numbers of layout 5, with local SGD and the loss and SNR columns
# rounded differently; layout 7 draws the effective-noise runs' numbers of
# layout 6 and combines the analog downlink's copies by MRC.
#
# The digests pin the trace rows, final model and fade retries of short runs
# over every mode, noise distribution and participation level, one digest per
# channel layer.  The effective-noise digests were captured when layout 6 was
# introduced, the analog ones when layout 7 was.
# ---------------------------------------------------------------------------

GOLDEN_EFFECTIVE_NOISE = \
    "08819739b5011e5bc73186c8b595c3b3808190af6baee861d756b555b50a3dc5"
GOLDEN_ANALOG = \
    "80066edbd5b7115cb13650f3cdede3318c1a3907f4a7ad8702fb5aa0147c8c15"
# max_iterate_distance, trajectory_radius, radius_exceeded and fade_retries
# of the same runs; the effective-noise ones the same at layouts 5 to 7.
GOLDEN_DIAGNOSTICS = {
    "effective_noise":
        "e56b8db7b5dcb65d34ce899b82280a0fe529e1d349668caf8e4ccf001a74a361",
    "analog_physical":
        "0e781b16f2563584920c5398d6e2d384a16aecad20908df9b8c4d748d50a8714",
}
# Every valid (mode, policy) of each channel layer, crossed with K in {6, 3}
# (mt_full only at K = N) and both batch kinds: 12-round runs at seed 31,
# hashed as the layout digests are; 48 effective-noise and 44 analog runs.
# Both digests were captured at stream layout 7, before the schedule became
# one RoundPolicy per round.
GOLDEN_CONFIGS = {
    "effective_noise":
        "9d7fc56b8cc743eb724a4aa2a780d007e6209b2b744e62a79f442889349e428f",
    "analog_physical":
        "9ec222980bfd0bde84291ac2f7f84ea0df24da6d5b85f55d99fc2afbdd02b188",
}


def _layout_policies(channel, mode, participants):
    if channel == "analog_physical":
        return (("power_t2", {}),
                ("diversity_t2", {"rho_uplink": 5.0, "rho_downlink": 5.0}))
    if mode == "MDT":
        return (("mdt_constant_snr", {"snr_target": 5.0}),)
    return (("mt_full" if participants == 6 else "mt_partial", {}),)


def _layout_results(task, channel):
    for mode in TRANSMISSION_MODES:
        for distribution in ("gaussian", "uniform", "laplace"):
            for participants in (6, 3):
                for policy, params in _layout_policies(channel, mode,
                                                       participants):
                    yield run(task, RunConfig(
                        n_participants=participants, rounds=12,
                        local_epochs=2, batch_size=3, mode=mode,
                        channel=channel, distribution=distribution,
                        policy_name=policy, policy_params=params, seed=31))


def _results_digest(results):
    digest = hashlib.sha256()
    for result in results:
        for trace in result.traces:
            digest.update(repr(trace.as_row()).encode())
        digest.update(result.final_model.tobytes())
        digest.update(str(result.diagnostics["fade_retries"]).encode())
    return digest.hexdigest()


def _layout_digest(task, channel):
    return _results_digest(_layout_results(task, channel))


def _config_policies(channel, mode, participants):
    """Every valid (policy, params) of a channel, mode and participation."""
    policies = [("noise_free", {}), ("equal_power", {"snr_db": 10.0})]
    if participants == 6:       # mt_full needs every client
        policies.append(("mt_full", {}))
    policies.append(("mt_partial", {}))
    if mode == "MDT" and channel == "effective_noise":
        policies.append(("mdt_constant_snr", {}))
    return policies + [("power_t2", {}),
                       ("diversity_t2",
                        {"rho_uplink": 5.0, "rho_downlink": 5.0})]


def _config_results(task, channel):
    for mode in TRANSMISSION_MODES:
        for participants in (6, 3):
            for batch_size in (3, None):
                for policy, params in _config_policies(channel, mode,
                                                       participants):
                    yield run(task, RunConfig(
                        n_participants=participants, rounds=12,
                        local_epochs=2, batch_size=batch_size, mode=mode,
                        channel=channel, policy_name=policy,
                        policy_params=params, seed=31))


def _configs_digest(task, channel):
    return _results_digest(_config_results(task, channel))


def _diagnostics_digest(task, channel):
    digest = hashlib.sha256()
    for result in _layout_results(task, channel):
        digest.update(repr(sorted(result.diagnostics.items())).encode())
    return digest.hexdigest()


def test_stream_layout_7_matches_golden(small_task):
    assert STREAM_LAYOUT == 7
    assert _layout_digest(small_task, "analog_physical") == GOLDEN_ANALOG


def test_effective_noise_matches_golden(small_task):
    assert _layout_digest(small_task, "effective_noise") \
        == GOLDEN_EFFECTIVE_NOISE


@pytest.mark.parametrize("channel", CHANNEL_LAYERS)
def test_every_valid_config_matches_golden(small_task, channel):
    assert _configs_digest(small_task, channel) == GOLDEN_CONFIGS[channel]


@pytest.mark.parametrize("channel", CHANNEL_LAYERS)
def test_layout_run_diagnostics_match_golden(small_task, channel):
    assert _diagnostics_digest(small_task, channel) \
        == GOLDEN_DIAGNOSTICS[channel]


@pytest.mark.parametrize("overrides, domains", [
    ({}, {DOMAIN_DOWNLINK, DOMAIN_UPLINK, DOMAIN_BATCH}),
    ({"n_participants": 3},
     {DOMAIN_SAMPLING, DOMAIN_DOWNLINK, DOMAIN_UPLINK, DOMAIN_BATCH}),
    ({"batch_size": None}, {DOMAIN_DOWNLINK, DOMAIN_UPLINK}),
    ({"channel": "analog_physical", "policy_name": "power_t2"},
     {DOMAIN_FADE_DOWNLINK, DOMAIN_FADE_UPLINK, DOMAIN_BATCH}),
])
def test_run_builds_one_generator_per_domain(small_task, monkeypatch,
                                             overrides, domains):
    keys = []

    def recording_stream(seed, domain, *key):
        keys.append((seed, domain, *key))
        return stream(seed, domain, *key)

    monkeypatch.setattr(engine, "stream", recording_stream)
    kw = dict(n_participants=6, rounds=40, local_epochs=2, batch_size=3,
              policy_name="mt_partial", seed=9)
    run(small_task, RunConfig(**dict(kw, **overrides)))
    assert sorted(keys) == sorted((9, domain) for domain in domains)


def _assert_block_changes_nothing(task, monkeypatch, block):
    # Every noise and batch block is contiguous in C order, so drawing a
    # block of rounds per call changes no draw; and the local-SGD inputs,
    # trace rows and iterate-ball maximum of a round do not depend on which
    # block it is in (12 rounds: one block per run at 12 and 32).
    monkeypatch.setattr(engine, "BLOCK", block)
    assert _layout_digest(task, "effective_noise") == GOLDEN_EFFECTIVE_NOISE
    assert _layout_digest(task, "analog_physical") == GOLDEN_ANALOG
    for channel in CHANNEL_LAYERS:
        assert _diagnostics_digest(task, channel) \
            == GOLDEN_DIAGNOSTICS[channel]
        assert _configs_digest(task, channel) == GOLDEN_CONFIGS[channel]


@pytest.mark.parametrize("chunk", [1, 7, 32])
def test_round_chunk_changes_no_draw(small_task, monkeypatch, chunk):
    # Draw blocks that split the 12-round runs unevenly (7), round by round
    # (1) or hold them whole (32).
    _assert_block_changes_nothing(small_task, monkeypatch, chunk)


@pytest.mark.parametrize("block", [1, 5, 12])
def test_trace_block_changes_no_output(small_task, monkeypatch, block):
    # Trace blocks that split the 12-round layout runs evenly (1), leave a
    # partial last block (5) or hold a run whole (12).
    _assert_block_changes_nothing(small_task, monkeypatch, block)


# Every layout run's trace rows, final model and diagnostics at stream layout
# 5, the layout before the local-SGD rounding changed.  Only the
# effective-noise runs are compared: layout 7 draws the analog downlink's
# combined gain as one Gamma variate per element where layouts 4 to 6 drew
# every copy's fade, so the analog runs share no downlink draw with the file.
LAYOUT_5_RUNS = Path(__file__).parent / "data" / "layout5_runs.json"
# What is computed from the models, which layout 6 rounds differently; the
# MDT uplink variance follows the local models.
ROUNDED = {"sq_dist", "loss", "snr_global", "sigma2_ul", "final_model"}


def _layout_5_mismatches(task):
    """What an effective-noise layout run at this layout does differently
    from layout 5 beyond rounding: ``(channel, run, field)`` of every field
    that moved by more than ``rtol=1e-10``, or at all if the models do not
    set it."""
    reference = json.loads(LAYOUT_5_RUNS.read_text(encoding="utf-8"))
    columns = reference["columns"]
    mismatches = []
    for channel in ("effective_noise",):
        for k, (old, result) in enumerate(zip(
                reference["runs"][channel], _layout_results(task, channel),
                strict=True)):
            fields = [("final_model", old["final_model"],
                       result.final_model.tolist())]
            fields += [(name, old["diagnostics"][name], value)
                       for name, value in result.diagnostics.items()]
            fields += [(name, list(column), [getattr(tr, name)
                                             for tr in result.traces])
                       for name, column in zip(columns, zip(*old["rows"]))]
            for name, before, after in fields:
                same = np.allclose(before, after, rtol=1e-10, atol=0.0) \
                    if name in ROUNDED else before == after
                if not same:
                    mismatches.append((channel, k, name))
    return mismatches


def test_layout_6_changes_only_rounding(small_task):
    assert _layout_5_mismatches(small_task) == []


def test_swapped_noise_blocks_change_more_than_rounding(small_task,
                                                        monkeypatch):
    # Negative control: drawing each direction's noise from the other's
    # stream moves the rounded columns far beyond rounding.
    monkeypatch.setattr(engine, "DOMAIN_DOWNLINK", DOMAIN_UPLINK)
    monkeypatch.setattr(engine, "DOMAIN_UPLINK", DOMAIN_DOWNLINK)
    moved = {name for _, _, name in _layout_5_mismatches(small_task)}
    assert {"sq_dist", "loss", "final_model"} <= moved


def test_swapped_noise_blocks_fail_layout_golden(small_task, monkeypatch):
    # Negative control: drawing the downlink from the uplink's block and
    # vice versa must not reproduce the digest.
    monkeypatch.setattr(engine, "DOMAIN_DOWNLINK", DOMAIN_UPLINK)
    monkeypatch.setattr(engine, "DOMAIN_UPLINK", DOMAIN_DOWNLINK)
    assert _layout_digest(small_task, "effective_noise") \
        != GOLDEN_EFFECTIVE_NOISE
    assert _configs_digest(small_task, "effective_noise") \
        != GOLDEN_CONFIGS["effective_noise"]


def test_swapped_fade_blocks_fail_layout_golden(small_task, monkeypatch):
    # Negative control for the analog digest.
    monkeypatch.setattr(engine, "DOMAIN_FADE_DOWNLINK", DOMAIN_FADE_UPLINK)
    monkeypatch.setattr(engine, "DOMAIN_FADE_UPLINK", DOMAIN_FADE_DOWNLINK)
    assert _layout_digest(small_task, "analog_physical") != GOLDEN_ANALOG
    assert _configs_digest(small_task, "analog_physical") \
        != GOLDEN_CONFIGS["analog_physical"]


def test_batched_local_sgd_matches_per_client_loop(small_task,
                                                   small_constants):
    lr = LearningRateSchedule.from_constants(small_constants, 4)
    rng = np.random.default_rng(8)
    clients = np.array([0, 2, 3, 5])
    starts = rng.normal(size=(4, small_task.dim))
    batches = np.argpartition(rng.random((4, 4, 12)), 2, axis=-1)[..., :3]
    sampled = local_train(starts, local_steps(small_task, clients, batches,
                                              lr.etas(10)[6:]))
    full = local_train(starts, local_steps(small_task, clients, None,
                                           lr.etas(10)[6:]))
    for i, k in enumerate(clients):
        w_sampled = w_full = starts[i]
        for j in range(1, 5):
            eta = lr.eta(6 + j)
            w_sampled = w_sampled - eta * small_task.sample_gradient(
                k, w_sampled, batches[j - 1, i])
            w_full = w_full - eta * small_task.client_gradients(w_full)[k]
        np.testing.assert_allclose(sampled[i], w_sampled, rtol=1e-13)
        np.testing.assert_allclose(full[i], w_full, rtol=1e-13)


def _first_nonfinite_step(task, client, w, lr, n_steps):
    for j in range(1, n_steps + 1):
        w = w - lr.eta(j) * task.client_gradients(w)[client]
        if not np.all(np.isfinite(w)):
            return j
    return None


def test_divergence_names_lowest_client_and_its_first_step(small_task):
    # A learning rate far above 1/L multiplies the iterate by about 100 per
    # step, so each start's magnitude sets when its client overflows.
    lr = LearningRateSchedule(mu=1e-3, kappa=1.0, local_epochs=1)
    clients = np.array([1, 3, 4])
    starts = np.ones((3, small_task.dim)) * np.array([[1e250], [1e300], [1.0]])
    with np.errstate(all="ignore"):
        steps = [_first_nonfinite_step(small_task, k, starts[i], lr, 60)
                 for i, k in enumerate(clients)]
        assert steps[1] < steps[0] and steps[2] is None
        with pytest.raises(DivergenceError) as excinfo:
            local_train(starts, local_steps(small_task, clients, None,
                                            lr.etas(60)))
    assert str(excinfo.value) == \
        f"client 1: non-finite iterate at local step {steps[0]}"


def _traced_peak(fn):
    """The peak of the memory numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_local_steps_gathers_without_a_block_sized_temporary():
    # One block of full_mt's shapes: 32 rounds, E=5, N=10, B=4, d=20.
    task = make_task(n_clients=10, dim=20, samples_per_client=40, ridge=0.05,
                     noise_std=32.0, seed=7)
    rounds, epochs, n, batch = 32, 5, 10, 4
    clients = np.broadcast_to(np.arange(n), (rounds, n))
    batches = engine.floyd_sample(np.random.default_rng(3).random(
        (rounds, epochs, n, batch)), task.samples_per_client)
    etas = np.full((rounds, epochs), 1e-3)
    out = engine.step_buffers(rounds, (epochs, n, batch), task.dim)
    bound = out.feats.nbytes / 4
    local_steps(task, clients, batches, etas, out)
    assert _traced_peak(
        lambda: local_steps(task, clients, batches, etas, out)) < bound
    # Negative control: the same gather in take's default "raise" mode goes
    # through a temporary as large as the buffer.
    rows = clients[:, None, :, None] * task.samples_per_client + batches
    flat = task.features.reshape(-1, task.dim)
    assert _traced_peak(lambda: flat.take(rows, axis=0, out=out.feats,
                                          mode="raise")) >= bound


@pytest.mark.parametrize("client, sample", [(6, 0), (-1, 0), (0, 12),
                                            (0, -1), (6, None), (-1, None)])
def test_local_steps_rejects_out_of_range_indices(small_task, client, sample):
    # small_task has N=6 clients of D=12 samples.  A clipped gather would
    # read a neighbour's or the last client's data instead.
    clients = np.array([1, client])
    batches = None
    if sample is not None:
        batches = np.zeros((3, 2, 2), dtype=np.intp)
        batches[1, 1, 1] = sample
    with pytest.raises(IndexError, match="out of range"):
        local_steps(small_task, clients, batches, [0.1] * 3)
