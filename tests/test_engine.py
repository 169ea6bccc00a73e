import hashlib
import math
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from noisyfed import (AggregationError, ClientData, ConfigError,
                      DivergenceError, LearningRateSchedule, QuadraticTask,
                      RunConfig, aggregate, downlink_broadcast, local_train,
                      make_task, run, sample_clients, uplink_transmit)
from noisyfed import NoiseSpec, PolicyError, engine
from noisyfed.channel import sample_noise
from noisyfed.engine import CHANNEL_LAYERS, TRANSMISSION_MODES
from noisyfed.policies import NoiseFreePolicy, RoundPolicy
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
    draw = partial(sample_noise, NoiseSpec(1.0, distribution))
    return list(engine._round_blocks(draw, stream(seed, DOMAIN_DOWNLINK),
                                     shape, rounds))


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
    task = QuadraticTask(
        clients=[ClientData(features=features, targets=features @ w0)],
        ridge=0.0, dim=2)
    lr = LearningRateSchedule(mu=1.0, kappa=1.0, local_epochs=1)
    out = local_train(w0[None], task, [0], None, lr.etas(5))[0]
    assert np.allclose(out, w0, atol=1e-14)


def test_local_train_single_full_batch_step():
    features = np.array([[1.0, 2.0], [3.0, -1.0]])
    targets = np.array([1.0, 0.5])
    task = QuadraticTask(
        clients=[ClientData(features=features, targets=targets)],
        ridge=0.1, dim=2)
    lr = LearningRateSchedule(mu=1.0, kappa=1.0, local_epochs=1)
    w0 = np.array([0.3, -0.2])
    out = local_train(w0[None], task, [0], None, lr.etas(1))[0]
    grad = features.T @ (features @ w0 - targets) / 2.0 + 0.1 * w0
    assert np.allclose(out, w0 - lr.eta(1) * grad, atol=1e-14)


def test_local_full_batch_descent_is_contraction():
    task = make_task(n_clients=1, dim=4, samples_per_client=10, ridge=0.2,
                     noise_std=1.0, seed=6)
    opt = task.client_optimum(0)
    lr = LearningRateSchedule(mu=1.0, kappa=1.0, local_epochs=1)
    w = opt + 3.0
    dists = [float(np.sum((w - opt) ** 2))]
    for step in range(30):
        w = local_train(w[None], task, [0], None,
                        lr.etas(step + 1)[step:])[0]
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
    lr = result.lr
    for t in range(1, 41):
        w = w - lr.eta(t) * task.client_gradient(0, w)
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
    # Noise means are recorded only for virtual sequences.
    assert a.mean_uplink_noise == [] and a.mean_downlink_noise == []


def test_virtual_process_equivalence(small_task):
    # Training every client but aggregating only the sampled ones reproduces
    # the sampled-only run exactly, for both transmission modes and for a
    # per-client schedule, every trace column included.
    for mode, policy, params in (("MT", "mt_partial", {}),
                                 ("MT", "mt_full",
                                  {"weights": [1, 2, 3, 4, 5, 6]}),
                                 ("MDT", "mdt_constant_snr",
                                  {"snr_target": 5.0})):
        kw = dict(n_participants=2, rounds=10, local_epochs=2, batch_size=3,
                  mode=mode, policy_name=policy, policy_params=params, seed=4)
        plain = run(small_task, RunConfig(**kw))
        virtual = run(small_task, RunConfig(**kw, virtual_all_clients=True))
        assert np.array_equal(plain.final_model, virtual.final_model)
        assert [x.as_row() for x in plain.traces] \
            == [y.as_row() for y in virtual.traces]


def test_analog_virtual_process_equivalence(small_task):
    # The analog downlink draws a row for every client, sampled or not, so
    # training all clients changes no sampled client's reception.
    for mode in TRANSMISSION_MODES:
        kw = dict(n_participants=2, rounds=10, local_epochs=2, batch_size=3,
                  mode=mode, channel="analog_physical",
                  policy_name="diversity_t2",
                  policy_params={"rho_uplink": 5.0, "rho_downlink": 5.0},
                  seed=4)
        plain = run(small_task, RunConfig(**kw))
        virtual = run(small_task, RunConfig(**kw, virtual_all_clients=True))
        assert np.array_equal(plain.final_model, virtual.final_model)
        assert [x.as_row() for x in plain.traces] \
            == [y.as_row() for y in virtual.traces]
        assert plain.diagnostics["fade_retries"] \
            == virtual.diagnostics["fade_retries"]


def test_virtual_sequences_identities(small_task):
    cfg = RunConfig(n_participants=6, rounds=8, local_epochs=2, batch_size=3,
                    mode="MT", policy_name="mt_full", seed=13,
                    record_virtual=True)
    result = run(small_task, cfg)
    assert len(result.virtual) == 8
    assert len(result.mean_uplink_noise) == len(result.mean_downlink_noise) == 8
    for i, v in enumerate(result.virtual):
        # Full participation: the sampling-average equals the all-client
        # average, and the server model is exactly the noise-bearing average.
        assert np.allclose(v.u_bar, v.v_bar, atol=1e-12)
        assert np.allclose(v.u_bar - v.p_bar, -result.mean_uplink_noise[i],
                           atol=1e-12)
        if i + 1 < len(result.virtual):
            next_down = result.mean_downlink_noise[i + 1]
            assert np.allclose(v.w_bar - v.p_bar, next_down, atol=1e-12)


def test_virtual_p_bar_is_global_model(small_task):
    cfg = RunConfig(n_participants=6, rounds=6, local_epochs=2, batch_size=3,
                    mode="MT", policy_name="mt_full", seed=3,
                    record_virtual=True)
    result = run(small_task, cfg)
    # Recompute the traced distances from p_bar: identical means p_bar == w_t.
    opt = result.constants.opt
    for v, tr in zip(result.virtual, result.traces):
        assert float(np.sum((v.p_bar - opt) ** 2)) == pytest.approx(
            tr.sq_dist, abs=1e-12)


def test_virtual_sequences_coincide_without_noise(small_task):
    cfg = RunConfig(n_participants=6, rounds=5, local_epochs=2, batch_size=3,
                    mode="MT", policy_name="noise_free", seed=8,
                    record_virtual=True)
    result = run(small_task, cfg)
    for v in result.virtual:
        assert np.allclose(v.v_bar, v.u_bar, atol=1e-14)
        assert np.allclose(v.u_bar, v.p_bar, atol=1e-14)
        assert np.allclose(v.p_bar, v.w_bar, atol=1e-14)


def test_virtual_recording_requires_full_participation(small_task):
    with pytest.raises(ConfigError):
        run(small_task, RunConfig(n_participants=2, rounds=3,
                                  policy_name="noise_free",
                                  record_virtual=True))


def test_divergence_guard_aborts_with_partial_trace(small_task):
    cfg = RunConfig(n_participants=3, rounds=50, local_epochs=2, batch_size=3,
                    mode="MT", policy_name="equal_power",
                    policy_params={"snr_db": -70.0}, seed=2,
                    divergence_factor=100.0)
    with pytest.raises(DivergenceError) as excinfo:
        run(small_task, cfg)
    # One row per round up to the one that tripped the guard.
    tripped = int(str(excinfo.value).split()[1].rstrip(":"))
    assert [tr.t for tr in excinfo.value.traces] == list(range(1, tripped + 1))


def test_mdt_residual_is_model_plus_upload_minus_downlink_noise(small_task):
    # In the noiseless-uplink limit the reconstruction differs from the local
    # model by exactly the injected downlink noise (per-round check).
    cfg = RunConfig(n_participants=6, rounds=4, local_epochs=2, batch_size=3,
                    mode="MDT", policy_name="mdt_constant_snr",
                    policy_params={"snr_target": 1e12}, seed=5,
                    record_virtual=True)
    result = run(small_task, cfg)
    for i, v in enumerate(result.virtual):
        gap = v.u_bar - v.p_bar
        expected = result.mean_downlink_noise[i] - result.mean_uplink_noise[i]
        assert np.allclose(gap, expected, atol=1e-10)


def test_schedule_on_iteration_timeline(small_task):
    cfg = RunConfig(n_participants=3, rounds=10, local_epochs=2, batch_size=3,
                    mode="MT", policy_name="mt_partial", seed=6,
                    schedule_on="iteration")
    result = run(small_task, cfg)
    # Iteration indexing evaluates the uplink schedule at t*E: strictly less
    # noise than round indexing at the same round.
    round_cfg = RunConfig(n_participants=3, rounds=10, local_epochs=2,
                          batch_size=3, mode="MT", policy_name="mt_partial",
                          seed=6)
    round_result = run(small_task, round_cfg)
    assert result.traces[0].sigma2_ul < round_result.traces[0].sigma2_ul


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


class _StubPolicy(NoiseFreePolicy):
    def __init__(self, uplink_variance, downlink_variance):
        self.variances = (uplink_variance, downlink_variance)

    def round_params(self, t):
        return RoundPolicy(*self.variances)


@pytest.mark.parametrize("uplink, downlink", [(0.0, -1e-3), (-1e-3, 0.0)])
def test_negative_noise_variance_is_policy_error(small_task, uplink,
                                                 downlink):
    cfg = RunConfig(n_participants=3, rounds=3, local_epochs=2, batch_size=3,
                    seed=0)
    with pytest.raises(PolicyError, match="must be non-negative"):
        run(small_task, cfg, policy=_StubPolicy(uplink, downlink))


def test_nan_aggregate_trips_divergence_guard(small_task):
    # Infinite uplink noise of both signs makes the round-1 aggregate NaN;
    # its squared distance must read as infinite so the guard still trips.
    cfg = RunConfig(n_participants=6, rounds=5, local_epochs=2, batch_size=3,
                    seed=0)
    with np.errstate(invalid="ignore"), \
            pytest.raises(DivergenceError, match="^round 1: ") as excinfo:
        run(small_task, cfg, policy=_StubPolicy(math.inf, 0.0))
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


# ---------------------------------------------------------------------------
# Stream layout 5: one generator per domain and run, round t drawing the t-th
# block of its domain's stream, with a row for every client.
#
# The digests pin the trace rows, final model and fade retries of short runs
# over every mode, noise distribution and participation level, one digest per
# channel layer.  Both were captured when layout 5 was introduced.
# ---------------------------------------------------------------------------

GOLDEN_EFFECTIVE_NOISE = \
    "c5b809b5e2059344e93b0aaa1be831265a68f1d15db2f61d139d1690e8e4a455"
GOLDEN_ANALOG_LAYOUT_5 = \
    "bf8d59e02be7185d434f07e2d750fcc6fc214a430d20e5138ba07d7e4b3799db"
# max_iterate_distance, trajectory_radius, radius_exceeded and fade_retries
# of the same runs, captured before the iterate ball was reduced in blocks.
GOLDEN_DIAGNOSTICS = {
    "effective_noise":
        "e56b8db7b5dcb65d34ce899b82280a0fe529e1d349668caf8e4ccf001a74a361",
    "analog_physical":
        "2daf8045f6aeb3292a49e449c20c579a396936082c4fb76371d55c70c22621c3",
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


def _layout_digest(task, channel):
    digest = hashlib.sha256()
    for result in _layout_results(task, channel):
        for trace in result.traces:
            digest.update(repr(trace.as_row()).encode())
        digest.update(result.final_model.tobytes())
        digest.update(str(result.diagnostics["fade_retries"]).encode())
    return digest.hexdigest()


def _diagnostics_digest(task, channel):
    digest = hashlib.sha256()
    for result in _layout_results(task, channel):
        digest.update(repr(sorted(result.diagnostics.items())).encode())
    return digest.hexdigest()


def test_stream_layout_5_matches_golden(small_task):
    assert STREAM_LAYOUT == 5
    assert _layout_digest(small_task, "analog_physical") \
        == GOLDEN_ANALOG_LAYOUT_5


def test_effective_noise_matches_golden(small_task):
    assert _layout_digest(small_task, "effective_noise") \
        == GOLDEN_EFFECTIVE_NOISE


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


@pytest.mark.parametrize("chunk", [1, 7, engine.ROUND_CHUNK])
def test_round_chunk_changes_no_draw(small_task, monkeypatch, chunk):
    # Every block is contiguous in C order, so reading the noise and batch
    # blocks a different number of rounds per call changes no draw, the
    # extra downlink block of virtual-sequence recording included.
    def virtual_w_bars():
        result = run(small_task, RunConfig(
            n_participants=6, rounds=13, local_epochs=2, batch_size=3,
            policy_name="mt_full", seed=5, record_virtual=True))
        return np.array([v.w_bar for v in result.virtual])

    expected = virtual_w_bars()
    monkeypatch.setattr(engine, "ROUND_CHUNK", chunk)
    assert np.array_equal(virtual_w_bars(), expected)
    assert _layout_digest(small_task, "effective_noise") \
        == GOLDEN_EFFECTIVE_NOISE
    assert _layout_digest(small_task, "analog_physical") \
        == GOLDEN_ANALOG_LAYOUT_5


@pytest.mark.parametrize("block", [1, 5, 12])
def test_trace_block_changes_no_output(small_task, monkeypatch, block):
    # Trace rows and the iterate-ball maximum are built per block of rounds
    # (12 rounds: one block per run); the block size must change neither.
    monkeypatch.setattr(engine, "TRACE_BLOCK", block)
    assert _layout_digest(small_task, "effective_noise") \
        == GOLDEN_EFFECTIVE_NOISE
    assert _layout_digest(small_task, "analog_physical") \
        == GOLDEN_ANALOG_LAYOUT_5
    for channel in CHANNEL_LAYERS:
        assert _diagnostics_digest(small_task, channel) \
            == GOLDEN_DIAGNOSTICS[channel]


def test_swapped_noise_blocks_fail_layout_golden(small_task, monkeypatch):
    # Negative control: drawing the downlink from the uplink's block and
    # vice versa must not reproduce the digest.
    monkeypatch.setattr(engine, "DOMAIN_DOWNLINK", DOMAIN_UPLINK)
    monkeypatch.setattr(engine, "DOMAIN_UPLINK", DOMAIN_DOWNLINK)
    assert _layout_digest(small_task, "effective_noise") \
        != GOLDEN_EFFECTIVE_NOISE


def test_swapped_fade_blocks_fail_layout_golden(small_task, monkeypatch):
    # Negative control for the analog digest.
    monkeypatch.setattr(engine, "DOMAIN_FADE_DOWNLINK", DOMAIN_FADE_UPLINK)
    monkeypatch.setattr(engine, "DOMAIN_FADE_UPLINK", DOMAIN_FADE_DOWNLINK)
    assert _layout_digest(small_task, "analog_physical") \
        != GOLDEN_ANALOG_LAYOUT_5


def test_batched_local_sgd_matches_per_client_loop(small_task,
                                                   small_constants):
    lr = LearningRateSchedule.from_constants(small_constants, 4)
    rng = np.random.default_rng(8)
    clients = np.array([0, 2, 3, 5])
    starts = rng.normal(size=(4, small_task.dim))
    batches = np.argpartition(rng.random((4, 4, 12)), 2, axis=-1)[..., :3]
    sampled = local_train(starts, small_task, clients, batches,
                          lr.etas(10)[6:])
    full = local_train(starts, small_task, clients, None, lr.etas(10)[6:])
    for i, k in enumerate(clients):
        w_sampled = w_full = starts[i]
        for j in range(1, 5):
            eta = lr.eta(6 + j)
            w_sampled = w_sampled - eta * small_task.sample_gradient(
                k, w_sampled, batches[j - 1, i])
            w_full = w_full - eta * small_task.client_gradient(k, w_full)
        np.testing.assert_allclose(sampled[i], w_sampled, rtol=1e-13)
        np.testing.assert_allclose(full[i], w_full, rtol=1e-13)


def _first_nonfinite_step(task, client, w, lr, n_steps):
    for j in range(1, n_steps + 1):
        w = w - lr.eta(j) * task.client_gradient(client, w)
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
            local_train(starts, small_task, clients, None, lr.etas(60))
    assert str(excinfo.value) == \
        f"client 1: non-finite iterate at local step {steps[0]}"
