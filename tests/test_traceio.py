import hashlib

import numpy as np
import pytest

from noisyfed import RunConfig, run
from noisyfed.traceio import read_trace, write_trace

# SHA-256 of the whole trace file (config line, header and rows) of one run
# per channel layer, the effective one captured at stream layout 6, the
# analog one at layout 7.  The effective run covers
# per-client weights, the analog run partial participation with diversity
# orders under differential upload.
RUNS = {
    "effective_noise": dict(
        n_participants=6, mode="MT", distribution="uniform",
        policy_name="mt_full", policy_params={"weights": [1, 2, 3, 4, 5, 6]}),
    "analog_physical": dict(
        n_participants=3, mode="MDT", channel="analog_physical",
        policy_name="diversity_t2",
        policy_params={"rho_uplink": 5.0, "rho_downlink": 5.0}),
}
GOLDEN_TRACE_BYTES = {
    "effective_noise":
        "99c6c12c2c9e6ed9b8adbad0cf3784564c54365372801afe8b454e8cdbaab3e3",
    "analog_physical":
        "f7250d3fab9198c6a90b1dfcc0ca907b151cbf6d3ed901b0ad33adfd4fa8a686",
}


def _run(task, channel):
    return run(task, RunConfig(rounds=15, local_epochs=2, batch_size=3,
                               seed=13, **RUNS[channel]))


def _trace_sha256(path, result):
    resolved = {"policy": result.policy.name,
                "policy_params": result.policy.params(),
                "diagnostics": result.diagnostics,
                "energy": [result.energy_uplink, result.energy_downlink],
                "final_model": result.final_model}
    write_trace(path, result.traces, resolved)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("channel", sorted(RUNS))
def test_trace_file_bytes_match_golden(small_task, tmp_path, channel):
    result = _run(small_task, channel)
    path = tmp_path / "trace.csv"
    assert _trace_sha256(path, result) == GOLDEN_TRACE_BYTES[channel]
    _, rows = read_trace(path)
    assert [row["t"] for row in rows] == list(range(1, 16))


def test_numpy_scalar_cell_fails_trace_bytes_golden(small_task, tmp_path):
    # Negative control: a cell that leaks as np.float64 reprs differently.
    result = _run(small_task, "effective_noise")
    result.traces[4] = result.traces[4]._replace(
        loss=np.float64(result.traces[4].loss))
    assert _trace_sha256(tmp_path / "trace.csv", result) \
        != GOLDEN_TRACE_BYTES["effective_noise"]
