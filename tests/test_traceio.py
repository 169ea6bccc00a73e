import hashlib

import numpy as np
import pytest

from noisyfed import RunConfig, run
from noisyfed.traceio import read_trace, write_trace

# SHA-256 of the whole trace file (config line, header and rows) of one run
# per channel layer, both captured at stream layout 8.  The effective run
# covers full participation under the full-upload schedule, the analog run
# partial participation with diversity orders under differential upload.
RUNS = {
    "effective_noise": dict(
        n_participants=6, mode="MT", distribution="uniform",
        policy_name="mt_full"),
    "analog_physical": dict(
        n_participants=3, mode="MDT", channel="analog_physical",
        policy_name="diversity_t2",
        policy_params={"rho_uplink": 5.0, "rho_downlink": 5.0}),
}
GOLDEN_TRACE_BYTES = {
    "effective_noise":
        "8803a68e4595f25f046397da3c884af8624853f711af3cc90814fd3b180af941",
    "analog_physical":
        "c56149848c0e9f46db909732fde138265155d028d6aad74df0b83102ee443271",
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
    write_trace(path, result.trace, resolved)
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
    result.trace.loss[4] = np.float64(result.trace.loss[4])
    assert _trace_sha256(tmp_path / "trace.csv", result) \
        != GOLDEN_TRACE_BYTES["effective_noise"]
