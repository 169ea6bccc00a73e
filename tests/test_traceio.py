import hashlib
from dataclasses import replace

import numpy as np
import pytest

from noisyfed import RunConfig, run
from noisyfed.traceio import read_trace, write_trace

# SHA-256 of the whole trace file (config line, header and rows) of one run
# per channel layer, captured before the trace columns were assembled after
# the round loop.  The effective run covers per-client weights, the analog
# run partial participation with diversity orders under differential upload.
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
        "94528f207f8e6769eda979f9c9d3a303be5ce102e8bc04a02157faf5c14f6458",
    "analog_physical":
        "6357529d41d1ef7aee161df84ae4fe4fcb39b0bb75632a73daf12e36cfe52d6e",
}


def _run(task, channel):
    return run(task, RunConfig(rounds=15, local_epochs=2, batch_size=3,
                               seed=13, **RUNS[channel]))


def _trace_sha256(path, result):
    resolved = {"policy": result.policy_name,
                "policy_params": result.policy_params,
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
    result.traces[4] = replace(result.traces[4],
                               loss=np.float64(result.traces[4].loss))
    assert _trace_sha256(tmp_path / "trace.csv", result) \
        != GOLDEN_TRACE_BYTES["effective_noise"]
