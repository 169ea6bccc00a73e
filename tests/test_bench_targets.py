"""The benchmark's tracer must find every function it names.

A target that no longer resolves makes its traced metrics read ``absent``,
which the benchmark's JSON line carries as ``null``.  ``perfbench/tracer.py``
is executed from its source, so nothing is written next to it.
"""

import math
import types
from pathlib import Path

import pytest

import noisyfed.cli  # noqa: F401  (the benchmark's entry point loads it all)
from noisyfed import RunConfig, engine

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH),
                 "exec"), module.__dict__)
    return module


def _unresolved(tracer):
    return [name for name, target in tracer.TARGETS.items()
            if not tracer._resolve(*target)]


def test_every_tracer_target_resolves(tracer):
    assert _unresolved(tracer) == []


def test_removed_target_is_unresolved(tracer, monkeypatch):
    # Negative control: a target deleted from its module must show.
    monkeypatch.delattr(engine, "aggregate")
    assert _unresolved(tracer) == ["engine.aggregate"]


def _traced_run(tracer, task, **overrides):
    """Summary and result of one traced run; checks what every run shows."""
    spans = tracer.Tracer()
    spans.install()
    try:
        # Looked up after install, where the wrapper sits.
        result = engine.run(task, RunConfig(
            n_participants=3, local_epochs=2, batch_size=3, **overrides))
    finally:
        spans.uninstall()
    summary = spans.summary()
    assert not spans.absent and not spans.broken
    assert all(math.isfinite(value) for value in summary.values())
    assert summary["engine.run.calls"] == 1
    assert summary["engine.local_train.calls"] == overrides["rounds"]
    # The schedule is built once, as columns for every round; a policy path
    # that goes round the traced method reads none.
    assert summary["policies.round_params.calls"] == 1
    return summary, result


def test_traced_run_reports_finite_metrics(tracer, small_task):
    summary, _ = _traced_run(tracer, small_task, policy_name="mt_partial",
                             rounds=5, seed=1)
    # The effective-noise layer makes no analog call.
    assert summary["channel.diversity_copies"] == 0


@pytest.mark.parametrize("mode", ["MT", "MDT"])
def test_traced_analog_run_reports_finite_metrics(tracer, small_task, mode):
    summary, result = _traced_run(
        tracer, small_task, mode=mode, channel="analog_physical",
        policy_name="diversity_t2",
        policy_params={"rho_uplink": 5.0, "rho_downlink": 5.0}, rounds=12,
        seed=4)
    # The channel hooks read each analog call's copies and retries.
    assert summary["channel.diversity_copies"] == sum(
        result.trace.div_ul) + sum(result.trace.div_dl)
    assert summary["channel.fade_retries"] \
        == result.diagnostics["fade_retries"]
