"""The summary arithmetic of ``tools/bench_pairs.py`` on canned run records;
nothing here starts a benchmark run."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = [{"name": "wall_s", "better": "lower"},
        {"name": "rounds_per_s", "better": "higher"}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(seed, side, wall, sha="a", correct=True, failed=0, probe=0.009):
    final = None if wall is None else {
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "rounds_per_s": {"value": 200 / wall, "unit": "1/s"}}}
    return {"seed": seed, "side": side, "final": final,
            "sha256": None if wall is None else {"replica000": sha},
            "determinism_identical": wall is not None,
            "probe_median_s": None if wall is None else probe}


def test_parse_seeds(bench_pairs):
    assert bench_pairs.parse_seeds("1201-1204") == [1201, 1202, 1203, 1204]
    assert bench_pairs.parse_seeds("3,5-6,9") == [3, 5, 6, 9]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("-1")


def test_summary_counts_wins_quartiles_and_ratio(bench_pairs):
    parent = [4.0, 5.0, 6.0, 7.0]
    change = [3.0, 4.5, 6.5, 5.0]
    runs = [record(s, "parent", p) for s, p in enumerate(parent)] \
        + [record(s, "change", c, sha="a" if s < 3 else "b")
           for s, c in enumerate(change)]
    summary = bench_pairs.summarize(runs, SPEC)
    wall = summary["wall_s"]
    assert wall["pairs"] == 4
    # Numpy linear percentiles of 4, 5, 6, 7 and of 3, 4.5, 5, 6.5.
    assert wall["parent"] == {"median": 5.5, "q1": 4.75, "q3": 6.25}
    assert wall["change"] == {"median": 4.75, "q1": 4.125, "q3": 5.375}
    assert wall["change_better_pairs"] == 3         # 6.5 > 6.0 loses
    assert wall["median_change_rel"] == pytest.approx(4.75 / 5.5 - 1)
    assert wall["median_gap"] == pytest.approx(-0.75)
    assert wall["parent_iqr"] == pytest.approx(1.5)
    # Higher is better: the same three pairs win.
    assert summary["rounds_per_s"]["change_better_pairs"] == 3
    assert summary["trace_sha256_equal_pairs"] == 3
    assert summary["correct_runs"] == 8
    assert summary["determinism_identical_runs"] == 8
    assert summary["runs"] == 8


def test_summary_drops_unpaired_and_failed_runs(bench_pairs):
    runs = [record(0, "parent", 2.0), record(0, "change", 1.0),
            record(1, "parent", 2.0), record(1, "change", None),
            record(2, "parent", 3.0, correct=False, failed=4),
            record(2, "change", 3.0)]
    summary = bench_pairs.summarize(runs, SPEC)
    wall = summary["wall_s"]
    assert wall["pairs"] == 2
    assert wall["change_better_pairs"] == 1          # a tie is no win
    assert summary["correct_runs"] == 4
    assert summary["failed_ops"] == 4
    assert summary["determinism_identical_runs"] == 5


def test_summary_without_pairs(bench_pairs):
    summary = bench_pairs.summarize([record(0, "parent", 1.0)], SPEC)
    assert summary["wall_s"] == {"pairs": 0}
    assert summary["trace_sha256_equal_pairs"] == 0


def test_summary_flags_pairs_whose_speed_probes_drifted(bench_pairs):
    # Seed 1's change ran while the machine was 1.5x faster, seed 2's parent
    # while it was 1.3x slower; both pairs are listed and stay in the medians.
    probes = {0: (0.0090, 0.0095), 1: (0.0090, 0.0060), 2: (0.0117, 0.0090),
              3: (0.0090, 0.0090 * 1.25)}
    runs = []
    for seed, (parent, change) in probes.items():
        runs += [record(seed, "parent", 2.0, probe=parent),
                 record(seed, "change", 1.0, probe=change)]
    summary = bench_pairs.summarize(runs, SPEC)
    ratios = summary["probe_ratio_change_over_parent"]
    assert ratios[0] == pytest.approx(0.0095 / 0.0090)
    assert ratios[1] == pytest.approx(2 / 3)
    assert summary["probe_drift_pairs"] == [1, 2]      # 1.25 itself is not
    assert summary["wall_s"]["pairs"] == 4
    assert summary["wall_s"]["change_better_pairs"] == 4


def test_run_record_takes_the_median_probe_of_all_passes(bench_pairs,
                                                         monkeypatch):
    detail = {"machine": {}, "determinism": {"identical": True},
              "passes": [{"checks": [], "sha256": {}, "probes_s": [3.0, 1.0]},
                         {"probes_s": [2.0]}, {"probes_s": [5.0, 4.0]}]}
    stdout = "\n".join(["== banner", json.dumps({"perfbench": detail}),
                        json.dumps({"correct": True, "metrics": {}})])
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k:
                        subprocess.CompletedProcess(a, 0, stdout, ""))
    record = bench_pairs.run_once("copy", "full_mt", 3, 60)
    assert record["probe_median_s"] == 3.0
    assert record["final"] == {"correct": True, "metrics": {}}
