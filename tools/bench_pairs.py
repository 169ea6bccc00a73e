"""Alternating parent/change pairs of the benchmark, summarized as BENCH_<label>.json.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --label my_change --parent HEAD~1 \
        --change HEAD --seeds 1201-1210

Each side is a ``git archive`` copy of its tree-ish (a commit, or the tree
``git write-tree`` gives for staged work), extracted without ``__pycache__``.
For every workload of BENCHMARK.json and every seed the two sides run
``perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0``
one after the other, with ``PYTHONDONTWRITEBYTECODE=1``; the parent runs
first in the first, third, ... pair and the change first in the others.  The file records every run made
(its final JSON line, machine, pass-0 checks and trace hashes) and, per
workload and end-to-end metric of BENCHMARK.json, each side's median and
quartiles (numpy linear percentiles), the pairs the change won, and the
relative change of the medians next to the gap and the parent's IQR it is
judged against.  Each run also records the median of its passes' speed
probes (``probes_s`` of the ``perfbench`` line), and each pair the ratio of
the change's probe median to the parent's; pairs whose ratio lies outside
[1/PROBE_DRIFT, PROBE_DRIFT] ran at different machine speeds and are listed,
but kept in every statistic.  Its ``notes`` are left empty for the reader's
conclusions.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
COMMAND = ("python3 perfbench/run.py --workload <workload> --seed <seed> "
           "--seconds {seconds:g} --trace 0")
#: A pair whose two sides' probe medians differ by more than this factor is
#: flagged as drifted.
PROBE_DRIFT = 1.25


def parse_seeds(text):
    """``"1201-1210"`` or ``"3,5,9"`` as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds or min(seeds) < 0:
        raise ValueError(f"bad seed list {text!r}")
    return seeds


def resolve(ref):
    return subprocess.run(["git", "rev-parse", ref], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(ref, dest):
    """Extract ``git archive ref`` into ``dest``, without bytecode caches."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    for here, dirs, _ in os.walk(dest):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(here, "__pycache__"))
            dirs.remove("__pycache__")


def run_once(copy, workload, seed, seconds):
    """One benchmark run in a copy: its record, without side and order."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, env=env, capture_output=True, text=True)
    record = {"seed": seed, "returncode": proc.returncode, "final": None,
              "machine": None, "checks": None, "sha256": None,
              "determinism_identical": None, "probe_median_s": None}
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        if "perfbench" in doc:
            detail = doc["perfbench"]
            record.update(machine=detail["machine"],
                          checks=detail["passes"][0]["checks"],
                          sha256=detail["passes"][0]["sha256"],
                          determinism_identical=detail["determinism"][
                              "identical"],
                          probe_median_s=statistics.median(
                              x for p in detail["passes"]
                              for x in p["probes_s"]))
        else:
            record["final"] = doc
    if record["final"] is None:
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def metric_value(run, name):
    final = run["final"]
    if final is None:
        return None
    return final["metrics"].get(name, {}).get("value")


def summarize_metric(runs, name, better):
    """One metric over a workload's runs: each side's median and quartiles,
    the pairs (same seed, both sides measured) the change won, and the
    medians' relative change with the gap and the parent's IQR."""
    by_seed = {}
    for run in runs:
        value = metric_value(run, name)
        if value is not None:
            by_seed.setdefault(run["seed"], {})[run["side"]] = value
    pairs = [sides for sides in by_seed.values() if len(sides) == 2]
    out = {"pairs": len(pairs)}
    if not pairs:
        return out
    for side in SIDES:
        out[side] = quartiles([p[side] for p in pairs])
    sign = -1.0 if better == "lower" else 1.0
    out["change_better_pairs"] = sum(
        sign * (p["change"] - p["parent"]) > 0 for p in pairs)
    base, new = out["parent"]["median"], out["change"]["median"]
    out["median_change_rel"] = new / base - 1.0
    out["median_gap"] = new - base
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    return out


def summarize(runs, end_to_end):
    """The summary of one workload's runs; ``end_to_end`` is BENCHMARK.json's
    list of metric specs."""
    summary = {m["name"]: summarize_metric(runs, m["name"], m["better"])
               for m in end_to_end}
    hashes = {}
    for run in runs:
        if run["sha256"]:
            hashes.setdefault(run["seed"], {})[run["side"]] = run["sha256"]
    summary["trace_sha256_equal_pairs"] = sum(
        len(h) == 2 and h["parent"] == h["change"] for h in hashes.values())
    probes = {}
    for run in runs:
        if run.get("probe_median_s"):
            probes.setdefault(run["seed"], {})[run["side"]] = \
                run["probe_median_s"]
    ratios = {seed: p["change"] / p["parent"]
              for seed, p in probes.items() if len(p) == 2}
    summary["probe_ratio_change_over_parent"] = ratios
    summary["probe_drift_pairs"] = [
        seed for seed, ratio in ratios.items()
        if not 1.0 / PROBE_DRIFT <= ratio <= PROBE_DRIFT]
    summary["correct_runs"] = sum(bool(run["final"] and run["final"]["correct"])
                                  for run in runs)
    summary["failed_ops"] = sum(run["final"]["failed"] for run in runs
                                if run["final"])
    summary["determinism_identical_runs"] = sum(
        bool(run["determinism_identical"]) for run in runs)
    summary["runs"] = len(runs)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD~1",
                        help="tree-ish of the parent side")
    parser.add_argument("--change", default="HEAD",
                        help="tree-ish of the change side")
    parser.add_argument("--seeds", required=True,
                        help="workload seeds, e.g. 1201-1210 or 3,5,9")
    parser.add_argument("--describe-change", default="",
                        help="text of the file's 'change' field")
    parser.add_argument("--out", default=None,
                        help="default: BENCH_<label>.json at the root")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    refs = {"parent": resolve(args.parent), "change": resolve(args.change)}
    out_path = args.out or os.path.join(ROOT, f"BENCH_{args.label}.json")
    work = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        copies = {side: os.path.join(work, side) for side in SIDES}
        for side in SIDES:
            export(refs[side], copies[side])
        result = {
            "label": args.label,
            "command": COMMAND.format(seconds=seconds),
            "protocol": (
                f"{len(seeds)} alternating parent/change pairs per "
                f"workload, workload seeds {args.seeds}; "
                "the parent runs first in the 1st, 3rd, ... pair and the "
                "change first in the others. Each side runs from its own "
                "git-archive copy of its tree, neither with a bytecode cache "
                "(PYTHONDONTWRITEBYTECODE=1, python -B, no __pycache__). "
                "Quartiles are numpy linear percentiles. Pairs whose "
                "speed-probe medians differ by more than "
                f"{PROBE_DRIFT:g}x are listed in probe_drift_pairs and kept "
                "in every statistic."),
            "parent": refs["parent"],
            "change": refs["change"] + (f" ({args.describe_change})"
                                        if args.describe_change else ""),
            "workloads": {},
            "notes": [],
        }
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for k, seed in enumerate(seeds):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                for i, side in enumerate(order):
                    record = run_once(copies[side], workload, seed, seconds)
                    record.update(side=side, ran_first=i == 0)
                    runs.append(record)
                    wall = metric_value(record, "wall_s")
                    print(f"{workload} seed {seed} {side}: wall_s {wall}",
                          flush=True)
            result["workloads"][workload] = {
                "summary": summarize(runs, spec["end_to_end"]),
                "runs": runs}
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for workload, body in result["workloads"].items():
        drifted = body["summary"]["probe_drift_pairs"]
        if drifted:
            print(f"{workload}: speed probes drifted in the pairs of seeds "
                  f"{drifted} (kept)")
        for name, m in body["summary"].items():
            if isinstance(m, dict) and m.get("pairs"):
                print(f"{workload} {name}: {m['parent']['median']:.6g} -> "
                      f"{m['change']['median']:.6g} "
                      f"({m['median_change_rel']:+.1%}, "
                      f"{m['change_better_pairs']}/{m['pairs']} pairs better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
