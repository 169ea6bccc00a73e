"""noisyfed benchmark: workloads through the CLI, timed, gated and traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload full_mt --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload`` takes a workload of BENCHMARK.json, ``all`` for every one of
them in turn, or one of the extra workloads in ``workloads.py`` that are kept
for measuring by hand.

A run first times set-up in fresh interpreters that only set up, before and
after the run's worker.  The worker (``worker.py``) is one more interpreter
that makes every pass of the run, each one ``noisyfed.cli.main`` call: the
workload's whole call, which the gate checks, and then timed passes while
another one fits in ``--seconds``.  Every interpreter runs with the same
``PYTHONHASHSEED``, so runs do not differ by their hash layout.  With
``--trace 0`` the timed passes are one-replica calls of the family and the
last line reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they repeat the whole call, every other one traced, and the last line reports
the per-layer metrics.  Every pass is checked: exit status, each check's
outcome and estimate, trace shapes, and byte-identical outputs across passes.

The time metrics are reported at the reference speed of ``calibrate.py``: each
set-up and each pass is scaled by the speed probe timed next to it, so that
the shared machine's drift in speed does not show as a change of the program.
The raw medians are printed too.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
RUN_TIMEOUT_S = 150
SETUPS_BEFORE = 4
SETUPS_AFTER = 4
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")
CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+): estimate=(\S+)")
VERIFY_TOTAL = re.compile(r"^(\d+)/(\d+) checks passed$")
VERIFY_ROUNDS = re.compile(r"(\d+) seeds x (\d+) rounds")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "workload_seed": seed}


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

def run_worker(name, seed, run_dir, mode, seconds=None):
    """Start a worker, time its set-up, and return its result record.

    ``mode`` is ``"setup"``, or ``"0"`` or ``"1"`` for an untraced or traced
    run of ``seconds`` seconds.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed),
           run_dir, mode]
    if seconds is not None:
        cmd.append(f"{seconds:.3f}")
    probes = [calibrate.probe()]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=WORKER_ENV)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], RUN_TIMEOUT_S)
        first = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if mode == "setup":
        probes.append(calibrate.probe())
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 \
            or not lines and mode != "setup":
        raise RuntimeError(f"{name}: worker failed (exit {proc.returncode}) "
                           f"in {run_dir}")
    result = json.loads(lines[-1]) if lines else {}
    # A run's worker is scaled by the probe before it alone: it has run its
    # passes before it ends.
    result["setup_s"] = setup
    result["setup_ref_s"] = calibrate.at_reference(setup, probes)
    return result


def read_trace(path, problems):
    """Rounds in a trace CSV and the SHA-256 of its header and rows.

    Checks the shape: a ``# config:`` line, a header that starts with the 12
    trace columns (columns added after them are allowed, so a trace that
    gains a column still passes) and one numeric row per round.  The config
    line is left out of the hash, so a one-replica call's trace hashes the
    same as the family's trace of that replica.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    config, _, body = text.partition("\n")
    digest = hashlib.sha256(body.encode()).hexdigest()
    lines = body.splitlines()
    if not config.startswith("# config: "):
        problems.append(f"{path}: no '# config:' line")
        return 0, digest
    header = lines[0].split(",") if lines else []
    if tuple(header[:len(wl.TRACE_COLUMNS)]) != wl.TRACE_COLUMNS:
        problems.append(f"{path}: columns {header} do not start with "
                        f"{list(wl.TRACE_COLUMNS)}")
        return 0, digest
    for i, line in enumerate(lines[1:]):
        try:
            row = [float(c) for c in line.split(",")]
        except ValueError:
            row = []
        if len(row) != len(header) or row[0] != i + 1:
            problems.append(f"{path}: malformed row {i + 1}")
            return 0, digest
    if len(lines) - 1 != wl.ROUNDS:
        problems.append(f"{path}: {len(lines) - 1} rows, expected {wl.ROUNDS}")
    return len(lines) - 1, digest


def read_summary(p, replicas, problems):
    """Load a run pass's summary.json and fill in its counts and traces.

    ``replicas`` maps each replica index in the output to the family replica
    it is; the trace hashes are recorded under the family's index.
    """
    p.update(attempted=len(replicas), failed=0, rounds=0, checks=[],
             sha256={})
    path = os.path.join(p["dir"], "summary.json")
    if not os.path.exists(path):
        # The CLI aborted the pass (a ChannelError ends it): no replica done.
        p["failed"] = len(replicas)
        if p["rc"] == 0 or "error:" not in p["stderr"]:
            problems.append("no summary.json and no error reported")
        return None
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    p["failed"] = len(summary["diverged"])
    if summary["completed"] + p["failed"] != len(replicas):
        problems.append(f"{summary['completed']} completed + {p['failed']} "
                        f"diverged != {len(replicas)} replicas")
    for rep in summary["replicas"]:
        trace = os.path.join(p["dir"], f"trace_rep{rep['replica']:03d}.csv")
        if not os.path.exists(trace):
            problems.append(f"{trace} missing")
            continue
        rows, digest = read_trace(trace, problems)
        p["rounds"] += rows
        p["sha256"][f"replica{replicas[rep['replica']]:03d}"] = digest
    return summary


def check_run_pass(name, p):
    """Gate a whole ``noisyfed run`` pass: counts, checks and hashes."""
    spec = wl.WORKLOADS[name]
    problems = []
    summary = read_summary(p, range(spec["replicas"]), problems)
    if summary is None:
        return problems
    reported = summary.get("checks", [])
    p["checks"] = [{"name": c["name"], "passed": c["passed"],
                    "estimate": c.get("estimate")} for c in reported]
    names = [c["name"] for c in reported]
    for check in wl.CHECKS:
        if f"check_{check['kind']}" not in names:
            problems.append(f"check_{check['kind']} not reported")
    printed = {m.group(2): m.group(1) == "PASS"
               for m in map(CHECK_LINE.match, p["stdout"].splitlines()) if m}
    for c in p["checks"]:
        estimate = c["estimate"]
        if not isinstance(estimate, (int, float)) \
                or not math.isfinite(estimate):
            problems.append(f"{c['name']}: estimate {estimate!r}")
        if printed.get(c["name"]) != c["passed"]:
            problems.append(f"{c['name']}: printed outcome differs from "
                            "summary.json")
        if not c["passed"] and c["name"] not in spec["known_failing"]:
            problems.append(f"{c['name']} failed, estimate {estimate!r}")
    want_rc = 1 if p["failed"] or not all(c["passed"] for c in p["checks"]) \
        else 0
    if p["rc"] != want_rc:
        problems.append(f"exit status {p['rc']}, expected {want_rc}")
    return problems


def check_sample_pass(name, p):
    """Gate a one-replica timed pass; its hash is compared with the family's."""
    problems = []
    if read_summary(p, {0: p["replica"]}, problems) is not None \
            and p["rc"] != (1 if p["failed"] else 0):
        problems.append(f"exit status {p['rc']} with {p['failed']} diverged")
    return problems


def check_verify_pass(name, p):
    """Gate one ``noisyfed verify all`` pass from its printed report."""
    problems = []
    lines = p["stdout"].splitlines()
    p["checks"] = [{"name": m.group(2), "passed": m.group(1) == "PASS",
                    "estimate": float(m.group(3))}
                   for m in map(CHECK_LINE.match, lines) if m]
    fails = [c for c in p["checks"] if not c["passed"]]
    p.update(attempted=len(p["checks"]), failed=len(fails),
             rounds=sum(int(s) * int(r) for line in lines
                        for s, r in VERIFY_ROUNDS.findall(line)),
             sha256={"stdout": hashlib.sha256(
                 p["stdout"].encode()).hexdigest()})
    if len(p["checks"]) < wl.WORKLOADS[name]["min_checks"]:
        problems.append(f"{len(p['checks'])} checks reported, expected at "
                        f"least {wl.WORKLOADS[name]['min_checks']}")
    for c in fails:
        problems.append(f"{c['name']} failed, estimate {c['estimate']!r}")
    total = VERIFY_TOTAL.match(lines[-1]) if lines else None
    if not total or int(total.group(2)) != len(p["checks"]) \
            or int(total.group(1)) != len(p["checks"]) - len(fails):
        problems.append("check total line missing or inconsistent")
    if p["rc"] != (1 if fails else 0):
        problems.append(f"exit status {p['rc']} with {len(fails)} failures")
    return problems


# ---------------------------------------------------------------------------
# Whole-run gates
# ---------------------------------------------------------------------------

def determinism(passes):
    """Compare every output hash of a later pass with the first pass's."""
    first = passes[0]["sha256"]
    later = [p for p in passes[1:] if p["sha256"]]
    differ = [f"pass {p['index']}: {key} differs from pass 0"
              for p in later for key, digest in p["sha256"].items()
              if first.get(key) != digest]
    return {"repeats_compared": len(later), "identical": not differ,
            "differ": differ}


# ---------------------------------------------------------------------------
# A run of one workload
# ---------------------------------------------------------------------------

def gate(name, p):
    if not wl.is_run_workload(name):
        return check_verify_pass(name, p)
    if p["kind"] == "sample":
        return check_sample_pass(name, p)
    return check_run_pass(name, p)


def timed_setup(name, seed, work):
    result = run_worker(name, seed, os.path.join(work, "setup"), "setup")
    return result["setup_s"], result["setup_ref_s"]


def run_workload(name, seed, seconds, trace):
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    setups, problems = [], []  # (raw, at reference speed) pairs
    try:
        start = time.perf_counter()
        # Warm-up: the first interpreter of a run loads the package from
        # disk into the file cache; its set-up time is not counted.
        run_worker(name, seed, os.path.join(work, "warmup"), "setup")
        for i in range(SETUPS_BEFORE):
            setups.append(timed_setup(name, seed, work))
        left = seconds - (time.perf_counter() - start) \
            - (SETUPS_AFTER + 1) * max(raw for raw, _ in setups)
        result = run_worker(name, seed, os.path.join(work, "run"), str(trace),
                            left)
        setups.append((result["setup_s"], result["setup_ref_s"]))
        for i in range(SETUPS_AFTER):
            setups.append(timed_setup(name, seed, work))
        passes = result["passes"]
        for p in passes:
            problems += [f"pass {p['index']}: {msg}" for msg in gate(name, p)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    det = determinism(passes)
    problems += det["differ"]
    if det["repeats_compared"] == 0:
        problems.append("no two passes with outputs to compare")
    return passes, setups, result["rss_mb"], problems, det


def end_to_end(passes, setups, rss_mb, raw=False):
    """Medians over the timed passes, which follow the gate's pass 0.

    The times are at the reference speed of ``calibrate.py``, or as measured
    with ``raw``.
    """
    timed = passes[1:]
    walls = [p["wall_s"] if raw
             else calibrate.at_reference(p["wall_s"], p["probes_s"])
             for p in timed]
    return {
        "setup_s": statistics.median(s[0 if raw else 1] for s in setups),
        "wall_s": statistics.median(walls),
        "rounds_per_s": statistics.median(p["rounds"] / w
                                          for p, w in zip(timed, walls)),
        "peak_rss_mb": rss_mb,
        "failed_ratio": sum(p["failed"] for p in passes)
        / sum(p["attempted"] for p in passes),
    }


def tail(walls):
    """The highest decile of the times with ten or more samples above it."""
    deciles = [d for d in range(50, 100, 10) if len(walls) * (100 - d) >= 1000]
    if not deciles:
        return None
    return deciles[-1], statistics.quantiles(walls, n=10)[deciles[-1] // 10 - 1]


def per_layer(passes):
    """Median of each layer metric over the traced passes, plus overhead.

    The tracing wall time and overhead are at the reference speed, like
    ``wall_s``; the layer times are as measured.
    """
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    names = set().union(*(p["layers"] for p in traced))
    out = {n: statistics.median(p["layers"][n] for p in traced)
           for n in names if all(n in p["layers"] for p in traced)}

    def wall(group):
        return statistics.median(calibrate.at_reference(p["wall_s"],
                                                        p["probes_s"])
                                 for p in group)

    out["tracing.wall_s"] = wall(traced)
    out["tracing.overhead_s"] = out["tracing.wall_s"] - wall(plain)
    return out


def check_predictions(name, layers):
    """Confirm or correct each prediction made for this workload."""
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        table = json.load(fh)["predictions"]
    verdicts = []
    for pred in table:
        if pred["workload"] != name:
            continue
        parts = [layers.get(m) for m in pred["metrics"]]
        base = layers.get("engine.run.calls" if "calls_per_run" in pred
                          else pred.get("of", "engine.run.busy_s"))
        if any(v is None for v in parts) or not base and "calls" not in pred:
            verdicts.append((pred, None, "absent"))
            continue
        value = sum(parts)
        if "calls" in pred:
            ok = value == pred["calls"]
        elif "calls_per_run" in pred:
            value = value / base
            ok = pred["calls_per_run"] / 1.5 <= value \
                <= pred["calls_per_run"] * 1.5
        else:
            value = value / base
            lo = pred.get("min_share", pred.get("share", 0) / 1.5)
            hi = pred.get("max_share", pred.get("share", math.inf) * 1.5)
            ok = lo <= value <= hi
        verdicts.append((pred, value, "confirmed" if ok else "corrected"))
    return verdicts


def report(name, seed, trace, spec, passes, setups, rss_mb, problems, det):
    """Print the human-readable lines; return the result object."""
    metrics_spec = spec["per_layer" if trace else "end_to_end"]
    host = machine(seed)
    print(f"== {name}  seed={seed}  passes={len(passes)} "
          f"(traced {sum(p['traced'] for p in passes)})  "
          f"set-ups={len(setups)}")
    print("  machine: " + "  ".join(f"{k}={v}" for k, v in host.items()))
    print(f"  pass 0, the whole call: {passes[0]['wall_s']:.6g} s")
    if trace:
        values = per_layer(passes)
        for m in metrics_spec:
            v = values.get(m["name"])
            print(f"  {m['name']:<44s} "
                  f"{'absent' if v is None else format(v, '.6g')} {m['unit']}")
        for pred, value, verdict in check_predictions(name, values):
            shown = "-" if value is None else format(value, ".3g")
            print(f"  prediction {'+'.join(pred['metrics'])} "
                  f"({pred.get('note', '')}): measured {shown} -> {verdict}")
    else:
        values = end_to_end(passes, setups, rss_mb)
        raw = end_to_end(passes, setups, rss_mb, raw=True)
        print(f"  timed passes: {len(passes) - 1}")
        print("  metric         at reference speed   as measured")
        for key, unit in (("setup_s", "s"), ("wall_s", "s"),
                          ("rounds_per_s", "1/s"), ("peak_rss_mb", "MB"),
                          ("failed_ratio", "ratio")):
            print(f"  {key:<14s} {values[key]:<12.6g} {unit:<7s} "
                  f"{raw[key]:.6g} {unit}")
        probes = [x for p in passes for x in p["probes_s"]]
        print(f"  speed probe    median {statistics.median(probes):.6g} s, "
              f"reference {calibrate.REFERENCE_S} s")
        high = tail([calibrate.at_reference(p["wall_s"], p["probes_s"])
                     for p in passes[1:]])
        if high:
            print(f"  wall_s p{high[0]:<8d} {high[1]:.6g} s")
    known = wl.WORKLOADS[name].get("known_failing", ())
    for c in passes[0]["checks"]:
        print(f"  {c['name']}: {'PASS' if c['passed'] else 'FAIL'} "
              f"estimate={c['estimate']!r}"
              f"{' (known failing, not gated)' if c['name'] in known else ''}")
    print(f"  determinism: {det['repeats_compared']} repeated passes, "
          f"{'byte-identical' if det['identical'] else 'DIFFER'}")
    for msg in problems:
        print(f"  PROBLEM {msg}")
    detail = {
        "workload": name, "machine": host,
        "setups_s": [s[0] for s in setups],
        "setups_ref_s": [s[1] for s in setups],
        "peak_rss_mb": rss_mb, "determinism": det, "problems": problems,
        "passes": [{k: p.get(k) for k in ("index", "kind", "replica",
                                          "traced", "rc", "wall_s",
                                          "probes_s",
                                          "attempted", "failed", "rounds",
                                          "checks", "sha256")}
                   for p in passes],
    }
    print(json.dumps({"perfbench": detail}))
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {m["name"]: {"value": values.get(m["name"]),
                                "unit": m["unit"]} for m in metrics_spec},
    }


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.exists(os.path.join(ROOT, "src", "noisyfed", "cli.py")):
        print("perfbench: no noisyfed source under src/; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        runs = run_workload(name, args.seed, args.seconds, args.trace)
        results[name] = report(name, args.seed, args.trace, spec, *runs)
    if args.workload != "all":
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
