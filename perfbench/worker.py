"""A run of one workload in one interpreter.

Usage: python3 perfbench/worker.py <workload> <seed> <run dir> setup
       python3 perfbench/worker.py <workload> <seed> <run dir> <0|1> <seconds>

Set-up is importing noisyfed from the checkout's ``src`` and writing the
workload's experiment files; the worker then prints ``ready``, and with
``setup`` it stops there.  Otherwise it makes passes, each one
``noisyfed.cli.main`` call with the CLI's own output captured, while another
one as long as the last fits in ``seconds`` (two at least after the first):

- pass 0 is the workload's whole call, untraced; the gate checks its outputs,
  and it warms the interpreter up for the passes after it;
- untraced (``0``), the timed passes follow: ``workloads.sample_argv`` for
  k = 0, 1, ...;
- traced (``1``), whole calls follow instead, every other one traced, for the
  per-layer summary.

The speed probe (``calibrate.probe``) runs before the first pass and after
every pass, and each pass records the two probe times around it.  It prints
one JSON line: each pass's exit status, wall time, probe times, output, output
directory and, when traced, per-layer summary, and this process's peak
resident set size.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

import calibrate
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PASSES = 2


def one_pass(cli, index, argv, out_dir, traced):
    """One ``cli.main`` call, looked up after the tracer wraps it."""
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
    record = {"index": index, "traced": traced, "rc": rc, "wall_s": wall,
              "stdout": out.getvalue(), "stderr": err.getvalue(),
              "dir": out_dir}
    if tracer is not None:
        record["layers"] = tracer.summary()
    return record


def main(argv):
    name, seed, run_dir, mode, *rest = argv
    seed = int(seed)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import noisyfed.cli

    os.makedirs(run_dir, exist_ok=True)
    workloads.write_experiments(name, seed, run_dir)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    seconds = float(rest[0])
    start = time.perf_counter()
    passes = []
    probes = [calibrate.probe()]
    while len(passes) < 1 + MIN_PASSES \
            or time.perf_counter() - start + passes[-1]["wall_s"] <= seconds:
        index = len(passes)
        out_dir = os.path.join(run_dir, f"pass{index:03d}")
        if index == 0 or mode == "1":
            argv = workloads.cli_argv(name, seed, run_dir, out_dir)
            record = one_pass(noisyfed.cli, index, argv, out_dir,
                              traced=index % 2 == 1)
            record["kind"] = "whole"
        else:
            k = index - 1
            argv = workloads.sample_argv(name, seed, k, run_dir, out_dir)
            record = one_pass(noisyfed.cli, index, argv, out_dir,
                              traced=False)
            record.update(kind="sample",
                          replica=workloads.sample_replica(name, k))
        probes.append(calibrate.probe())
        record["probes_s"] = probes[-2:]
        passes.append(record)
    print(json.dumps({
        "passes": passes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
