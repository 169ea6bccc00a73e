"""Check that two trees of the repository give byte-identical outputs.

Run from the root of a checkout:

    python3 tools/same_outputs.py --parent HEAD~1 --change HEAD

Each side is a ``git archive`` copy of its tree-ish (a commit, or the tree
``git add -A && git write-tree`` gives for work not yet committed), extracted
without ``__pycache__`` as ``tools/bench_pairs.py`` does.  Each copy runs,
with ``python -B`` and its own ``src`` on ``PYTHONPATH``:

- ``noisyfed run`` of the ``full_mt``, ``analog_diversity`` and
  ``partial_mdt`` experiments of ``perfbench/workloads.py`` (read from this
  checkout, so both sides run the same files) at the workload seeds
  ``SEEDS``, and of the ``full_mt`` (every client) and ``partial_mdt`` (a
  sample of them) experiments with full batches (``run.batch_size`` null)
  at the first seed, each with ``--workers 1`` and ``--workers 2``;
- ``noisyfed run`` of the ``full_mt`` experiment with the ``noise_free``
  policy and no checks, with mini-batches and with full batches, at the
  first seed with ``--workers 1``;
- ``noisyfed run`` of the ``full_mt`` experiment at the first seed with
  ``--workers 1``, its task read from a task file (``TASK_FILE``) that the
  parent side's ``save_task`` writes once, so both sides read one file;
- ``noisyfed sweep`` of ``full_mt`` at the first seed over the batch sizes
  4 and 40 (the full batch), with 2 replicas each;
- ``noisyfed verify all --seed 0``;
- every script in ``demos/``.

Every ``--out`` directory is kept, and each command's exit status, stdout
and stderr (the copy's path and the output directory's replaced by
``<tree>`` and ``<out>``) are written next to it.
The line count of each side's ``src/noisyfed/*.py`` is printed, then the
first file, and the first line in it, where the sides differ, with the
header names of a CSV file's columns whose cells differ; the exit status is
0 only if everything is identical.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

from bench_pairs import ROOT, export, resolve

WORKLOADS = ("full_mt", "analog_diversity", "partial_mdt")
SEEDS = (5, 13, 31)
#: Workloads also run with full batches, at the first seed: one with every
#: client taking part, one with a sample of them.
FULL_BATCH = ("full_mt", "partial_mdt")
WORKERS = (1, 2)
#: Kinds of ``full_mt`` also run noise free, at the first seed on one worker.
NOISE_FREE = ("-noise_free", "-noise_free-full_batch")
#: The file of ``full_mt``'s task, in the inputs directory.
TASK_FILE = "full_mt-task.json"


def load_workloads():
    """``perfbench/workloads.py`` of this checkout, executed from its source
    so that nothing is written next to it."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    module = types.ModuleType("perfbench_workloads")
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


def commands(workloads, inputs):
    """``(name, argv)`` of every command a side runs, with the experiment
    files written to ``inputs``; a relative path in ``argv`` is the copy's,
    and ``{out}`` stands for the side's output directory."""
    found = []
    runs = [(name, seed, "", WORKERS) for name in WORKLOADS
            for seed in SEEDS] \
        + [(name, SEEDS[0], "-full_batch", WORKERS) for name in FULL_BATCH] \
        + [("full_mt", SEEDS[0], kind, (1,))
           for kind in (*NOISE_FREE, "-task_file")]
    for name, seed, kind, worker_counts in runs:
        doc = workloads.experiment(name, seed)
        if kind.endswith("full_batch"):
            doc["run"]["batch_size"] = None
        if "noise_free" in kind:
            doc["policy"], doc["checks"] = {"name": "noise_free",
                                            "params": {}}, []
        if kind == "-task_file":
            doc["task"] = {"file": os.path.join(inputs, TASK_FILE)}
        path = os.path.join(inputs, f"{name}{kind}-{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for workers in worker_counts:
            label = f"run-{name}{kind}-{seed}-w{workers}"
            found.append((label, [
                "-m", "noisyfed", "run", path, "--workers", str(workers),
                "--out", os.path.join("{out}", label)]))
    # Batch 40 is the full batch: both of local SGD's gathers in a sweep.
    label = f"sweep-full_mt-{SEEDS[0]}"
    path = os.path.join(inputs, f"full_mt-{SEEDS[0]}.json")
    found.append((label, [
        "-m", "noisyfed", "sweep", path,
        "--axis", "run.batch_size", "--values", "4,40", "--replicas", "2",
        "--out", os.path.join("{out}", label)]))
    found.append(("verify-all", ["-m", "noisyfed", "verify", "all",
                                 "--seed", "0"]))
    for demo in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if demo.endswith(".py"):
            found.append((demo[:-3], [os.path.join("demos", demo)]))
    return found


def side_env(copy):
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.path.join(copy, "src"))


def write_task_file(copy, task, path):
    """Write the task ``make_task(**task)`` builds to ``path`` with the
    ``save_task`` of ``copy``."""
    code = ("import json, sys\n"
            "from noisyfed.tasks import make_task, save_task\n"
            "save_task(make_task(**json.loads(sys.argv[1])), sys.argv[2])")
    subprocess.run([sys.executable, "-B", "-c", code, json.dumps(task), path],
                   cwd=copy, env=side_env(copy), check=True)


def run_side(copy, out, found):
    """Run every command in ``copy``, writing its outputs under ``out``."""
    os.makedirs(out)
    env = side_env(copy)
    for label, argv in found:
        argv = [arg.replace("{out}", out) for arg in argv]
        proc = subprocess.run([sys.executable, "-B", *argv], cwd=copy,
                              env=env, capture_output=True, text=True)
        with open(os.path.join(out, f"{label}.log"), "w",
                  encoding="utf-8") as fh:
            fh.write(f"exit {proc.returncode}\n--- stdout\n{proc.stdout}"
                     f"--- stderr\n{proc.stderr}".replace(out, "<out>")
                     .replace(copy, "<tree>"))
        print(f"{os.path.basename(out)} {label}: exit {proc.returncode}",
              flush=True)


def line_counts(copy):
    """The lines of each ``src/noisyfed/*.py`` of ``copy``, by name, and
    their total under ``"total"``."""
    src = os.path.join(copy, "src", "noisyfed")
    counts = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                counts[name] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def differing_columns(lines_a, lines_b):
    """The header names, in header order, of the columns whose cells differ
    between the rows of two CSV files' lines; ``#`` lines are skipped."""
    rows_a, rows_b = ([line.rstrip(b"\n").split(b",") for line in lines
                       if not line.startswith(b"#")]
                      for lines in (lines_a, lines_b))
    header = rows_a[0] if rows_a else []
    differ = {i for row_a, row_b in zip(rows_a[1:], rows_b[1:])
              for i, (x, y) in enumerate(zip(row_a, row_b)) if x != y}
    return [header[i].decode() for i in sorted(differ) if i < len(header)]


def first_difference(a, b):
    """None if the directories ``a`` and ``b`` hold the same files with the
    same bytes; else the first difference, in sorted path order, as text."""
    def files(top):
        return sorted(os.path.relpath(os.path.join(here, name), top)
                      for here, _, names in os.walk(top) for name in names)

    names_a, names_b = files(a), files(b)
    if names_a != names_b:
        only = sorted(set(names_a) ^ set(names_b))[0]
        side = a if only in names_a else b
        return f"{only}: only in {os.path.basename(side)}"
    for name in names_a:
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            lines_a, lines_b = fa.read().splitlines(True), \
                fb.read().splitlines(True)
        if lines_a == lines_b:
            continue
        for number, (x, y) in enumerate(zip(lines_a, lines_b), 1):
            if x != y:
                found = f"{name}:{number}: {x!r} != {y!r}"
                columns = name.endswith(".csv") \
                    and differing_columns(lines_a, lines_b)
                if columns:
                    found += f"; columns that differ: {', '.join(columns)}"
                return found
        number = min(len(lines_a), len(lines_b)) + 1
        return f"{name}:{number}: one side ends at line {number - 1}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1",
                        help="tree-ish of the parent side")
    parser.add_argument("--change", default="HEAD",
                        help="tree-ish of the change side")
    args = parser.parse_args(argv)
    refs = {"parent": resolve(args.parent), "change": resolve(args.change)}
    work = tempfile.mkdtemp(prefix="same-outputs-")
    try:
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs)
        workloads = load_workloads()
        found = commands(workloads, inputs)
        counts = {}
        for side, ref in refs.items():
            copy = os.path.join(work, "tree", side)
            export(ref, copy)
            counts[side] = line_counts(copy)
            if side == "parent":
                write_task_file(copy,
                                workloads.experiment("full_mt", SEEDS[0])[
                                    "task"], os.path.join(inputs, TASK_FILE))
            run_side(copy, os.path.join(work, "out", side), found)
        difference = first_difference(os.path.join(work, "out", "parent"),
                                      os.path.join(work, "out", "change"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{'src/noisyfed lines':24s} {'parent':>7s} {'change':>7s}")
    for name in sorted(set(counts["parent"]) | set(counts["change"]),
                       key=lambda name: (name == "total", name)):
        print(f"{name:24s} " + " ".join(
            f"{counts[side].get(name, '-'):>7}" for side in counts))
    if difference:
        print(f"DIFFERENT {refs['parent']} {refs['change']}: {difference}")
        return 1
    print(f"IDENTICAL {refs['parent']} {refs['change']}: {len(found)} "
          "commands, every output directory, exit status, stdout and stderr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
