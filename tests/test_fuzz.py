"""Schema-driven fuzzing of ``noisyfed run`` and ``noisyfed sweep``.

A small experiment (6 clients, at most 12 rounds, 2 replicas) has one to
three of its keys, drawn from ``config._TASK_KEYS``, ``config._RUN_KEYS``,
the replica count and its preset's ``Preset.params``, set to edge values.
Whatever the values, the command exits 0, 1 or 2 with no exception escaping;
a usage error (2) prints one ``error:`` line, which names a key path, and
leaves no ``--out`` directory, and a success (0) writes its outputs.  The
examples are drawn derandomized, so every run of the suite tries the same
ones.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisyfed import cli, config
from noisyfed.policies import PRESETS, REQUIRED

NAMES = sorted(PRESETS)
HUGE = 10 ** 30     # a count whose arrays cannot exist
# Edge values by the type a key takes, and values of a wrong type.  No count
# here could be allocated large: the counts are at most 2 or HUGE.
INTS = (0, -1, 1, 2, HUGE)
REALS = (0, -1, 0.5, 2.0, 1e300, -1e300, 1e-300, math.inf, -math.inf,
         math.nan)
EDGES = {int: INTS, (int, float): REALS, (int, type(None)): INTS + (None,),
         str: ("MT", "MDT", "effective_noise", "analog_physical", "uniform",
               "laplace", "x"),
         list: ([1.0, 2.0], [1e-300, 1e300], [0, 1], [2.0, 1.0])}
WRONG = (None, True, "x", [1.0], {}, 0.5)
#: A key path: a dotted one of the experiment file (``run.batch_size``,
#: ``policy.params.snr_db``), a section ended by a colon (``task:``),
#: ``replicas``, or a command-line option.
KEY_PATH = re.compile(r"\b(?:(?:task|run|policy)(?:\.\w+)+|(?:task|run):"
                      r"|replicas)|--\w")
VALUE_TEXTS = ("0", "-1", "2", "0.5", "1e300", "-1e300", "1e-300", "inf",
               "-inf", "nan", "1e30", "x")


def base_doc(name):
    preset = PRESETS[name]
    return {
        "task": {"n_clients": 6, "dim": 3, "samples_per_client": 8,
                 "heterogeneity": 1.0, "ridge": 0.1, "noise_std": 1.0,
                 "spectrum": [1.0, 1.1], "seed": 1},
        "run": {"n_participants": 6 if preset.every_client else 3,
                "rounds": 12, "local_epochs": 2, "batch_size": 2,
                "mode": preset.mode or "MT", "channel": "effective_noise",
                "distribution": "gaussian", "seed": 0},
        "policy": {"name": name, "params": {
            key: 5.0 if value is REQUIRED else value
            for key, value in preset.params.items()}},
        "replicas": 2,
    }


def key_paths(name):
    """Each key a mutation may set, with the edge values of its type."""
    return ([(("task", key), EDGES[kind])
             for key, kind in config._TASK_KEYS.items()]
            + [(("run", key), EDGES[kind])
               for key, kind in config._RUN_KEYS.items()]
            + [(("policy", key), REALS) for key in PRESETS[name].params]
            + [((None, "replicas"), INTS)])


def mutated(name, mutations):
    doc = base_doc(name)
    nodes = {None: doc, "task": doc["task"], "run": doc["run"],
             "policy": doc["policy"]["params"]}
    for (part, key), value in mutations:
        nodes[part][key] = value
    return doc


@st.composite
def experiments(draw):
    name = draw(st.sampled_from(NAMES))
    mutations = []
    for _ in range(draw(st.integers(1, 3))):
        path, edges = draw(st.sampled_from(key_paths(name)))
        mutations.append((path, draw(st.sampled_from(edges + WRONG))))
    return name, mutations


def call(argv_of):
    """``cli.main`` on ``argv_of(config_path, out)``, checked for what every
    exit must show: its status and the files in ``out`` (None: no ``out``)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            status = cli.main(argv_of(os.path.join(tmp, "exp.json"), out))
        files = sorted(os.listdir(out)) if os.path.isdir(out) else None
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    assert status in (0, 1, 2), status
    if status == 2:
        assert files is None and len(errors) == 1, (files, errors)
        assert KEY_PATH.search(errors[0]), errors
    return status, files


def written(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


#: The usage errors of non-finite task numbers and of counts whose arrays
#: cannot exist, each tried once.
KNOWN_CASES = [("mt_partial", [(("task", key), value)])
               for key in ("heterogeneity", "ridge", "noise_std")
               for value in (math.nan, math.inf, -math.inf)] \
    + [("mt_partial", [(path, HUGE)])
       for path in (("run", "rounds"), (None, "replicas"),
                    ("run", "local_epochs"), ("task", "samples_per_client"),
                    ("task", "n_clients"))]


def with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@with_examples(KNOWN_CASES)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(experiments())
def test_run_of_a_mutated_experiment_fails_cleanly(case):
    doc = mutated(*case)
    status, files = call(lambda path, out: [
        "run", written(doc, path), "--out", out])
    if status == 0:
        assert {"summary.json", "mean_trace.csv"} <= set(files)


def sweep_axes(name):
    return [".".join(filter(None, path)).replace("policy.", "policy.params.")
            for path, _ in key_paths(name)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(NAMES).flatmap(lambda name: st.tuples(
    st.just(name), st.sampled_from(sweep_axes(name)),
    st.lists(st.sampled_from(VALUE_TEXTS), min_size=1, max_size=2))))
def test_sweep_of_edge_values_fails_cleanly(case):
    name, axis, values = case
    status, files = call(lambda path, out: [
        "sweep", written(base_doc(name), path), "--axis", axis,
        f"--values={','.join(values)}", "--out", out])
    if status == 0:
        assert files == ["sweep.csv"]
