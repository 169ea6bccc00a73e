"""Experiment-file schema: strict parsing with path-precise diagnostics.

An experiment file is a single JSON document describing the task generator (or
a task file to load), the run configuration, the policy, the replica count,
and which checks to evaluate on the seed-averaged result.  Unknown keys are
rejected with their JSON path.  The parsed experiment is the document itself,
normalized: ``policy.params`` and ``replicas`` filled in with their defaults,
``checks`` left out when the file lists none.  Parsing it again gives it back,
and the CLI embeds it as the ``experiment`` of the files it writes.
"""

import json
import math
import sys

import numpy as np

from .analysis import MIN_FIT_POINTS, default_slope_window
from .errors import ConfigError
from .policies import PRESETS

_TASK_KEYS = {
    "n_clients": int,
    "dim": int,
    "samples_per_client": int,
    "heterogeneity": (int, float),
    "ridge": (int, float),
    "noise_std": (int, float),
    "spectrum": list,
    "seed": int,
}
_TASK_REQUIRED = ("n_clients", "dim", "samples_per_client")

_RUN_KEYS = {
    "n_participants": int,
    "rounds": int,
    "local_epochs": int,
    "batch_size": (int, type(None)),
    "mode": str,
    "channel": str,
    "distribution": str,
    "seed": int,
}
_RUN_REQUIRED = ("n_participants", "rounds")

_CHECK_KINDS = ("bound", "slope", "schedule")

#: The most float64 values one array can hold, as numpy counts its bytes in
#: ``intp``.
_MAX_VALUES = np.iinfo(np.intp).max // 8


def _type_name(expected):
    if isinstance(expected, tuple):
        return " or ".join(getattr(t, "__name__", str(t)) for t in expected)
    return expected.__name__


def _check_mapping(node, allowed, required, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in node:
            raise ConfigError(f"{path}.{key}: missing required key")
    for key, value in node.items():
        expected = allowed[key]
        if isinstance(value, bool) and expected is not bool:
            raise ConfigError(f"{path}.{key}: expected {_type_name(expected)}")
        if not isinstance(value, expected):
            raise ConfigError(f"{path}.{key}: expected {_type_name(expected)}, "
                              f"got {type(value).__name__}")


def _check_pair(pair, where):
    """``pair`` must be ``[low, high]``: two finite numbers, low <= high."""
    if len(pair) != 2 or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x) for x in pair):
        raise ConfigError(f"{where}: expected [low, high]")
    if pair[0] > pair[1]:
        raise ConfigError(f"{where}: expected low <= high, got {pair}")


def check_size(where, names, shape):
    """A float64 array of ``shape``, the counts ``names`` at ``where``, must
    be one that can exist; a count below 1 is left to its own check."""
    count = math.prod(shape)
    if min(shape) >= 1 and count > _MAX_VALUES:
        raise ConfigError(f"{where}: {' * '.join(names)} is {count} float64 "
                          f"values, more than one array can hold "
                          f"({_MAX_VALUES})")


def check_replicas(replicas, rounds, where):
    """A family's ``(2, replicas, rounds)`` squared distances and losses must
    fit in one array; ``where`` names the replica count."""
    check_size(where, ("2", "replicas", "run.rounds"), (2, replicas, rounds))


def _parse_checks(node, path, rounds):
    """The checks of a ``rounds``-round experiment.  A slope check's window,
    given or the default, must hold at least ``MIN_FIT_POINTS`` rounds."""
    if not isinstance(node, list):
        raise ConfigError(f"{path}: expected a list")
    out = []
    for i, item in enumerate(node):
        where = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: expected an object")
        kind = item.get("kind")
        if kind not in _CHECK_KINDS:
            raise ConfigError(f"{where}.kind: expected one of {_CHECK_KINDS}")
        allowed = {"kind": str}
        if kind == "slope":
            allowed.update({"window": list, "range": list})
        _check_mapping(item, allowed, ("kind",), where)
        for key in ("window", "range"):
            if key in item:
                _check_pair(item[key], f"{where}.{key}")
        if kind == "slope" and rounds >= 1:     # else RunConfig's error
            lo, hi = window = item.get("window",
                                       list(default_slope_window(rounds)))
            held = len(range(max(math.ceil(lo), 1),
                             min(math.floor(hi), rounds) + 1))
            if held < MIN_FIT_POINTS:
                raise ConfigError(
                    f"{where}.window: {window} holds {held} of the {rounds} "
                    f"rounds; a slope fit needs at least {MIN_FIT_POINTS}")
        out.append(dict(item))
    return out


def parse_experiment(doc, source="<config>"):
    """Validate a JSON document (or path contents already loaded) and return
    it normalized, as new dicts; raises :class:`ConfigError` with the
    offending path."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be an object")
    allowed_top = {"task": dict, "run": dict, "policy": dict,
                   "replicas": int, "checks": list}
    _check_mapping(doc, allowed_top, ("task", "run", "policy"), source)

    task_node = doc["task"]
    if "file" in task_node:
        _check_mapping(task_node, {"file": str}, ("file",), f"{source}.task")
    else:
        _check_mapping(task_node, _TASK_KEYS, _TASK_REQUIRED, f"{source}.task")
        if "spectrum" in task_node:
            _check_pair(task_node["spectrum"], f"{source}.task.spectrum")
        for key in ("heterogeneity", "ridge", "noise_std"):
            # Python's json reads NaN and Infinity; ints may pass the floats.
            if not abs(task_node.get(key, 0)) <= sys.float_info.max:
                raise ConfigError(f"{source}.task.{key}: expected a finite "
                                  f"number, got {task_node[key]!r}")
        shape = ("n_clients", "samples_per_client", "dim")
        check_size(f"{source}.task", shape,
                   [task_node[key] for key in shape])

    run_node = doc["run"]
    _check_mapping(run_node, _RUN_KEYS, _RUN_REQUIRED, f"{source}.run")
    for part in ("task", "run"):
        if doc[part].get("seed", 0) < 0:
            raise ConfigError(f"{source}.{part}.seed: must be >= 0")
    check_size(f"{source}.run", ("rounds", "local_epochs"),
               (run_node["rounds"], run_node.get("local_epochs", 1)))

    policy_node = doc["policy"]
    _check_mapping(policy_node, {"name": str, "params": dict}, ("name",),
                   f"{source}.policy")

    replicas = doc.get("replicas", 1)
    if replicas < 1:
        raise ConfigError(f"{source}.replicas: must be >= 1")
    check_replicas(replicas, run_node["rounds"], f"{source}.replicas")

    checks = _parse_checks(doc.get("checks", []), f"{source}.checks",
                           run_node["rounds"])
    for check in checks:
        if check["kind"] in ("bound", "schedule"):
            preset = PRESETS.get(policy_node["name"])
            if preset is None or preset.bound is None:
                raise ConfigError(
                    f"{source}.checks: {check['kind']!r} check needs a "
                    f"schedule-backed policy, not {policy_node['name']!r}")

    experiment = {"task": dict(task_node), "run": dict(run_node),
                  "policy": {"name": policy_node["name"],
                             "params": dict(policy_node.get("params", {}))},
                  "replicas": replicas}
    if checks:
        experiment["checks"] = checks
    return experiment


def load_experiment(path):
    """Parse an experiment file; an unreadable one is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_experiment(doc, source=str(path))
