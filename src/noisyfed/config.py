"""Experiment-file schema: strict parsing with path-precise diagnostics.

An experiment file is a single JSON document describing the task generator (or
a task file to load), the run configuration, the policy, the replica count,
and which checks to evaluate on the seed-averaged result.  Unknown keys are
rejected with their JSON path; parsing and serialization round-trip losslessly.
"""

import json
import math
from dataclasses import dataclass, field

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


@dataclass
class Experiment:
    """Parsed experiment file."""

    task: dict = None
    task_file: str = None
    run: dict = field(default_factory=dict)
    policy_name: str = "noise_free"
    policy_params: dict = field(default_factory=dict)
    replicas: int = 1
    checks: list = field(default_factory=list)

    def to_dict(self):
        doc = {}
        doc["task"] = {"file": self.task_file} if self.task_file else dict(self.task)
        doc["run"] = dict(self.run)
        doc["policy"] = {"name": self.policy_name,
                         "params": dict(self.policy_params)}
        doc["replicas"] = self.replicas
        if self.checks:
            doc["checks"] = [dict(c) for c in self.checks]
        return doc


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
        if expected is None:
            continue
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
    """Validate a JSON document (or path contents already loaded) into an
    :class:`Experiment`; raises :class:`ConfigError` with the offending path."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be an object")
    allowed_top = {"task": dict, "run": dict, "policy": dict,
                   "replicas": int, "checks": list}
    _check_mapping(doc, allowed_top, ("task", "run", "policy"), source)

    task_node = doc["task"]
    task_file = None
    task_params = None
    if "file" in task_node:
        _check_mapping(task_node, {"file": str}, ("file",), f"{source}.task")
        task_file = task_node["file"]
    else:
        _check_mapping(task_node, _TASK_KEYS, _TASK_REQUIRED, f"{source}.task")
        if "spectrum" in task_node:
            _check_pair(task_node["spectrum"], f"{source}.task.spectrum")
        task_params = dict(task_node)

    _check_mapping(doc["run"], _RUN_KEYS, _RUN_REQUIRED, f"{source}.run")
    for part in ("task", "run"):
        if doc[part].get("seed", 0) < 0:
            raise ConfigError(f"{source}.{part}.seed: must be >= 0")

    policy_node = doc["policy"]
    _check_mapping(policy_node, {"name": str, "params": dict}, ("name",),
                   f"{source}.policy")

    replicas = doc.get("replicas", 1)
    if replicas < 1:
        raise ConfigError(f"{source}.replicas: must be >= 1")

    checks = _parse_checks(doc.get("checks", []), f"{source}.checks",
                           doc["run"]["rounds"])
    for check in checks:
        if check["kind"] in ("bound", "schedule"):
            preset = PRESETS.get(policy_node["name"])
            if preset is None or preset.bound is None:
                raise ConfigError(
                    f"{source}.checks: {check['kind']!r} check needs a "
                    f"schedule-backed policy, not {policy_node['name']!r}")

    return Experiment(
        task=task_params,
        task_file=task_file,
        run=dict(doc["run"]),
        policy_name=policy_node["name"],
        policy_params=dict(policy_node.get("params", {})),
        replicas=replicas,
        checks=checks,
    )


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
