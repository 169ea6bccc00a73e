"""Trace persistence: CSV round records with an embedded resolved config.

Trace files start with ``# config: <canonical json>`` followed by a CSV header
naming every round field and one row per aggregation round.  Floats are
written with ``repr`` so identical runs produce byte-identical files; all
writes are atomic (write to a temp file, then rename).
"""

import json
import math
import os
import tempfile

from .engine import TRACE_COLUMNS


def jsonable(value):
    """Recursively coerce numpy scalars/arrays into JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        value = value.item()
    if hasattr(value, "tolist"):
        return jsonable(value.tolist())
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def canonical_json(obj):
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace(path, trace, resolved_config):
    """Write one replica's :class:`engine.Trace`, a row per round, plus the
    full resolved configuration."""
    lines = [f"# config: {canonical_json(resolved_config)}"]
    lines.append(",".join(TRACE_COLUMNS))
    # Cells are Python ints and floats, whose repr is round-trip exact.
    lines.extend(",".join(map(repr, row)) for row in zip(*trace))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_trace(path):
    """Parse a trace file back into (config dict, list of row dicts)."""
    config = None
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# config: "):
                config = json.loads(line[len("# config: "):])
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append({name: (int if name in ("t", "div_ul", "div_dl")
                                else float)(cell)
                         for name, cell in zip(header, line.split(","))})
    return config, rows


def write_json(path, payload):
    atomic_write_text(path, json.dumps(jsonable(payload), sort_keys=True,
                                       indent=2) + "\n")


def write_mean_trace(path, rounds, mean_sq_dist, mean_loss,
                     resolved_config=None):
    lines = []
    if resolved_config is not None:
        lines.append(f"# config: {canonical_json(resolved_config)}")
    lines.append("t,mean_sq_dist,mean_loss")
    for t, sq, loss in zip(rounds.tolist(), mean_sq_dist.tolist(),
                           mean_loss.tolist()):
        lines.append(f"{int(t)},{sq!r},{loss!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
