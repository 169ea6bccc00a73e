"""Run files: CSV tables with an embedded resolved config, and JSON.

Every CSV file a run writes (the traces, ``mean_trace.csv``, ``sweep.csv``)
comes from :func:`write_csv`: a ``# config: <canonical json>`` line, a
header, and a row per entry of ``repr`` cells, so identical runs produce
byte-identical files.  Writes are atomic (a temp file, then a rename).
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


def write_csv(path, header, columns, config=None):
    """Write ``columns`` under the ``header`` names, a row per entry, after
    a ``# config:`` line of ``config`` unless it is None.  Cells should be
    Python ints and floats, whose repr is round-trip exact."""
    lines = [] if config is None else [f"# config: {canonical_json(config)}"]
    lines.append(",".join(header))
    lines.extend(",".join(map(repr, row)) for row in zip(*columns))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_trace(path, trace, resolved_config):
    """Write one replica's :class:`engine.Trace`, a row per round, plus the
    full resolved configuration."""
    write_csv(path, TRACE_COLUMNS, trace, resolved_config)


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
