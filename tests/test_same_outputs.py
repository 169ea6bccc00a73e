"""The comparison and command list of ``tools/same_outputs.py`` on small
trees; nothing here exports a tree or runs a command."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
FILES = {
    "run-full_mt-5-w1/trace_rep000.csv": b"t,sq_dist\n1,0.5\n2,0.25\n",
    "run-full_mt-5-w1/summary.json": b'{"completed": 1}\n',
    "verify-all.log": b"exit 0\n--- stdout\n12/12 checks passed\n",
}


@pytest.fixture(scope="module")
def same_outputs():
    sys.path.insert(0, str(TOOLS))      # for its import of bench_pairs
    try:
        spec = importlib.util.spec_from_file_location(
            "same_outputs", TOOLS / "same_outputs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(root)


def test_identical_trees_have_no_difference(tmp_path, same_outputs):
    assert same_outputs.first_difference(
        tree(tmp_path / "parent", FILES), tree(tmp_path / "change", FILES)) \
        is None


def test_one_changed_byte_is_named_by_file_and_line(tmp_path, same_outputs):
    changed = dict(FILES)
    changed["run-full_mt-5-w1/trace_rep000.csv"] = \
        b"t,sq_dist\n1,0.5\n2,0.26\n"
    assert same_outputs.first_difference(
        tree(tmp_path / "parent", FILES), tree(tmp_path / "change", changed)) \
        == "run-full_mt-5-w1/trace_rep000.csv:3: b'2,0.25\\n' != " \
        "b'2,0.26\\n'; columns that differ: sq_dist"


def test_changed_cells_are_named_by_their_columns(tmp_path, same_outputs):
    # A trace whose config line and one column differ: the first line names
    # where, the column names what.
    trace = b"# config: {}\nt,sq_dist,loss\n1,0.5,2.0\n2,0.25,1.0\n"
    other = b"# config: {\"stream_layout\": 8}\nt,sq_dist,loss\n" \
        b"1,0.5,2.5\n2,0.25,1.5\n"
    name = "run-full_mt-5-w1/trace_rep000.csv"
    difference = same_outputs.first_difference(
        tree(tmp_path / "parent", dict(FILES, **{name: trace})),
        tree(tmp_path / "change", dict(FILES, **{name: other})))
    assert difference.startswith(f"{name}:1: ")
    assert difference.endswith("; columns that differ: loss")
    # Only a CSV file's columns are named, and only cells that differ.
    assert same_outputs.differing_columns(trace.splitlines(True),
                                          trace.splitlines(True)) == []


@pytest.mark.parametrize("drop, expected", [
    ("verify-all.log", "verify-all.log: only in parent"),
    (None, "verify-all.log:4: one side ends at line 3"),
])
def test_missing_file_or_line_is_a_difference(tmp_path, same_outputs, drop,
                                              expected):
    longer = dict(FILES, **{"verify-all.log": FILES["verify-all.log"]
                            + b"--- stderr\n"})
    shorter = {k: v for k, v in FILES.items() if k != drop}
    assert same_outputs.first_difference(
        tree(tmp_path / "parent", longer if drop is None else FILES),
        tree(tmp_path / "change", shorter)) == expected


def test_commands_cover_every_run_family_verify_and_demo(tmp_path,
                                                         same_outputs):
    found = dict(same_outputs.commands(same_outputs.load_workloads(),
                                       str(tmp_path)))
    runs = [label for label in found if label.startswith("run-")]
    assert len(runs) == 3 * 3 * 2 + 2 * 2 + 2 + 1
    # One sweep of full_mt at seed 5 over a mini-batch and the full batch.
    assert [label for label in found if label.startswith("sweep-")] \
        == ["sweep-full_mt-5"]
    sweep = found["sweep-full_mt-5"]
    assert sweep[:3] == ["-m", "noisyfed", "sweep"]
    assert sweep[3] == str(tmp_path / "full_mt-5.json")
    assert sweep[4:] == ["--axis", "run.batch_size", "--values", "4,40",
                         "--replicas", "2", "--out", "{out}/sweep-full_mt-5"]
    assert json.loads((tmp_path / "full_mt-5.json").read_text())["task"][
        "samples_per_client"] == 40
    # Full batches with every client and with a sample of them, at seed 5.
    assert sorted(label for label in runs if "full_batch" in label
                  and "noise_free" not in label) == [
        "run-full_mt-full_batch-5-w1", "run-full_mt-full_batch-5-w2",
        "run-partial_mdt-full_batch-5-w1", "run-partial_mdt-full_batch-5-w2"]
    # full_mt noise free, with no check, on mini-batches and full batches.
    assert sorted(label for label in runs if "noise_free" in label) == [
        "run-full_mt-noise_free-5-w1", "run-full_mt-noise_free-full_batch-5-w1"]
    for kind, batch in (("noise_free", 4), ("noise_free-full_batch", None)):
        doc = json.loads((tmp_path / f"full_mt-{kind}-5.json").read_text())
        assert doc["policy"] == {"name": "noise_free", "params": {}}
        assert doc["checks"] == [] and doc["run"]["batch_size"] == batch
    for name, participants in (("full_mt", 10), ("partial_mdt", 5)):
        doc = json.loads((tmp_path / f"{name}-full_batch-5.json").read_text())
        assert doc["run"]["batch_size"] is None
        assert doc["run"]["n_participants"] == participants
        assert json.loads((tmp_path / f"{name}-5.json").read_text())[
            "run"]["batch_size"] == 4
    # full_mt with its task read from the one task file of the inputs.
    doc = json.loads((tmp_path / "full_mt-task_file-5.json").read_text())
    assert doc["task"] == {"file": str(tmp_path / same_outputs.TASK_FILE)}
    assert found["run-full_mt-task_file-5-w1"][3] \
        == str(tmp_path / "full_mt-task_file-5.json")
    assert found["verify-all"][-3:] == ["all", "--seed", "0"]
    assert sorted(label for label in found if label[:2].isdigit()) == sorted(
        path.stem for path in (TOOLS.parent / "demos").glob("*.py"))
    doc = json.loads((tmp_path / "full_mt-5.json").read_text())
    assert doc["replicas"] == 20 and doc["run"]["seed"] == 100


def test_line_counts_name_each_module_and_the_total(tmp_path, same_outputs):
    copy = tree(tmp_path, {"src/noisyfed/a.py": b"x = 1\ny = 2\n",
                           "src/noisyfed/b.py": b"z = 3\n",
                           "src/noisyfed/data.json": b"{}\n"})
    assert same_outputs.line_counts(copy) == {"a.py": 2, "b.py": 1,
                                              "total": 3}
