"""Every python block of README.md runs as written, every json block is an
experiment the schema accepts, and every demo runs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from noisyfed.config import parse_experiment

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.S | re.M)
JSON_BLOCKS = re.findall(r"^```json\n(.*?)^```", TEXT, re.S | re.M)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "readme"})


def test_readme_has_json_blocks():
    assert JSON_BLOCKS


@pytest.mark.parametrize("index", range(len(JSON_BLOCKS)))
def test_readme_json_block_is_an_experiment(index):
    parse_experiment(json.loads(JSON_BLOCKS[index]),
                     source=f"README.md json block {index}")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
