"""Every demo script and every measurement script runs to completion
against the current package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SCRIPTS = ["analyze_scale.py", "io_scale.py", "tower_scale.py"]


def run_script(path, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path), *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = run_script(demo, cwd=tmp_path)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("script", SCRIPTS)
def test_scale_script_prints_one_json_line(script, tmp_path):
    result = run_script(ROOT / "scripts" / script, "24", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["n"] == 24
    if script == "io_scale.py":
        assert record["round_trip"] is True
    if script == "tower_scale.py":
        assert record["certificates_ok"] == 3 * 24
        assert 0 < record["distinct_links"] <= 3 * 24
