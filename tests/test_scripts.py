"""The example scripts under ``scripts/`` run end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import voltaic_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, runs",
    [("battery_cost_sweep.py", ["S0", "S1", "S2"]), ("share_sweep.py", ["share50", "share60", "share70", "share80"])],
)
def test_example_script_prints_each_run(tmp_path, script, runs):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--workdir", str(tmp_path)],
                          capture_output=True, text=True, env=voltaic_env(), cwd=tmp_path, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    header = next(k for k, line in enumerate(lines) if line.split()[:1] == ["run"])
    table = lines[header + 1:lines.index("", header)]
    assert [line.split()[0] for line in table] == runs
