"""Smoke tests: the scripts under scripts/ run to completion on small grids."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cosmo

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name, args, rows",
    [
        # the slope list starts with a minus sign and is passed as a separate token
        (
            "pretzel_sweep.py",
            ["--max-a", "1", "--min-b", "-1", "--max-b", "1", "--slopes", "-1/1,1/1", "--skip-oracle"],
            4,
        ),
        # one row per coprime pair q < p for p = 2..12
        ("lens_space_table.py", ["--max-p", "12", "--all-q"], 45),
        # the skein oracle recomputes a3 for both pretzels
        ("pretzel_sweep.py", ["--max-a", "1", "--min-b", "-1", "--max-b", "1", "--slopes", "1/1"], 2),
    ],
)
def test_script_runs(name, args, rows):
    src = str(Path(cosmo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    lines = out.stdout.splitlines()
    assert len(lines) == 2 + rows  # header and rule, then the table
    if name == "pretzel_sweep.py":  # the oracle column is the last
        oracle = "skipped" if "--skip-oracle" in args else "agrees"
        assert [line.split()[-1] for line in lines[2:]] == [oracle] * rows
