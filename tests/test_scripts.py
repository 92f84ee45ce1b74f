"""Smoke runs of the scripts under scripts/, each in a child interpreter.

The scripts build configs and call the library as a user would, so a change
to a constructor or a signature shows up here even though no other test
imports them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import expcert

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["arm_demo.py", "--seed", "12"], "certified 6/6"),
        (["residual_table.py", "--bits", "256", "--steps", "4"], "step lengths from Z1 at 256 bits"),
        (["compliant_demo.py", "--help"], "usage: compliant_demo.py"),
    ],
)
def test_script_runs(argv, expected):
    src = str(Path(expcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
