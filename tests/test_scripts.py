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
        (
            ["solve_sweep.py", "--system", str(ROOT / "data" / "rr_dyad.sys"),
             "--degrees", "3,3,2,2", "--seeds", "0-1"],
            '"seed": 1, "candidates": 4, "certified": 4, "distinct": 4, "real": 4',
        ),
        (
            ["solve_sweep.py", "--system", str(ROOT / "data" / "rr_dyad_poly.sys"), "--seeds", "3"],
            '"ledger_sha256": "',
        ),
        (
            ["certify_sweep.py", "--stems", "rr_dyad_poly", "--bits", "96"],
            '"stem": "rr_dyad_poly", "mode": "rational", "precision": 96, "flags": "r4", "exit": 0',
        ),
        (
            ["layer_times.py", "--stems", "rr_dyad", "--bits", "96", "--repeat", "2"],
            '{"stem": "rr_dyad", "bits": 96, "repeat": 2, "value_and_jacobian_ms": ',
        ),
        (
            ["solve_times.py", "--system", str(ROOT / "data" / "rr_dyad.sys"),
             "--degrees", "3,3,2,2", "--seeds", "0"],
            '"candidates": 4, "setup_s": ',
        ),
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


def test_sweep_diff_ignores_solve_time_and_reports_differences(tmp_path):
    """sweep_diff.py exits 0 on outputs that differ only in solve_s, and 1,
    printing both lines, on outputs that differ in anything else."""
    lines = ['{"seed": 0, "candidates": 4, "solve_s": 0.5}', '{"seed": 1, "candidates": 4, "solve_s": 0.6}']
    a, b, c = (tmp_path / name for name in "abc")
    a.write_text("\n".join(lines) + "\n")
    b.write_text("\n".join(line.replace("0.", "9.") for line in lines) + "\n")
    c.write_text(lines[0] + '\n{"seed": 1, "candidates": 3, "solve_s": 0.6}\n')
    script = str(ROOT / "scripts" / "sweep_diff.py")
    same = subprocess.run([sys.executable, script, str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    assert same.returncode == 0 and same.stdout == ""
    differ = subprocess.run([sys.executable, script, str(a), str(c)],
                            capture_output=True, text=True, timeout=60)
    assert differ.returncode == 1
    assert differ.stdout.splitlines() == [
        "line 2:", '< {"candidates": 4, "seed": 1}', '> {"candidates": 3, "seed": 1}']
