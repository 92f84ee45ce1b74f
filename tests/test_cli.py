"""End-to-end runs of the command-line interface.

Exit code contract: 0 when every point certifies, 1 when at least one does
not, 2 on any input problem (unreadable file, parse error, wrong width).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expcert import cli, homotopy
from expcert.cli import build_parser, main
from expcert.scalars import PrecisionConfig
from expcert.sysio import MAX_EXPONENT, parse_points

DATA = Path(__file__).resolve().parent.parent / "data"


def sysf(stem):
    return str(DATA / f"{stem}.sys")


def ptsf(stem):
    return str(DATA / f"{stem}.pts")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rational_certify_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--system", sysf("rr_dyad_poly"), "--points", ptsf("rr_dyad_poly"),
        "--mode", "rational", "--distinct", "--real",
    )
    assert code == 0
    d = json.loads(out)
    assert d["counts"] == {
        "total": 2, "certified": 2, "distinct": 2, "real": 2,
        "not_real": 0, "undecided": 0,
    }


def test_rational_rerun_is_byte_identical(capsys):
    argv = (
        "certify", "--system", sysf("rr_dyad_poly"), "--points", ptsf("rr_dyad_poly"),
        "--mode", "rational", "--distinct", "--real",
    )
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_float_certify_with_audit(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--system", sysf("rr_dyad"), "--points", ptsf("rr_dyad"),
        "--mode", "float", "--precision", "96", "--audit",
    )
    assert code == 0
    d = json.loads(out)
    for p in d["points"]:
        assert p["certified"]
        assert p["audit"]["precision"] == 1024
        assert p["audit"]["agree"] is True


def test_audit_precision_scales_with_request(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--system", sysf("rr_dyad"), "--points", ptsf("rr_dyad"),
        "--precision", "768", "--audit",
    )
    assert code == 0
    d = json.loads(out)
    assert all(p["audit"]["precision"] == 1536 for p in d["points"])


def test_uncertified_start_exits_one_and_refine_recovers(capsys, tmp_path):
    base = (
        "certify", "--system", sysf("compliant_alt"), "--points", ptsf("compliant_alt"),
        "--mode", "float", "--precision", "192",
    )
    code, out, _ = run(capsys, *base)
    assert code == 1
    d = json.loads(out)
    assert all(not p["certified"] for p in d["points"])

    code2, out2, _ = run(capsys, *base, "--refine", "1")
    assert code2 == 0
    d2 = json.loads(out2)
    assert [p["certified"] for p in d2["points"]] == [True, True]
    # the wide starting residuals are visible in the refinement trail
    for p in d2["points"]:
        rows = p["residuals"]["rows"]
        assert len(rows) == 2 and rows[0][0] == 0


def test_euler_needs_assume_real_map(capsys):
    base = (
        "certify", "--system", sysf("rr_dyad_euler"), "--points", ptsf("rr_dyad_euler"),
        "--precision", "128", "--real",
    )
    code, out, _ = run(capsys, *base)
    # the realness request fails per point but certification itself succeeded
    d = json.loads(out)
    assert code == 0
    assert all("real" not in p for p in d["points"])
    assert d["real_map"] is False

    code2, out2, _ = run(capsys, *base, "--assume-real-map")
    d2 = json.loads(out2)
    assert code2 == 0
    assert [p["real"] for p in d2["points"]] == ["not_real", "not_real"]


def test_text_format_and_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.txt"
    code, out, _ = run(
        capsys,
        "certify", "--system", sysf("rr_dyad_poly"), "--points", ptsf("rr_dyad_poly"),
        "--mode", "rational", "--format", "text", "--output", str(out_path),
    )
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert "certification report" in text and "point 1: certified" in text


def test_missing_system_file_exits_two(capsys):
    code, _, err = run(
        capsys, "certify", "--system", "/nonexistent.sys", "--points", ptsf("rr_dyad"),
    )
    assert code == 2 and err.startswith("error:")


def test_malformed_system_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.sys"
    bad.write_text("format: 1\nsystem x y\n")
    code, _, err = run(capsys, "certify", "--system", str(bad), "--points", ptsf("rr_dyad"))
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize("token", ["7" * 5000, "1/" + "3" * 5000], ids=["integer", "ratio"])
def test_oversized_coordinate_exits_two_with_a_short_message(capsys, tmp_path, token):
    """A coordinate past the 4300-digit int limit is a parse error that quotes
    only the head of the token and its length."""
    pts = tmp_path / "long.pts"
    pts.write_text(f"format: 1\nmode: rational\n1\n{token} 0\n" + "0 0\n" * 3)
    code, _, err = run(capsys, "certify", "--system", sysf("rr_dyad_poly"), "--points", str(pts),
                       "--mode", "rational")
    assert code == 2 and err.startswith("error:") and "line 4" in err
    assert f"({len(token)} characters)" in err
    assert len(err) < 400


def test_width_mismatch_exits_two(capsys):
    code, _, err = run(
        capsys,
        "certify", "--system", sysf("rr_dyad"), "--points", ptsf("rr_dyad_poly"),
    )
    assert code == 2 and "coordinates" in err


# Runs main in a child interpreter and prints how long main took.
_TIMED_MAIN = """
import sys, time
from expcert.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "system,points",
    [
        ("format: 1\nsystem 1 0\npoly 1\n1000000000 1 0\n", "format: 1\nmode: rational\n1\n1 0\n"),
        (None, "format: 1\nmode: rational\n1\n-1e999999999 0\n"),
    ],
    ids=["term-exponent", "decimal-exponent"],
)
def test_hostile_file_exits_two_fast(tmp_path, system, points):
    """Each file ran until it was killed before the parser capped exponents.

    A child process, so that a regression fails on the timeout instead of
    hanging the suite.
    """
    sys_path = tmp_path / "hostile.sys"
    sys_path.write_text(system or (DATA / "rr_dyad_poly.sys").read_text())
    pts_path = tmp_path / "hostile.pts"
    pts_path.write_text(points)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, "certify", "--system", str(sys_path),
         "--points", str(pts_path), "--mode", "rational"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2 and proc.stderr.startswith("error:")
    assert "exponent" in proc.stderr
    assert float(proc.stdout.split()[-1]) < 1.0


def test_hostile_truncation_degree_exits_two_fast(tmp_path):
    """A degree of 1000 was still truncating and solving after 30 s; degrees
    share the system file's exponent cap. A child process, so that a
    regression fails on the timeout instead of hanging the suite."""
    out = tmp_path / "cand.pts"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, "solve", "--system", str(DATA / "rr_dyad.sys"),
         "--truncate-degrees", "1000,3,2,2", "--output", str(out)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2 and proc.stderr.startswith("error:")
    assert f"truncation degrees must be at most {MAX_EXPONENT}" in proc.stderr
    assert float(proc.stdout.split()[-1]) < 1.0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["certify", "solve"])
def test_precision_above_the_cap_exits_two_fast(tmp_path, command):
    """10^9 bits is refused while the arguments are parsed; 3 * 10^6 bits
    used to run certify for more than 30 s. A child process, so that a
    regression fails on the timeout instead of hanging the suite."""
    argv = ["--system", str(DATA / "rr_dyad.sys"), "--precision", str(10**9)]
    if command == "certify":
        argv += ["--points", str(DATA / "rr_dyad.pts")]
    else:
        argv += ["--truncate-degrees", "3,3,2,2", "--output", str(tmp_path / "cand.pts")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "expcert.cli", command] + argv,
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(
        f"error: argument --precision: must be <= {cli.MAX_PRECISION_BITS}, got {10**9}")
    assert list(tmp_path.iterdir()) == []


def test_the_audit_precision_is_valid_at_the_cap():
    bits = max(cli.AUDIT_FLOOR_BITS, 2 * cli.MAX_PRECISION_BITS)
    assert PrecisionConfig("float", bits).bits == bits


# Runs certify and solve through main in one child interpreter, checks that
# neither imported a thread pool, then reports whether either imported numpy.
_NO_NUMPY_MAIN = """
import sys
from expcert.cli import main
system, points, out = sys.argv[1:]
assert main(["certify", "--system", system, "--points", points]) == 0
assert main(["solve", "--system", system.replace("compliant", "rr_dyad"),
             "--truncate-degrees", "3,3,2,2", "--seed", "12", "--output", out]) == 0
assert "concurrent.futures" not in sys.modules
print("numpy" in sys.modules)
"""


def test_certify_and_solve_never_import_numpy(tmp_path):
    """Importing numpy adds 10-12 MB to the process's peak RSS.

    A child interpreter, since the test suite itself imports numpy.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_MAIN, sysf("compliant"), ptsf("compliant"),
         str(tmp_path / "cand.pts")],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"


def test_rational_mode_rejects_links(capsys):
    code, _, err = run(
        capsys,
        "certify", "--system", sysf("rr_dyad"), "--points", ptsf("rr_dyad"),
        "--mode", "rational",
    )
    assert code == 2 and "rational" in err


def test_solve_writes_candidates_and_ledger(capsys, tmp_path):
    out_path = tmp_path / "cand.pts"
    code, out, _ = run(
        capsys,
        "solve", "--system", sysf("rr_dyad"), "--truncate-degrees", "3,3,2,2",
        "--seed", "12", "--output", str(out_path),
    )
    assert code == 0
    assert f"candidates written to {out_path}" in out
    assert "stage slice-continuation" in out
    pd = parse_points(out_path.read_text())
    assert pd.mode == "float" and len(pd.points) == 6
    ledger = (tmp_path / "cand.pts.ledger").read_text()
    assert ledger.startswith("solve run ledger")
    assert "seed: 12" in ledger

    # the solver's output feeds straight back into certify
    code2, out2, _ = run(
        capsys,
        "certify", "--system", sysf("rr_dyad"), "--points", str(out_path),
        "--precision", "192", "--distinct", "--real",
    )
    assert code2 == 0
    d = json.loads(out2)
    assert d["counts"]["certified"] == 6 and d["counts"]["distinct"] == 6


@pytest.mark.parametrize("target", ["missing/cand.pts", "."])
def test_solve_bad_output_exits_two_before_tracking(capsys, monkeypatch, tmp_path, target):
    def tracked(*_args, **_kwargs):
        raise AssertionError("solve_by_deformation ran despite an unwritable output")

    monkeypatch.setattr(cli, "solve_by_deformation", tracked)
    code, _, err = run(
        capsys,
        "solve", "--system", sysf("rr_dyad"), "--truncate-degrees", "3,3,2,2",
        "--output", str(tmp_path / target),
    )
    assert code == 2 and err.startswith("error: output")
    assert list(tmp_path.iterdir()) == []


def test_solve_unwritable_ledger_exits_two_before_tracking(capsys, monkeypatch, tmp_path):
    def tracked(*_args, **_kwargs):
        raise AssertionError("solve_by_deformation ran despite an unwritable ledger")

    (tmp_path / "cand.pts.ledger").mkdir()
    monkeypatch.setattr(cli, "solve_by_deformation", tracked)
    code, _, err = run(
        capsys,
        "solve", "--system", sysf("rr_dyad"), "--truncate-degrees", "3,3,2,2",
        "--output", str(tmp_path / "cand.pts"),
    )
    assert code == 2 and err.startswith("error: output path is a directory")
    assert [p.name for p in tmp_path.iterdir()] == ["cand.pts.ledger"]


def test_solve_low_precision_exits_two_before_tracking(capsys, monkeypatch, tmp_path):
    """solve and certify reject a precision by one rule, with one message."""
    def tracked(*_args, **_kwargs):
        raise AssertionError("a path was tracked despite a bad precision")

    monkeypatch.setattr(homotopy, "track_path", tracked)
    code, _, err = run(
        capsys,
        "solve", "--system", sysf("rr_dyad"), "--truncate-degrees", "3,3,2,2",
        "--precision", "63", "--output", str(tmp_path / "cand.pts"),
    )
    code2, _, err2 = run(
        capsys,
        "certify", "--system", sysf("rr_dyad"), "--points", ptsf("rr_dyad"),
        "--precision", "63",
    )
    assert code == code2 == 2 and err == err2
    assert err.startswith("error: precision")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_certify_bad_output_exits_two_before_certifying(capsys, monkeypatch, tmp_path, target):
    def ran(*_args, **_kwargs):
        raise AssertionError("refine or certify ran despite an unwritable output")

    monkeypatch.setattr(cli, "newton_iterate", ran)
    monkeypatch.setattr(cli, "certify_batch", ran)
    code, _, err = run(
        capsys,
        "certify", "--system", sysf("rr_dyad"), "--points", ptsf("rr_dyad"),
        "--refine", "2", "--output", str(tmp_path / target),
    )
    assert code == 2 and err.startswith("error: output")
    assert list(tmp_path.iterdir()) == []


def test_solve_rejects_bad_degree_list(capsys):
    with pytest.raises(SystemExit) as info:
        main([
            "solve", "--system", sysf("rr_dyad"), "--truncate-degrees", "3,two",
            "--output", "/tmp/x.pts",
        ])
    assert info.value.code == 2
    capsys.readouterr()


def test_solve_wrong_degree_count_exits_two(capsys):
    code, _, err = run(
        capsys,
        "solve", "--system", sysf("rr_dyad"), "--truncate-degrees", "3,3",
        "--output", "/tmp/x.pts",
    )
    assert code == 2 and "4 links" in err


def test_no_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()


def test_thread_count_variable_is_ignored(capsys, monkeypatch):
    argv = ("certify", "--system", sysf("rr_dyad_poly"), "--points", ptsf("rr_dyad_poly"),
            "--mode", "rational")
    monkeypatch.delenv("EXPCERT_THREADS", raising=False)
    code, plain, _ = run(capsys, *argv)
    monkeypatch.setenv("EXPCERT_THREADS", "two")
    code2, out, _ = run(capsys, *argv)
    assert code == code2 == 0
    assert out == plain


def test_negative_refine_count_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([
            "certify", "--system", sysf("rr_dyad_poly"), "--points", ptsf("rr_dyad_poly"),
            "--refine", "-1",
        ])
    assert info.value.code == 2
    assert "--refine" in capsys.readouterr().err


def test_one_parser_serves_every_call_of_main(capsys, monkeypatch):
    """main builds its parser once. certify, solve and certify again with
    other flags each parse on their own, the subcommand's function is the
    module's at call time, and a bad --precision still exits 2."""
    built, seen = [], []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.setattr(cli, "run_certify", lambda args: seen.append(vars(args)) or 0)
    monkeypatch.setattr(cli, "run_solve", lambda args: seen.append(vars(args)) or 0)
    cli._parser.cache_clear()
    try:
        assert main(["certify", "--system", "a.sys", "--points", "a.pts", "--distinct",
                     "--precision", "128", "--refine", "2"]) == 0
        assert main(["solve", "--system", "b.sys", "--output", "b.pts", "--seed", "7"]) == 0
        assert main(["certify", "--system", "c.sys", "--points", "c.pts", "--real",
                     "--format", "text"]) == 0
        with pytest.raises(SystemExit) as info:
            main(["certify", "--system", "c.sys", "--points", "c.pts", "--precision", "many"])
        assert info.value.code == 2 and "--precision" in capsys.readouterr().err
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    certify = {"command": "certify", "mode": "float", "assume_real_map": False,
               "audit": False, "seed": None, "output": None}
    assert seen == [
        dict(certify, system="a.sys", points="a.pts", precision=128, refine=2,
             distinct=True, real=False, format="json"),
        {"command": "solve", "system": "b.sys", "truncate_degrees": None, "seed": 7,
         "precision": 256, "output": "b.pts"},
        dict(certify, system="c.sys", points="c.pts", precision=96, refine=0,
             distinct=False, real=True, format="text"),
    ]
