"""Smoke runs of the scripts under scripts/, each in a child interpreter.

The scripts build configs and call the library as a user would, so a change
to a constructor or a signature shows up here even though no other test
imports them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import expcert

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    src = str(Path(expcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300, env=env)


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
        (
            ["step_times.py", "--systems", "arm", "--repeat", "1"],
            '{"system": "arm", "degrees": "3,3,2,2", "seed": 0, "candidates": 4, "calls": {"slice-continuation": '
            '374, "product-to-truncated": 3162, "truncated-to-target": 545}, "raised": {"slice-continuation": '
            '{"_NativeSingular": 0, "OverflowError": 0}, ',
        ),
    ],
)
def test_script_runs(argv, expected):
    proc = _run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


# The sha256 of every report certify_sweep.py writes, keyed by its line's
# "stem mode precision flags".
REPORT_SHA256 = {
    "compliant float 96 plain": "555d0b6ee32c8359e024272be387e61e0427f0e99308ea09bb079e1c402c66f3",
    "compliant float 96 r2-audit": "f77977959b04fd1a34749933c04b80f77b79ef32b8b69c2fe801fa24479d5495",
    "compliant float 96 r4": "492a18304a47fec2a68e176108175d5c1a3a423be5a8ecbf1be1ffe6b98bbd0e",
    "compliant float 256 plain": "7117cc9a693ce3cfdcbcc058c072da6912e4eca4c1d4c7a1b039f20c159a36ed",
    "compliant float 256 r2-audit": "f27fccf7bc6450c328f183cb90375d85ecb5c63159d350a334c060dca91f2ef6",
    "compliant float 256 r4": "eec3a15a735fa685a3fb977ef5a0434af7858d8e0a3802efaf3e1b7cf1dd6d75",
    "compliant float 1024 plain": "24c66151393e494a610835cfa5b9858becb8d37bd20206bc30e4b8f23fb45fc4",
    "compliant float 1024 r2-audit": "a64d90ae3718c5b8003a0fd294ac302f337034c15c01d4be60b1e8d14bed0cfc",
    "compliant float 1024 r4": "71a2daf5af99c777c83819477a8ac623e53881ea2e4079cb409d54af9e9e59bb",
    "compliant_alt float 96 plain": "5526dd20a0b8f4a8b19c04bbb637ac7f6edf1d1de35fa856d1b0236c2c9de17c",
    "compliant_alt float 96 r2-audit": "28e386db41553e5372562609c56280625499321707fe489afe2abb5ef27f724c",
    "compliant_alt float 96 r4": "6812f2edb62d12f6bd7da04b0d5979507c8999e9d743c0bdb861ce1015bba934",
    "compliant_alt float 256 plain": "1360a732a738ef9c945961ae79a28bbfdd57a9ee12b389a5a042fd98574561ff",
    "compliant_alt float 256 r2-audit": "83919176631905fe4d7f987176b34b4c58e8ff186dd1ee75adb9c54c3c7e7b95",
    "compliant_alt float 256 r4": "15d77882a9e76290ed2695262ae679b396575d61171bd3d650115b22b2f22c6b",
    "compliant_alt float 1024 plain": "01dbc777594879633198ec0c96e17fa57829affe23431b6e53c295a5f7fd1119",
    "compliant_alt float 1024 r2-audit": "817a37dc3f5c447910ce78965cc437221e4f04dfad6ba52ef25d0b0381a5e9bc",
    "compliant_alt float 1024 r4": "3909c1708644fef97dc0994fa69d0c9703002c69f7ee87cf8b9d43050f4d3de1",
    "rr_dyad float 96 plain": "8e2e33a45af6ce222455937743ef9635c7a6c5e09bb156656679b11a08afc472",
    "rr_dyad float 96 r2-audit": "23fdea8cd74d79e41da5077fbb41945973107aaa914ec73afcc37f933f2f86fc",
    "rr_dyad float 96 r4": "2232d2f1588dd6bda81df5f7655d61851d911f1d1f040e72b30bd3a9e93a077b",
    "rr_dyad float 256 plain": "b5329e1a024429c22287683b180621fc9f11272ebe40df84e45d4b26084adae5",
    "rr_dyad float 256 r2-audit": "807a4b0445741abe2584648d55d6cf6424ef7571614d1739a42d2f7b2681ed47",
    "rr_dyad float 256 r4": "445a0951eba8283dc978cfd9aefb0619c3323eaffc73cfa848b6fe648046f710",
    "rr_dyad float 1024 plain": "302a2ea11f658781723ce13771354ba63b8f8ff59da3e0aa74cdbdd606b0811d",
    "rr_dyad float 1024 r2-audit": "1ba601fe122d9ceea198b70d88ecef58889e723a7bfde9c80084672191f0f006",
    "rr_dyad float 1024 r4": "6c7cd55860c3e005a7367eb470e561878dc2715712183b74a771f4b6a20b2ccd",
    "rr_dyad_euler float 96 plain": "856fbbda2cb2ffc4c8fc401dab7f5a95a33fb25707b1cb9c00bd7339d4d564de",
    "rr_dyad_euler float 96 r2-audit": "c5b15c9c8e139539ce6328987ecdc2d06f92cd91261d4513b8f13dbdb8341682",
    "rr_dyad_euler float 96 r4": "8f6612d3187a00e80883e3e63646f689808ef69a7ea938642f00d535a94c3951",
    "rr_dyad_euler float 256 plain": "24b33da8d046222e8484fb668c1ea662111d00d5e6457ed809f4ade727f73610",
    "rr_dyad_euler float 256 r2-audit": "541904fc40255d2bc0f7112920dff6f1623fda4309c600fb8fe3235cc447df4b",
    "rr_dyad_euler float 256 r4": "703ce91e7e85e9c9ff79a7e194cd3b162b2efb6f69bb0850343deaebd2d54443",
    "rr_dyad_euler float 1024 plain": "9352783c1978077459cbb11ea7c8a995c38cbfc3ebb31011f85a4c85619c15c3",
    "rr_dyad_euler float 1024 r2-audit": "ea3e14db94b9235a8500cc2066b3980ffcfd0b8562933f72ba52e314eba89497",
    "rr_dyad_euler float 1024 r4": "2f42d6cdddfb284ac7fc169b68392313e1506e8d8078ff608ef8e492b686af21",
    "rr_dyad_poly float 96 plain": "7e3052712cf6e8fb79eea13411f14017caab6a0df7869c2c2f5e840d3a1bfcaf",
    "rr_dyad_poly float 96 r2-audit": "09f96e996ba98817b25253467e23b1ab90d8625ad1493212579ffd5d6e52f7c3",
    "rr_dyad_poly float 96 r4": "ea66a22914a41fe6d06f88591c0e45f93c373a013678c2dc4aed9346a2d8c1ff",
    "rr_dyad_poly float 256 plain": "6eca9e9517066cc5c26bee495f19341db3b503de1048b1e38db7c7832c0c4177",
    "rr_dyad_poly float 256 r2-audit": "d15c433fbdfba62195efdbbd4b34c36a92066c7f014664801925519cb1368eee",
    "rr_dyad_poly float 256 r4": "9b5b3988a1c7d6534bd3dcb22830f17124c60e6286319266852536a2867e3f95",
    "rr_dyad_poly float 1024 plain": "7a0267cad8ff7d1fe7efef950d545ce01ad3ed403a0dd27ca676e3ba2b394c66",
    "rr_dyad_poly float 1024 r2-audit": "f51191eaf2b729d8f5458510d8f0b433eeab0e1d28a9946b0b2b3b19e961140e",
    "rr_dyad_poly float 1024 r4": "9557b1a6af26687cdd9d59ca5c4058fb95ffb8ec978a86ba72d031a6a44835e6",
    "rr_dyad_poly rational 96 plain": "54fb01e3f9aa177b44c42d838c1ceabc794fe641fbdcd533d0df3dddf141dca7",
    "rr_dyad_poly rational 96 r2-audit": "89e5b29abcb6e59f1f7d2c3ebec136ed981e927d7a099d06e763376e5e7f1daf",
    "rr_dyad_poly rational 96 r4": "4dae2b09604d71680251a65d7fff1e1f3de4c30360158aea6a725d9039124155",
}


def test_certify_sweep_reports_keep_their_bytes():
    """Every report of certify_sweep.py (each data/* pair at 96/256/1024
    bits with three flag sets, and rational rr_dyad_poly) is byte for byte
    the pinned one. A change meant to keep reports as they are must pass
    this; one meant to move them re-records the table and says why."""
    proc = _run_script("certify_sweep.py")
    assert proc.returncode == 0, proc.stderr
    got = {}
    for line in proc.stdout.splitlines():
        run = json.loads(line)
        got[f"{run['stem']} {run['mode']} {run['precision']} {run['flags']}"] = run["report_sha256"]
    assert got == REPORT_SHA256


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
