"""Certify every data/* pair at several precisions and flag sets, one JSON line each.

Each line names the stem, mode, precision and flags of one `expcert certify`
run, and gives its exit code, the report's counts and the sha256 of the
report itself. Every stem runs in float mode at each precision with each
flag set; the link-free rr_dyad_poly also runs in rational mode with each
flag set. Running it on two versions of the certifier compares them run by
run: equal sha256s mean byte-identical reports. With --reports DIR, each
report is also kept as DIR/<stem>-<mode>-p<bits>-<flag set>.json, so that
two versions' reports can be compared value by value.

    python3 scripts/certify_sweep.py
    python3 scripts/certify_sweep.py --stems rr_dyad_poly --bits 96 --reports /tmp/reports
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from expcert.cli import main as expcert_main

DATA = Path(__file__).resolve().parent.parent / "data"
PRECISIONS = (96, 256, 1024)
FLAG_SETS = {
    "plain": (),
    "r2-audit": ("--refine", "2", "--audit", "--distinct", "--real"),
    "r4": ("--refine", "4", "--distinct", "--real"),
}
RATIONAL_STEMS = ("rr_dyad_poly",)


def runs(stems, precisions):
    """(stem, mode, bits, flag set name) of every run, in output order."""
    for stem in stems:
        for bits in precisions:
            for name in FLAG_SETS:
                yield stem, "float", bits, name
    for stem in stems:
        if stem in RATIONAL_STEMS:
            for name in FLAG_SETS:
                yield stem, "rational", 96, name


def certify_line(stem: str, mode: str, bits: int, flags: str, folder: Path) -> dict:
    """The JSON line of one run, whose report is written into folder."""
    path = folder / f"{stem}-{mode}-p{bits}-{flags}.json"
    argv = ["certify", "--system", str(DATA / f"{stem}.sys"), "--points", str(DATA / f"{stem}.pts"),
            "--mode", mode, "--precision", str(bits), *FLAG_SETS[flags], "--output", str(path)]
    with contextlib.redirect_stderr(io.StringIO()):  # the audit's rational-mode notice
        code = expcert_main(argv)
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    counts = json.loads(text)["counts"] if text else None
    return {
        "stem": stem,
        "mode": mode,
        "precision": bits,
        "flags": flags,
        "exit": code,
        "counts": counts,
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    stems = sorted(p.stem for p in DATA.glob("*.sys"))
    parser.add_argument("--stems", default=",".join(stems), help="comma-separated data stems")
    parser.add_argument("--bits", default=",".join(map(str, PRECISIONS)),
                        help="comma-separated float precisions")
    parser.add_argument("--reports", default=None, help="folder to keep each report in")
    args = parser.parse_args()

    precisions = [int(b) for b in args.bits.split(",") if b.strip()]
    with tempfile.TemporaryDirectory() as scratch:
        folder = Path(args.reports or scratch)
        folder.mkdir(parents=True, exist_ok=True)
        for run in runs([s for s in args.stems.split(",") if s.strip()], precisions):
            print(json.dumps(certify_line(*run, folder)), flush=True)


if __name__ == "__main__":
    main()
