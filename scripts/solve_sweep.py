"""Solve one system at every seed of a range and print one JSON line per seed.

Each line gives the candidate count, the certified, distinct and real counts
of certifying those candidates at the solve precision, a digest of the
candidate roots, the sha256 of the candidates themselves and of the run
ledger, each stage's kept count, path outcomes and path counts by outcome
and reason, the total tracker steps, and the solve time. Running it on two
versions of the tracker compares them seed by seed: the root digest says
whether they find the same roots, candidates_sha256 whether the candidates
are the same points, bit for bit and in order, and ledger_sha256 whether
every path and note of the run is the same.

    python3 scripts/solve_sweep.py --system data/rr_dyad.sys --degrees 3,3,2,2 --seeds 0-39
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import time
from pathlib import Path

from expcert.certify import BatchOptions, certify_batch
from expcert.homotopy import HomotopyConfig, PathStatus, solve_by_deformation
from expcert.scalars import PrecisionConfig
from expcert.sysio import parse_system, serialize_points


def seed_range(raw: str) -> range:
    """'A-B' is the seeds A through B inclusive; 'A' is the one seed A."""
    lo, _, hi = raw.partition("-")
    try:
        first, last = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed or a range A-B: {raw!r}")
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range: {raw!r}")
    return range(first, last + 1)


def degree_list(raw: str) -> tuple:
    try:
        return tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {raw!r}")


def root_digest(candidates) -> str:
    """sha256 of the sorted candidates, each coordinate part rounded to 12
    significant digits of the point's largest part.

    Rounding against the largest part, not each part's own magnitude, reads
    the last-bit noise of a real root's imaginary parts as 0, so runs that
    find the same roots give the same digest in any order.
    """
    keys = []
    for z in candidates:
        parts = [float(p) for v in z for p in (v.real, v.imag)]
        exp = math.floor(math.log10(max(map(abs, parts)) or 1.0)) - 11
        keys.append(" ".join(f"{round(p / 10.0**exp)}e{exp}" for p in parts))
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()


def sweep_line(F, degrees, seed: int, bits: int) -> dict:
    t0 = time.perf_counter()
    out = solve_by_deformation(F, degrees, HomotopyConfig(seed=seed, bits=bits))
    seconds = time.perf_counter() - t0
    rep = certify_batch(
        F, out.candidates, PrecisionConfig("float", bits), BatchOptions(distinct=True, real=True)
    )
    stages = {}
    for st in out.ledger.stages:
        reasons = {f"{s.value}: {r}" if r else s.value: n for (s, r), n in st.reasons.items()}
        stages[st.name] = {
            "kept": st.kept,
            **{s.value: st.count(s) for s in PathStatus},
            "reasons": dict(sorted(reasons.items())),
        }
    return {
        "seed": seed,
        "candidates": len(out.candidates),
        "certified": rep.counts["certified"],
        "distinct": rep.counts["distinct"],
        "real": rep.counts["real"],
        "roots": root_digest(out.candidates),
        "candidates_sha256": hashlib.sha256(
            serialize_points(out.candidates, "float").encode()
        ).hexdigest(),
        "ledger_sha256": hashlib.sha256(out.ledger.render().encode()).hexdigest(),
        "stages": stages,
        "steps": sum(steps for st in out.ledger.stages for _, _, steps in st.outcomes),
        "solve_s": round(seconds, 3),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--system", required=True, help="system file")
    parser.add_argument("--degrees", type=degree_list, default=(), help="e.g. 3,3,2,2")
    parser.add_argument("--seeds", type=seed_range, default=range(1), help="e.g. 0-39")
    parser.add_argument("--bits", type=int, default=256, help="polish and certify precision")
    args = parser.parse_args()

    F = parse_system(Path(args.system).read_text(encoding="utf-8"))
    for seed in args.seeds:
        print(json.dumps(sweep_line(F, args.degrees, seed, args.bits)), flush=True)


if __name__ == "__main__":
    main()
