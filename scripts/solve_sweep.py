"""Solve one system at every seed of a range and print one JSON line per seed.

Each line gives the candidate count, the certified, distinct and real counts
of certifying those candidates at the solve precision, each stage's kept
count and path outcomes from the run ledger, the total tracker steps, and
the solve time. Running it on two versions of the tracker compares them
seed by seed.

    python3 scripts/solve_sweep.py --system data/rr_dyad.sys --degrees 3,3,2,2 --seeds 0-39
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from expcert.certify import BatchOptions, certify_batch
from expcert.homotopy import HomotopyConfig, PathStatus, solve_by_deformation
from expcert.scalars import PrecisionConfig
from expcert.sysio import parse_system


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


def sweep_line(F, degrees, seed: int, bits: int) -> dict:
    t0 = time.perf_counter()
    out = solve_by_deformation(F, degrees, HomotopyConfig(seed=seed, bits=bits))
    seconds = time.perf_counter() - t0
    rep = certify_batch(
        F, out.candidates, PrecisionConfig("float", bits), BatchOptions(distinct=True, real=True)
    )
    stages = {
        st.name: {"kept": st.kept, **{s.value: st.count(s) for s in PathStatus}}
        for st in out.ledger.stages
    }
    return {
        "seed": seed,
        "candidates": len(out.candidates),
        "certified": rep.counts["certified"],
        "distinct": rep.counts["distinct"],
        "real": rep.counts["real"],
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
