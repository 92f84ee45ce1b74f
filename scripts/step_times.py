"""Time one tracker step by stage: record a serial solve's step calls, then
replay them, one JSON line per system.

The tracker's every predictor and corrector step is one call of the
generated step of a (start, target) pair (homotopy._step_program). This
script solves each system once in this process (one worker, so no fork),
with _step_program wrapped to record every call's arguments under the
stage that makes it, and _restrict wrapped to time each slice's
restriction. It then calls the recorded steps again, stage by stage, and
gives the best of --repeat replays as microseconds per call, so the step
itself is timed apart from the tracker around it. A raised step (a
singular or overflowing one) counts as a call; the solve made it too.

    PYTHONPATH=src python3 scripts/step_times.py --seed 0 --repeat 5

The systems are the arm (data/rr_dyad.sys, degrees 3,3,2,2) and the
compliant four-bar (data/compliant.sys, degrees 2,2,2,2,2,2); --systems
picks some of them.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from expcert import homotopy
from expcert.homotopy import HomotopyConfig, solve_by_deformation
from expcert.sysio import parse_system

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = {
    "arm": ("rr_dyad.sys", (3, 3, 2, 2)),
    "compliant": ("compliant.sys", (2, 2, 2, 2, 2, 2)),
}


def record_solve(F, degrees, seed: int):
    """Solve F serially; return ({stage: [(step, args), ...]}, restriction
    seconds, slice count, candidate count)."""
    calls, state = defaultdict(list), {"stage": None, "restrict_s": 0.0, "slices": 0}
    program, restrict = homotopy._step_program, homotopy._restrict
    slice_task, path_task = homotopy._slice_task, homotopy._path_task

    def recording(cs, ct):
        step = program(cs, ct)

        def wrapped(z, t, tangent, G):
            calls[state["stage"]].append((step, (list(z), t, tangent, G)))
            return step(z, t, tangent, G)

        return wrapped

    def timed_restrict(*args):
        start = perf_counter()
        out = restrict(*args)
        state["restrict_s"] += perf_counter() - start
        state["slices"] += 1
        return out

    def staged(task_fn):
        def run(shared, task):
            state["stage"] = task[0]
            return task_fn(shared, task)

        return run

    patches = {
        "_step_program": recording,
        "_restrict": timed_restrict,
        "_slice_task": staged(slice_task),
        "_path_task": staged(path_task),
        "_worker_count": lambda: 1,
    }
    saved = {name: getattr(homotopy, name) for name in patches}
    try:
        for name, value in patches.items():
            setattr(homotopy, name, value)
        out = solve_by_deformation(F, degrees, HomotopyConfig(seed=seed))
    finally:
        for name, value in saved.items():
            setattr(homotopy, name, value)
    return calls, state["restrict_s"], state["slices"], len(out.candidates)


def replay_us(calls, repeat: int) -> float:
    """Best of `repeat` replays of the recorded calls, in microseconds per call."""
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        for step, args in calls:
            try:
                step(*args)
            except (homotopy._NativeSingular, OverflowError):
                pass
        best = min(best, perf_counter() - start)
    return best / len(calls) * 1e6


def times_line(name: str, seed: int, repeat: int) -> dict:
    path, degrees = SYSTEMS[name]
    F = parse_system((ROOT / "data" / path).read_text(encoding="utf-8"))
    calls, restrict_s, slices, candidates = record_solve(F, degrees, seed)
    us = {stage: replay_us(c, repeat) for stage, c in calls.items()}
    return {
        "system": name,
        "degrees": ",".join(str(d) for d in degrees),
        "seed": seed,
        "candidates": candidates,
        "calls": {stage: len(c) for stage, c in calls.items()},
        "us_per_call": {stage: round(v, 2) for stage, v in us.items()},
        "all_us_per_call": round(
            sum(v * len(calls[stage]) for stage, v in us.items()) / sum(map(len, calls.values())), 2
        ),
        "restrict_ms_per_slice": round(restrict_s / max(slices, 1) * 1e3, 3),
        "restrict_ms": round(restrict_s * 1e3, 2),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--systems", default="arm,compliant", help="e.g. arm")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3, help="replays per stage; the best is kept")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    for name in args.systems.split(","):
        if name not in SYSTEMS:
            parser.error(f"unknown system {name!r}; choose from {', '.join(SYSTEMS)}")
        print(json.dumps(times_line(name, args.seed, args.repeat)), flush=True)


if __name__ == "__main__":
    main()
