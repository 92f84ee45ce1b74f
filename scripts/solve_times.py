"""Time the parts of solve's parent and workers, one JSON line per seed.

Each line splits one solve_by_deformation call on the parent's clock into
set-up (from the call to the fork of the workers: truncation, start
system, compiles), fork (forking the workers), stream (submitting tasks and
reading, deduplicating and merging their results) and teardown (closing
and reaping the workers, and the rest of the call), and gives the workers'
summed task time and task count. The task functions (_slice_task,
_path_task) and _tasks are wrapped before the workers fork, so each task
times itself in its worker and its handle adds that time up in the parent.
The stream's share of the summed task time per worker shows how much of
a solve is dispatch and parent work rather than tracking:

    PYTHONPATH=src python3 scripts/solve_times.py --system data/rr_dyad.sys --degrees 3,3,2,2 --seeds 0-15
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
from pathlib import Path
from time import perf_counter

from expcert import homotopy
from expcert.homotopy import HomotopyConfig, solve_by_deformation
from expcert.sysio import parse_system
from solve_sweep import degree_list, seed_range

marks: dict = {}


def timed_task(fn):
    """fn, returning (its result, its time) from the worker that runs it.

    functools.wraps keeps fn's module and name, and the wrapper replaces fn
    in the module, so a task still pickles by reference and unpickles in a
    worker as the wrapper it inherited."""

    @functools.wraps(fn)
    def run(shared, task):
        start = perf_counter()
        out = fn(shared, task)
        return out, perf_counter() - start

    return run


def timed_tasks(tasks):
    """tasks (homotopy._tasks), marking the fork and the stream's end on
    the parent's clock, with handles that unwrap each timed result and add
    its time to marks["task_s"]."""

    @contextlib.contextmanager
    def run(shared, count):
        marks["enter"], marks["count"] = perf_counter(), count
        with tasks(shared, count) as submit:
            marks["forked"] = perf_counter()

            def timed_submit(fn, task):
                handle = submit(fn, task)

                def get():
                    out, seconds = handle()
                    marks["task_s"] += seconds
                    marks["tasks"] += 1
                    return out

                return get

            yield timed_submit
            marks["streamed"] = perf_counter()

    return run


def times_line(F, degrees, seed: int) -> dict:
    marks.update(task_s=0.0, tasks=0)
    start = perf_counter()
    out = solve_by_deformation(F, degrees, HomotopyConfig(seed=seed))
    end = perf_counter()
    return {
        "seed": seed,
        "workers": min(homotopy._worker_count(), marks["count"]),
        "candidates": len(out.candidates),
        "setup_s": round(marks["enter"] - start, 4),
        "fork_s": round(marks["forked"] - marks["enter"], 4),
        "stream_s": round(marks["streamed"] - marks["forked"], 4),
        "teardown_s": round(end - marks["streamed"], 4),
        "task_s": round(marks["task_s"], 4),
        "tasks": marks["tasks"],
        "solve_s": round(end - start, 4),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--system", required=True, help="system file")
    parser.add_argument("--degrees", type=degree_list, default=(), help="e.g. 3,3,2,2")
    parser.add_argument("--seeds", type=seed_range, default=range(1), help="e.g. 0-15")
    args = parser.parse_args()

    F = parse_system(Path(args.system).read_text(encoding="utf-8"))
    homotopy._slice_task = timed_task(homotopy._slice_task)
    homotopy._path_task = timed_task(homotopy._path_task)
    homotopy._tasks = timed_tasks(homotopy._tasks)
    for seed in args.seeds:
        print(json.dumps(times_line(F, args.degrees, seed)), flush=True)


if __name__ == "__main__":
    main()
