"""Benchmark for expcert: seeded workloads, closed loop, checked outputs.

    python3 perfbench/run.py --workload certify-float --seed 0 --seconds 28 --trace 0

Run from the repository root. The benchmark writes each workload's inputs
from the seed (workloads.py), then runs the job list in-process through
expcert.cli.main(argv) as one closed loop with one client: the next job
starts when the previous one returns. The list is repeated, one pass after
another, until --seconds have gone by; every job's outputs are checked
(checks.py) and every rerun must reproduce its report and ledger. Every
reported time is scaled to the machine's reference speed (speed.py).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced passes (tracing.py), writes the spans, and prints the
per-layer metrics and the tracing overhead (median traced pass minus
median untraced pass). Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Everything the run writes goes under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT = ROOT / ".perfbench_out"
# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_REPS = 15
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10

# Functions whose calls and self time are reported per pass.
KEY_FUNCTIONS = (
    "cli.main", "cli.run_certify", "cli.run_solve",
    "sysio.parse_system", "sysio.parse_points", "sysio.report_to_dict",
    "sysio.report_to_json", "sysio.serialize_points",
    "certify.certify_solution", "certify.certify_batch", "certify.certify_distinct",
    "certify.certify_real", "certify.same_root", "certify.beta_sq", "certify.newton_step",
    "refine.newton_refine",
    "expsystems.evaluate_exp", "expsystems.jacobian_exp", "expsystems.mu_exp_sq",
    "expsystems.gamma_bound_exp", "expsystems.link_bound_term",
    "polynomials.evaluate", "polynomials.jacobian", "polynomials.gamma_bound_poly_sq",
    "polynomials.bw_norm_sq",
    "linalg.solve_vector", "linalg.solve_columns", "linalg.invert",
    "homotopy.track_path", "homotopy.solve_by_deformation",
    "homotopy.taylor_truncate", "homotopy.linear_product_start",
)
# Functions that delegate to other wrapped functions: their inclusive time.
TOTAL_FUNCTIONS = (
    "certify.certify_solution", "refine.newton_refine", "linalg.solve_vector", "linalg.invert",
)
LAYERS = ("cli", "sysio", "certify", "refine", "expsystems", "polynomials", "linalg", "homotopy")
STAGES = {
    "slice-continuation": "slice",
    "product-to-truncated": "product",
    "truncated-to-target": "target",
}


@dataclass
class JobRun:
    index: int
    latency: float  # measured seconds
    outcome: object
    scale: float = 1.0  # to the reference speed (speed.py)

    @property
    def seconds(self) -> float:
        """The latency at the machine's reference speed."""
        return self.latency * self.scale


@dataclass
class Pass:
    runs: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.runs)


def machine_facts(seed: int) -> dict:
    import mpmath.libmp

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "expcert_threads": os.environ.get("EXPCERT_THREADS"),
        "seed": seed,
    }


def build_inputs(workloads, name: str, seed: int, work: Path):
    """Write the workload's inputs in a forked child and return its job list.

    Generation refines planted roots at high precision; doing it in a child
    keeps its memory out of this process's peak RSS, which is the jobs' own.
    """
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        return pool.apply(workloads.build, (name, seed, DATA, work))
    finally:
        pool.close()
        pool.join()


class SetupProbe:
    """Set-up time of fresh interpreters: import expcert, parse the inputs.

    The probes are spread evenly over the measured time, between jobs, so
    that their median covers the whole run rather than one moment of it.
    """

    def __init__(self, files, reps: int):
        self.files, self.reps = files, reps
        self.times, self.measured = [], []  # at the reference speed; as measured

    def probe(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *self.files],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        secs, loop = map(float, proc.stdout.split()[-2:])
        self.measured.append(secs)
        self.times.append(secs * speed.REF_LOOP_S / loop)

    def due(self, fraction: float) -> bool:
        """Probe until the share of probes taken reaches the share of time gone."""
        probed = False
        while len(self.times) < min(self.reps, fraction * self.reps):
            self.probe()
            probed = True
        return probed

    def finish(self) -> None:
        self.due(1.0)


class Runner:
    """Runs jobs through the CLI entry point and checks what they wrote."""

    def __init__(self, cli, checks, jobs, setup=None):
        self.cli, self.checks, self.jobs, self.setup = cli, checks, jobs, setup
        self.fingerprints = {}
        self.tracer = None
        self.began = self.deadline = None

    def run(self, index: int) -> JobRun:
        job = self.jobs[index]
        if self.tracer is not None:
            self.tracer.job = index
        codes = []
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(self.cli.main(list(job.argv)))
                if job.certify_argv:
                    codes.append(self.cli.main(list(job.certify_argv)))
        except (Exception, SystemExit):  # noqa: BLE001 - a crashed job is a failed job
            latency = perf_counter() - start
            outcome = self.checks.Outcome(problems=[traceback.format_exc(limit=4)])
            # A certify job that raised still attempted its points.
            outcome.points = 0 if job.certify_argv else job.points
            return JobRun(index, latency, outcome)
        latency = perf_counter() - start
        outcome = self.checks.check(job, codes)
        first = self.fingerprints.setdefault(index, outcome.fingerprint)
        if outcome.ok and first != outcome.fingerprint:
            outcome.problems.append("rerun did not reproduce the report or ledger")
        return JobRun(index, latency, outcome)

    def one_pass(self) -> Pass:
        """The job list once, each job scaled by the speed loop timed around and during it."""
        runs, before = [], None
        for i in range(len(self.jobs)):
            if self.setup is not None:
                elapsed = perf_counter() - self.began
                if self.setup.due(elapsed / (self.deadline - self.began)):
                    before = None
            if before is None:
                before = speed.loop_seconds()
            with speed.Sampler() as sampler:
                run = self.run(i)
            after = speed.loop_seconds()
            run.scale = speed.REF_LOOP_S / statistics.median([before, after, *sampler.samples])
            runs.append(run)
            before = after
        return Pass(runs)

    def start(self, seconds: float) -> None:
        self.began = perf_counter()
        self.deadline = self.began + seconds

    def passes(self) -> list:
        """Whole passes over the job list, at least one, until the deadline."""
        done = []
        while not done or perf_counter() < self.deadline:
            done.append(self.one_pass())
        return done

    def traced_passes(self, tracer, package) -> tuple:
        """Alternate untraced and traced passes, at least one pair, until the deadline."""
        self.tracer = tracer
        untraced, traced = [], []
        while not traced or perf_counter() < self.deadline:
            untraced.append(self.one_pass())
            tracer.install(package)
            try:
                traced.append(self.one_pass())
            finally:
                tracer.uninstall()
        return untraced, traced


def per_job_medians(passes, key=lambda r: r.seconds) -> list:
    """Each job's median latency over the passes (by default scaled), in list order."""
    return [statistics.median(v) for v in zip(*[[key(r) for r in p.runs] for p in passes])]


def tail(latencies) -> tuple:
    """(value, percentile, rule) over one latency per job of the list.

    The highest percentile with TAIL_BEYOND jobs beyond it is the
    (TAIL_BEYOND + 1)-th slowest job. Below 2 * TAIL_BEYOND jobs it would
    not exceed the median, and the slowest job is reported instead. Either
    way the value depends on the job list only, not on the pass count.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n < 2 * TAIL_BEYOND:
        return lat[-1], 100.0, "slowest job"
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, f"{TAIL_BEYOND + 1}th slowest job"


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> tuple:
    per_job = per_job_medians(passes)
    wall = sum(per_job)
    tail_s, tail_pct, tail_rule = tail(per_job)
    first = passes[0].runs
    points = sum(r.outcome.points for r in first)
    certified = sum(r.outcome.certified for r in first)
    distinct = sum(r.outcome.distinct for r in first)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "job_s_p50": statistics.median(per_job),
        "job_s_tail": tail_s,
        "points_per_s": points / wall,
        "solutions_per_s": distinct / wall,
        "certified_count": certified,
        "distinct_count": distinct,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"tail_percentile": tail_pct, "tail_rule": tail_rule, "jobs_per_pass": len(per_job),
             "passes": len(passes), "points_per_pass": points,
             "measured_wall_s": sum(per_job_medians(passes, key=lambda r: r.latency)),
             "job_latencies_s": [[r.latency for r in p.runs] for p in passes],
             "job_scales": [[r.scale for r in p.runs] for p in passes]}
    return metrics, extra


def job_medians(passes, jobs) -> dict:
    """Median scaled job latency by command and system file, in seconds."""
    groups = {}
    for p in passes:
        for r in p.runs:
            argv = jobs[r.index].argv
            key = f"{argv[0]} {Path(argv[argv.index('--system') + 1]).stem}"
            groups.setdefault(key, []).append(r.seconds)
    return {k: statistics.median(v) for k, v in sorted(groups.items())}


def problem_summary(failed, jobs) -> list:
    """One line per distinct (job, last line of problem), with its count."""
    counts = {}
    for r in failed:
        for problem in r.outcome.problems:
            key = f"{jobs[r.index].name}: {problem.strip().splitlines()[-1]}"
            counts[key] = counts.get(key, 0) + 1
    return [f"{n}x {key}" for key, n in counts.items()]


def _median_ms(values) -> float:
    return 1000 * statistics.median(values) if values else 0.0


def per_layer(spans, traced, untraced, tracing) -> tuple:
    """Per-layer metrics, per pass over the job list, from spans and ledgers."""
    idx = tracing.SpanIndex(spans)
    table = idx.function_table()
    npass = len(traced)
    N, DUR = tracing.NAME, lambda s: s[tracing.END] - s[tracing.START]
    m = {}
    for fn in KEY_FUNCTIONS:
        calls, self_s, _ = table.get(fn, (0, 0.0, 0.0))
        m[f"{fn}.calls"] = calls / npass
        m[f"{fn}.s"] = self_s / npass
    for fn in TOTAL_FUNCTIONS:
        m[f"{fn}.total_s"] = table.get(fn, (0, 0.0, 0.0))[2] / npass
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v[1] for k, v in table.items() if k.startswith(layer + ".")) / npass

    def total(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[2] for n in names) / npass

    m["sysio.parse.s"] = total("sysio.parse_system", "sysio.parse_points")
    m["sysio.report.s"] = total("sysio.report_to_dict", "sysio.report_to_json",
                                "sysio.render_report_text")
    m["sysio.serialize.s"] = total("sysio.serialize_points", "sysio.serialize_system")

    certs = idx.named("certify.certify_solution")
    m["certify.certify_solution.ms_p50"] = _median_ms([DUR(s) for s in certs])
    in_batch = sum(DUR(s) for s in certs if idx.parent_name(s) == "certify.certify_batch")
    batch = sum(DUR(s) for s in idx.named("certify.certify_batch"))
    m["certify.batch_parallelism"] = in_batch / batch if batch else 0.0

    owners = ("certify.certify_solution", "refine.newton_refine")
    factorizations = solves_in_refine = 0
    for s in spans:
        if s[N] in ("linalg.solve_vector", "linalg.invert"):
            owner = idx.nearest(s, owners)
            if owner == "certify.certify_solution":
                factorizations += 1
            elif owner == "refine.newton_refine" and s[N] == "linalg.solve_vector":
                solves_in_refine += 1
    m["linalg.factorizations_per_point"] = factorizations / len(certs) if certs else 0.0
    steps_k = sum(s[tracing.PROBE][0] for s in idx.named("refine.newton_refine"))
    m["refine.solves_per_step"] = solves_in_refine / steps_k if steps_k else 0.0

    # Homotopy: path outcomes from the ledgers, stage times from the
    # track_path spans matched to their stage by the stage seed.
    stage_of = {}
    tracked = steps = candidates = 0
    paths = {"endpoint": 0, "diverged": 0, "failed": 0}
    for p in traced:
        for run in p.runs:
            ledger = run.outcome.ledger
            if not ledger:
                continue
            candidates += ledger["candidates"] or 0
            for name, seed, outcomes in ledger["stages"]:
                stage_of[(run.index, seed)] = STAGES.get(name)
                tracked += len(outcomes)
                for _, status, n in outcomes:
                    steps += n
                    paths[status] = paths.get(status, 0) + 1
    tracks = idx.named("homotopy.track_path")
    track_s = sum(DUR(s) for s in tracks)
    m["homotopy.steps"] = steps / npass
    m["homotopy.us_per_step"] = 1e6 * track_s / steps if steps else 0.0
    for status in ("endpoint", "diverged", "failed"):
        m[f"homotopy.paths.{status}"] = paths[status] / npass
    m["homotopy.failed_share"] = paths["failed"] / tracked if tracked else 0.0
    m["homotopy.useful_ratio"] = candidates / tracked if tracked else 0.0
    stage_s = {"slice": 0.0, "product": 0.0, "target": 0.0}
    for s in tracks:
        stage = stage_of.get((s[tracing.JOB], s[tracing.PROBE]))
        if stage:
            stage_s[stage] += DUR(s)
    for stage, secs in stage_s.items():
        m[f"homotopy.stage.{stage}.s"] = secs / npass
    polish = ("refine.newton_refine", "certify.certify_solution", "certify.same_root")
    start = ("homotopy.taylor_truncate", "homotopy.linear_product_start")
    under_solve = [s for s in spans if idx.parent_name(s) == "homotopy.solve_by_deformation"]
    m["homotopy.polish.s"] = sum(DUR(s) for s in under_solve if s[N] in polish) / npass
    m["homotopy.start.s"] = sum(DUR(s) for s in under_solve if s[N] in start) / npass

    plain = statistics.median(p.wall for p in untraced)
    with_trace = statistics.median(p.wall for p in traced)
    m["trace.overhead_s"] = with_trace - plain
    m["trace.overhead_share"] = (with_trace - plain) / plain
    m["trace.spans"] = len(spans) / npass
    return m, idx


def breakdown(idx, tracing, jobs) -> dict:
    """Median span times by system and precision, for reading against baselines."""
    groups = {}
    for s in idx.spans:
        if s[tracing.NAME] not in ("certify.certify_solution", "refine.newton_refine"):
            continue
        argv = jobs[s[tracing.JOB]].certify_argv or jobs[s[tracing.JOB]].argv
        stem = Path(argv[argv.index("--system") + 1]).stem
        fn = s[tracing.NAME].split(".")[1]
        probe = "/".join(str(v) for v in s[tracing.PROBE])
        groups.setdefault(f"{fn} {stem} {probe}", []).append(s[tracing.END] - s[tracing.START])
    return {k: {"ms_p50": _median_ms(v), "n": len(v)} for k, v in sorted(groups.items())}


def write_spans(path: Path, spans, jobs) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "job", "probe"],
                             "jobs": [j.name for j in jobs]}) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def digest(passes) -> str:
    h = hashlib.sha256()
    for run in passes[0].runs:
        for line in run.outcome.digest_lines:
            h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="expcert benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import expcert
        import expcert.cli
    except ImportError as exc:
        print(f"perfbench: cannot import expcert from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(expcert.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: expcert imported from {expcert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    wl = build_inputs(workloads, args.workload, args.seed, work / "inputs")
    facts = machine_facts(args.seed)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    # Traced runs do not probe set-up.
    setup = None if args.trace else SetupProbe(wl.input_files, SETUP_REPS)

    runner = Runner(expcert.cli, checks, wl.jobs, setup)
    warmup = runner.run(0)
    runner.start(args.seconds)
    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced = runner.traced_passes(tracer, expcert)
        passes = untraced + traced
    else:
        passes = runner.passes()
        setup.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    runs = [warmup] + [r for p in passes for r in p.runs]
    failed = [r for r in runs if not r.outcome.ok]
    result = {"workload": args.workload, "machine": facts, "verdict_digest": digest(passes),
              "attempted": len(runs), "failed": len(failed),
              "ops_failed_share": len(failed) / len(runs), "notes": list(wl.notes)}
    if args.trace:
        metrics, idx = per_layer(tracer.spans, traced, untraced, tracing)
        result["breakdown"] = breakdown(idx, tracing, wl.jobs)
        write_spans(work / "spans.jsonl.gz", tracer.spans, wl.jobs)
    else:
        metrics, extra = end_to_end(passes, statistics.median(setup.times), peak_rss_mb)
        result.update(extra)
        result["setup_probes_s"] = setup.times
        result["setup_probes_measured_s"] = setup.measured
        result["job_s_p50_by_system"] = job_medians(passes, wl.jobs)
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are not both "
              "computed and declared in BENCHMARK.json", file=sys.stderr)
        return 2
    result["metrics"] = metrics
    result["problems"] = problem_summary(failed, wl.jobs)
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(wl.jobs)} jobs per pass, {len(passes)} passes")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for key in ("verdict_digest", "ops_failed_share", "tail_rule", "tail_percentile",
                "jobs_per_pass", "measured_wall_s"):
        if key in result:
            print(f"{key} {result[key]}")
    for name, secs in result.get("job_s_p50_by_system", {}).items():
        print(f"job p50 {name}: {secs:.4g} s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, row in result.get("breakdown", {}).items():
        print(f"breakdown {name}: {row['ms_p50']:.2f} ms p50 over {row['n']}")
    for line in wl.notes:
        print(f"note {line}")
    for line in result["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
