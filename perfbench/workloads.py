"""Seeded input generation for the three benchmark workloads.

Every input the program sees is written here: system files (re-serialized
from the shipped examples or built by Taylor truncation) and points files
(seeded perturbations or refinements of planted roots). A workload is a
fixed job list; the same workload name and seed always give the same files
and the same command lines.

Planted roots are the shipped reference points refined by Newton's method
at ROOT_BITS bits. Each generated point remembers the root it was planted
at, which is what the output checks compare the program's distinct-set and
realness verdicts against.

Where a known program defect makes the first planned form of some jobs
fail, the job list uses another form, and a probe runs the planned form
once, outside the job list, and returns a note saying what it did
(Workload.notes): defect_probe for certify-exact, refine_probe for
certify-float.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import checks
import mpmath as mp

from expcert import cli
from expcert.certify import ALPHA_STAR, certify_solution
from expcert.homotopy import taylor_truncate
from expcert.refine import newton_refine
from expcert.scalars import PrecisionConfig, exact_to_mpc, working_precision
from expcert.sysio import parse_points, parse_system, serialize_points, serialize_system

WORKLOADS = ("certify-float", "certify-exact", "solve")

ROOT_BITS = 320
ROOT_SEARCH_BITS = 128
ROOT_SEARCH_STEPS = 10
ROOT_POLISH_STEPS = 4

# Perturbation bands, in decades relative to ALPHA_STAR / gamma at the root:
# "tight" points certify with a wide margin, "edge" points sit just under
# the threshold (certified, often with an undecided realness), "far" points
# miss it by up to a factor of 30 but stay inside Newton's basin.
BANDS = {"tight": (-6.0, -2.0), "edge": (-1.2, -0.3), "far": (0.5, 1.5)}

# certify-float: (precision, refine steps, audit); each flag is on for half.
# At 96 bits refine takes one step, not two, because of a program defect:
# two steps bring tight points to the 96-bit noise floor, where float-mode
# beta understates the distance to the root (1.3e-28 against 1.3e-27 at
# 320 bits) and `--distinct` can put points of one root in different sets
# (seed 209, compliant_alt). refine_probe reruns those jobs with two steps.
FLOAT_FLAGS = ((96, 0, False), (96, 1, True), (256, 0, True), (256, 2, False))
FLOAT_PROBE_BITS, FLOAT_PROBE_REFINE = 96, 2
FLOAT_SYSTEMS = {
    # stem: (bands per job, extra CLI flags)
    "compliant": (("tight", "tight", "tight", "edge", "edge", "far"), ()),
    "compliant_alt": (("tight", "tight", "tight", "edge", "edge", "far"), ()),
    "rr_dyad": (("tight",) * 4 + ("edge", "edge", "far", "far"), ()),
    "rr_dyad_euler": (("tight",) * 4 + ("edge", "edge", "far", "far"), ("--assume-real-map",)),
}

EXACT_ARM_JOBS = 2
EXACT_ARM_BANDS = ("tight",) * 4 + ("edge", "edge", "far", "far")
# Per-link truncation degrees 3..9 from a seeded Latin design over three
# strata: each truncation takes every stratum twice, with two different
# degrees of it (so its degrees are 3, 4, 8, 9 and two of 5, 6, 7), and
# each link takes every stratum once, so the cost of a truncation varies
# little from seed to seed while the degree of each link does.
EXACT_DEGREE_STRATA = ((3, 4), (5, 6, 7), (8, 9))
EXACT_ROW_TRIES = 2
EXACT_DESIGN_TRIES = 20
EXACT_TRUNCATION_JOBS = 2
# Each truncation job holds its root refined once in float at
# EXACT_POINT_BITS and real tight, edge and far perturbations of it, all
# written at EXACT_POINT_BITS. Higher precisions are left out because of a
# program defect: `certify --mode rational` raises ValueError in
# sysio.report_to_dict when an exact squared quantity of the report has
# more than Python's 4300 decimal digits for int-to-str. Those digits grow
# with degree times point bits (degree 9 in every link: about 2800 at 64
# bits, 5400 at 128, 10800 at 256) and double for complex coordinates, so
# the points are real and at 64 bits. defect_probe shows the defect on
# every run.
EXACT_POINT_BITS = 64
EXACT_TRUNCATION_BANDS = ("tight", "edge", "far")
DEFECT_PROBE_BITS = 256

SOLVE_ARM_JOBS = 16
SOLVE_ARM_DEGREES = (3, 3, 2, 2)
SOLVE_COMPLIANT_DEGREES = (2, 2, 2, 2, 2, 2)
SOLVE_COMPLIANT_JOBS = 2
SOLVE_CERTIFY_BITS = 192


@dataclass(frozen=True)
class Job:
    """One closed-loop request: one CLI run (certify) or two (solve, certify)."""

    name: str
    argv: tuple
    report: Path
    points: int = 0  # points in the certified file; 0 for solve jobs
    roots: tuple = ()  # planted root index of every point
    root_real: tuple = ()  # whether each planted root is real
    certify_argv: tuple = ()  # solve jobs: certify the written candidates
    ledger: Path | None = None
    expected_slices: tuple | None = None  # (factor selections, slice-stage paths)


@dataclass(frozen=True)
class Workload:
    jobs: tuple
    input_files: tuple  # every file the jobs read, for the set-up probe
    notes: tuple = ()  # known program defects, found outside the job list


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _write_system(F, path: Path) -> Path:
    path.write_text(serialize_system(F), encoding="utf-8")
    return path


def _is_real(z) -> bool:
    return all(abs(v.imag) <= mp.mpf(2) ** (-ROOT_BITS // 2) for v in z)


def _distance(a, b):
    return mp.sqrt(sum(abs(x - y) ** 2 for x, y in zip(a, b)))


def planted_roots(F, refs):
    """Refine each reference point to a root; drop failures and duplicates.

    Returns (root, gamma) pairs; gamma is the curvature bound at the root,
    which scales the perturbation bands.
    """
    search = PrecisionConfig("float", ROOT_SEARCH_BITS)
    fine = PrecisionConfig("float", ROOT_BITS)
    out = []
    for ref in refs:
        z, table = newton_refine(F, ref, ROOT_SEARCH_STEPS, search)
        if table.singular_at is not None:
            continue
        z, table = newton_refine(F, z, ROOT_POLISH_STEPS, fine)
        with working_precision(ROOT_BITS):
            if table.singular_at is not None or not table.rows[-1][1] < mp.mpf(2) ** (-ROOT_BITS):
                continue
            if any(_distance(z, r) < mp.mpf(10) ** -20 for r, _ in out):
                continue
        cert = certify_solution(F, z, fine)
        if not cert.jacobian_invertible:
            continue
        with working_precision(ROOT_BITS):
            out.append((z, mp.sqrt(cert.gamma_bound_sq)))
    return out


def _direction(rng: random.Random, n: int, real: bool):
    """Unit vector with Gaussian entries, purely real when asked."""
    v = [complex(rng.gauss(0, 1), 0 if real else rng.gauss(0, 1)) for _ in range(n)]
    s = math.sqrt(sum(abs(c) ** 2 for c in v))
    return [c / s for c in v]


def perturbed_points(rng: random.Random, roots, bands, bits: int, reals=None):
    """One point per band entry, cycling over the planted roots.

    Returns (points, root index per point). reals[k] says whether point k
    is moved along a real direction, which only a real root allows; by
    default half the points are, in seeded order. Complex coordinates make
    exact arithmetic several times dearer, so the share is fixed rather
    than drawn.
    """
    order = list(range(len(roots)))
    rng.shuffle(order)
    if reals is None:
        reals = [k % 2 == 0 for k in range(len(bands))]
        rng.shuffle(reals)
    points, owners = [], []
    with working_precision(bits):
        for k, band in enumerate(bands):
            idx = order[k % len(order)]
            root, gamma = roots[idx]
            lo, hi = BANDS[band]
            scale = mp.mpf(ALPHA_STAR.numerator) / ALPHA_STAR.denominator / gamma
            scale *= mp.mpf(10) ** rng.uniform(lo, hi)
            real = _is_real(root) and reals[k]
            d = _direction(rng, len(root), real)
            points.append(tuple(v + scale * mp.mpc(c) for v, c in zip(root, d)))
            owners.append(idx)
    return points, owners


def _certify_job(name, system, pts_path, report, points, owners, roots, mode, extra):
    pts_path.write_text(serialize_points(points, mode), encoding="utf-8")
    argv = ("certify", "--system", str(system), "--points", str(pts_path),
            "--mode", mode, "--distinct", "--real", *extra, "--output", str(report))
    return Job(
        name=name,
        argv=argv,
        report=report,
        points=len(points),
        roots=tuple(owners),
        root_real=tuple(_is_real(r) for r, _ in roots),
    )


def _reference(data: Path, stem: str):
    return parse_system(_read(data / f"{stem}.sys")), parse_points(_read(data / f"{stem}.pts")).points


def build_certify_float(rng, data: Path, work: Path):
    jobs, probed = [], []
    for stem, (bands, extra) in FLOAT_SYSTEMS.items():
        F, refs = _reference(data, stem)
        refs = list(refs)
        if stem == "rr_dyad":
            # The sin/cos arm is 2*pi-periodic in each angle, which gives a
            # third real root one turn away from the first.
            with working_precision(ROOT_BITS):
                refs.append((exact_to_mpc(refs[0][0], ROOT_BITS) + 2 * mp.pi,) + tuple(refs[0][1:]))
        roots = planted_roots(F, refs)
        system = _write_system(F, work / f"{stem}.sys")
        for bits, refine, audit in FLOAT_FLAGS:
            tag = f"{stem}-p{bits}-r{refine}{'-audit' if audit else ''}"
            points, owners = perturbed_points(rng, roots, bands, bits + 64)
            flags = ("--precision", str(bits), "--refine", str(refine), *extra)
            if audit:
                flags += ("--audit",)
            jobs.append(_certify_job(
                tag, system, work / f"{tag}.pts", work / f"{tag}.json",
                points, owners, roots, "float", flags,
            ))
            if bits == FLOAT_PROBE_BITS and refine:
                probed.append(jobs[-1])
    return jobs, (refine_probe(probed),)


def refine_probe(jobs) -> str:
    """Rerun refine jobs with FLOAT_PROBE_REFINE steps, outside the job list.

    Returns a note: the output checks that fail, or that they pass at this
    seed.
    """
    failed = []
    for job in jobs:
        argv = list(job.argv)
        argv[argv.index("--refine") + 1] = str(FLOAT_PROBE_REFINE)
        report = job.report.with_suffix(".probe.json")
        argv[argv.index("--output") + 1] = str(report)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - reported in the note
            failed.append(f"{job.name}: {type(exc).__name__}: {exc}")
            continue
        outcome = checks.check_certify(replace(job, report=report), [code])
        failed += [f"{job.name}: {p}" for p in outcome.problems]
    where = (f"`--precision {FLOAT_PROBE_BITS} --refine {FLOAT_PROBE_REFINE}` on the "
             f"{len(jobs)} jobs run with one step")
    if failed:
        return f"known defect, not in the job list: {where} fails: " + "; ".join(failed)
    return f"{where} passes the output checks at this seed"


def _refined_points(F, root, bits_list):
    """The root refined once at each given precision, so rounded to dyadics."""
    return [newton_refine(F, root, 1, PrecisionConfig("float", bits))[0] for bits in bits_list]


def _truncations(rng, G, refs):
    """(degrees, system, planted roots) of each truncation of a Latin design.

    Each truncation keeps one planted root: Newton from the second
    reference point lands on a root for some degrees and not for others,
    which would make the distinct count depend on the draw. Some designs
    leave a truncation with no root near the references at all (low
    degrees on both sine links of the first two angles, for one); such a
    design is drawn again, by the seed alone.
    """
    k = len(EXACT_DEGREE_STRATA)
    for _ in range(EXACT_DESIGN_TRIES):
        links = rng.sample(range(G.m), G.m)
        design = [[EXACT_DEGREE_STRATA[(links[i] + shift) % k] for i in range(G.m)]
                  for shift in rng.sample(range(k), k)]
        out = []
        for row in design:
            for _ in range(EXACT_ROW_TRIES):
                degrees = [0] * G.m
                for stratum in EXACT_DEGREE_STRATA:
                    links_in = [i for i in range(G.m) if row[i] == stratum]
                    for i, d in zip(links_in, rng.sample(stratum, len(links_in))):
                        degrees[i] = d
                degrees = tuple(degrees)
                T = taylor_truncate(G, degrees)
                roots = planted_roots(T, refs)[:1]
                if roots:
                    out.append((degrees, T, roots))
                    break
            else:
                break
        if len(out) == k:
            return out
    raise RuntimeError("no design of truncation degrees left every truncation a planted root")


def defect_probe(system: Path, T, root, work: Path) -> str:
    """Certify the root at DEFECT_PROBE_BITS in rational mode, outside the job list.

    Returns a note: the error the report raises, or that the defect behind
    EXACT_POINT_BITS is gone and the points may return to 64-256 bits.
    """
    pts = work / "defect-probe.pts"
    pts.write_text(serialize_points(_refined_points(T, root, [DEFECT_PROBE_BITS]), "rational"),
                   encoding="utf-8")
    argv = ["certify", "--system", str(system), "--points", str(pts), "--mode", "rational",
            "--output", str(work / "defect-probe.json")]
    where = f"`expcert certify --mode rational` of {system.stem} at {DEFECT_PROBE_BITS} bits"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - the defect being probed
        return f"known defect, not in the job list: {where} raises {type(exc).__name__}: {exc}"
    return f"defect gone: {where} exits {code}; points above {EXACT_POINT_BITS} bits may return"


def build_certify_exact(rng, data: Path, work: Path):
    jobs = []
    F, refs = _reference(data, "rr_dyad_poly")
    roots = planted_roots(F, refs)
    system = _write_system(F, work / "rr_dyad_poly.sys")
    for j in range(EXACT_ARM_JOBS):
        tag = f"rr_dyad_poly-{j}"
        points, owners = perturbed_points(rng, roots, EXACT_ARM_BANDS, 128)
        jobs.append(_certify_job(
            tag, system, work / f"{tag}.pts", work / f"{tag}.json",
            points, owners, roots, "rational", (),
        ))

    G, refs = _reference(data, "compliant")
    notes = []
    for degrees, T, roots in _truncations(rng, G, refs):
        stem = "compliant-T" + "".join(str(d) for d in degrees)
        system = _write_system(T, work / f"{stem}.sys")
        if not notes:
            notes.append(defect_probe(system, T, roots[0][0], work))
        near = _refined_points(T, roots[0][0], [EXACT_POINT_BITS])
        bands = EXACT_TRUNCATION_BANDS
        for j in range(EXACT_TRUNCATION_JOBS):
            tag = f"{stem}-{j}"
            points, _ = perturbed_points(rng, roots, bands, EXACT_POINT_BITS, [True] * len(bands))
            if not all(_is_real(z) for z in near + points):
                raise RuntimeError(f"{stem}: planted root is not real")
            jobs.append(_certify_job(
                tag, system, work / f"{tag}.pts", work / f"{tag}.json",
                near + points, [0] * (len(bands) + 1), roots, "rational", (),
            ))
    return jobs, tuple(notes)


def _source_degree(kind: str, degree: int) -> int:
    """Degree in the source variable of a link row truncated at `degree`."""
    if kind in ("sin", "sinh"):
        top = degree if degree % 2 else degree - 1
    elif kind in ("cos", "cosh"):
        top = degree if degree % 2 == 0 else degree - 1
    else:
        top = degree
    return max(1, top)


def expected_slices(F, degrees):
    """(factor selections, slice-stage path outcomes) implied by the degrees.

    Re-derived here from the linear-product construction, independently of
    the solver: selection 1 of a link makes its target an affine function
    of its source, any later selection pins the source. Each head row's
    degree over the free variables is read off its exponents; a constant
    row or a non-square restriction drops the slice, a zero-dimensional one
    logs a single outcome, and any other tracks one path per root of its
    total-degree start system.
    """
    links = F.links
    counts = [_source_degree(l.kind.value, d) for l, d in zip(links, degrees)]
    selections = []
    for nu in itertools.product(*[range(1, r + 1) for r in counts]):
        clash = any(
            links[i].src == links[j].src and nu[i] > 1 and nu[j] > 1
            for i in range(len(links)) for j in range(i + 1, len(links))
        )
        if not clash:
            selections.append(nu)
    paths = 0
    for nu in selections:
        pinned = {l.src - 1 for l, k in zip(links, nu) if k > 1}
        affine = {l.dst - 1: l.src - 1 for l, k in zip(links, nu) if k == 1}
        free = [v for v in range(F.N) if v not in pinned and v not in affine]
        weight = [0 if v in pinned else 1 for v in range(F.N)]
        for v, s in affine.items():
            weight[v] = weight[s]
        row_degrees = [
            max(sum(e * w for e, w in zip(mono.exponents, weight)) for _, mono in p.terms)
            for p in F.P.polys
        ]
        if any(d == 0 for d in row_degrees) or len(row_degrees) != len(free):
            continue
        paths += math.prod(row_degrees) if free else 1
    return len(selections), paths


def build_solve(rng, data: Path, work: Path):
    plan = [("rr_dyad", SOLVE_ARM_DEGREES, rng.randrange(10**6)) for _ in range(SOLVE_ARM_JOBS)]
    plan += [("compliant", SOLVE_COMPLIANT_DEGREES, rng.randrange(10**6))
             for _ in range(SOLVE_COMPLIANT_JOBS)]
    systems = {}
    jobs = []
    for stem, degrees, sub_seed in plan:
        if stem not in systems:
            F = parse_system(_read(data / f"{stem}.sys"))
            systems[stem] = (F, _write_system(F, work / f"{stem}.sys"))
        F, system = systems[stem]
        tag = f"{stem}-s{sub_seed}"
        cand = work / f"{tag}.pts"
        report = work / f"{tag}.json"
        jobs.append(Job(
            name=tag,
            argv=("solve", "--system", str(system),
                  "--truncate-degrees", ",".join(str(d) for d in degrees),
                  "--seed", str(sub_seed), "--output", str(cand)),
            report=report,
            certify_argv=("certify", "--system", str(system), "--points", str(cand),
                          "--precision", str(SOLVE_CERTIFY_BITS), "--distinct", "--real",
                          "--output", str(report)),
            ledger=Path(str(cand) + ".ledger"),
            expected_slices=expected_slices(F, degrees),
        ))
    return jobs, ()


def build(name: str, seed: int, data: Path, work: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` under `work`."""
    builders = {
        "certify-float": build_certify_float,
        "certify-exact": build_certify_exact,
        "solve": build_solve,
    }
    rng = random.Random(f"{name}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    jobs, notes = builders[name](rng, data, work)
    if name != "solve":
        # Interleave systems so no pass ends with a run of one kind.
        rng.shuffle(jobs)
    inputs = []
    for job in jobs:
        for flag in ("--system", "--points"):
            if flag in job.argv:
                path = job.argv[job.argv.index(flag) + 1]
                if path not in inputs:
                    inputs.append(path)
    return Workload(tuple(jobs), tuple(inputs), notes)
