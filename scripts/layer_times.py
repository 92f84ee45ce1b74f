"""Time the Newton step's and the certificate's layers in-process, one JSON line per run.

For each data/* stem and precision, the stem's first point is refined
twice, and then each layer is called on it repeatedly: value_and_jacobian
(the mpc program), solve_columns (the elimination of one Newton step),
newton_direction (both, plus the step's norm) and certify_solution.
refine_and_certify is the per-point work of `certify --refine 2` on the
unrefined point: two Newton steps (newton_iterate) and the certificate at
the point they reach. The linked stems certify on the double-precision
bound of their exact core, the link-free rr_dyad_poly by the fraction-free
solve, so the stems cover both certificate routes.

rr_dyad_poly and compliant also get one rational line each: the exact
route at the stem's first point refined once in float and read exactly,
at 128 bits on rr_dyad_poly (4 x 4) and at 64 bits on compliant's Taylor
truncation at the degrees of EXACT_CASES (11 x 11, with the truncated
link rows), as the benchmark's exact workload writes its points. It
times fraction_free_solve (solve_fraction_free of J X = [F(z) | I] on a
copy of the core's rows, plus norm_sq_parts), the exact newton_direction
and the rational certify_solution.

Each line gives the best single-call time of each layer over --repeat
calls, in milliseconds. Running it against two versions of the package,
alternately, compares them layer by layer:

    PYTHONPATH=src python3 scripts/layer_times.py
    PYTHONPATH=src python3 scripts/layer_times.py --stems compliant --bits 96 --repeat 50
    PYTHONPATH=src python3 scripts/layer_times.py --stems rr_dyad_poly,compliant --bits "" --repeat 50
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from time import perf_counter

from expcert.certify import certify_solution
from expcert.expsystems import exact_core, fraction_free_rows, value_and_jacobian
from expcert.homotopy import taylor_truncate
from expcert.linalg import solve_columns, solve_fraction_free
from expcert.refine import newton_direction, newton_iterate, newton_refine
from expcert.scalars import (
    MODE_FLOAT,
    MODE_RATIONAL,
    ExactComplex,
    PrecisionConfig,
    mpf_to_fraction,
    working_precision,
)
from expcert.sysio import parse_points, parse_system

DATA = Path(__file__).resolve().parent.parent / "data"
PRECISIONS = (96, 256, 1024)
# The stems with a rational line: the per-link truncation degrees of each
# (None: link-free, certified as it is) and the bits of its point.
EXACT_CASES = {"rr_dyad_poly": (None, 128), "compliant": ((9, 7, 5, 3, 8, 4), 64)}


def best_ms(fn, repeat: int) -> float:
    """The fastest of `repeat` calls of fn, after one call that warms caches."""
    fn()
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return round(best * 1e3, 4)


def layer_line(stem: str, bits: int, repeat: int) -> dict:
    F = parse_system((DATA / f"{stem}.sys").read_text(encoding="utf-8"))
    point = parse_points((DATA / f"{stem}.pts").read_text(encoding="utf-8")).points[0]
    prec = PrecisionConfig(MODE_FLOAT, bits)
    z = newton_iterate(F, point, 2, prec)[0]
    residual, J = value_and_jacobian(F, z, prec)
    rhs = tuple((v,) for v in residual)
    line = {"stem": stem, "bits": bits, "repeat": repeat}
    with working_precision(bits):  # as newton_iterate runs both
        line["value_and_jacobian_ms"] = best_ms(lambda: value_and_jacobian(F, z, prec), repeat)
        line["solve_columns_ms"] = best_ms(lambda: solve_columns(J, rhs, bits), repeat)
        line["newton_direction_ms"] = best_ms(lambda: newton_direction(F, z, prec), repeat)
    line["certify_solution_ms"] = best_ms(lambda: certify_solution(F, z, prec), repeat)
    line["refine_and_certify_ms"] = best_ms(
        lambda: certify_solution(F, newton_iterate(F, point, 2, prec)[0], prec), repeat)
    return line


def exact_line(stem: str, repeat: int) -> dict:
    F = parse_system((DATA / f"{stem}.sys").read_text(encoding="utf-8"))
    point = parse_points((DATA / f"{stem}.pts").read_text(encoding="utf-8")).points[0]
    degrees, bits = EXACT_CASES[stem]
    if degrees is not None:
        F = taylor_truncate(F, degrees)
    dyadic = newton_refine(F, point, 1, PrecisionConfig(MODE_FLOAT, bits))[0]
    point = tuple(ExactComplex(mpf_to_fraction(v.real), mpf_to_fraction(v.imag)) for v in dyadic)
    prec = PrecisionConfig(MODE_RATIONAL, 64)
    rows, scales = fraction_free_rows(exact_core(F, point, prec), inverse=True)
    line = {"stem": stem, "mode": "rational", "degrees": degrees, "bits": bits, "repeat": repeat}
    line["fraction_free_solve_ms"] = best_ms(
        lambda: solve_fraction_free([list(row) for row in rows], scales).norm_sq_parts(), repeat)
    line["newton_direction_ms"] = best_ms(lambda: newton_direction(F, point, prec), repeat)
    line["certify_solution_ms"] = best_ms(lambda: certify_solution(F, point, prec), repeat)
    return line


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    stems = sorted(p.stem for p in DATA.glob("*.sys"))
    parser.add_argument("--stems", default=",".join(stems), help="comma-separated data stems")
    parser.add_argument("--bits", default=",".join(map(str, PRECISIONS)),
                        help="comma-separated float precisions")
    parser.add_argument("--repeat", type=int, default=20, help="calls per layer, best one kept")
    args = parser.parse_args()
    for stem in filter(None, args.stems.split(",")):
        for bits in (int(b) for b in args.bits.split(",") if b.strip()):
            print(json.dumps(layer_line(stem, bits, args.repeat)), flush=True)
        if stem in EXACT_CASES:
            print(json.dumps(exact_line(stem, args.repeat)), flush=True)


if __name__ == "__main__":
    main()
