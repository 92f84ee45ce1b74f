"""Time the float Newton step's layers in-process, one JSON line per stem and precision.

For each data/* stem and precision, the stem's first point is refined
twice, and then each layer is called on it repeatedly: value_and_jacobian
(the mpc program), solve_columns (the elimination of one Newton step),
newton_direction (both, plus the step's norm) and certify_solution.
refine_and_certify is the per-point work of `certify --refine 2` on the
unrefined point: two Newton steps (newton_iterate) and the certificate at
the point they reach. The linked stems certify on the double-precision
bound of their exact core, the link-free rr_dyad_poly by the fraction-free
solve, so the stems cover both certificate routes. Each line gives the
best single-call time of each layer over --repeat calls, in milliseconds.
Running it against two versions of the package, alternately, compares
them layer by layer:

    PYTHONPATH=src python3 scripts/layer_times.py
    PYTHONPATH=src python3 scripts/layer_times.py --stems compliant --bits 96 --repeat 50
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from time import perf_counter

from expcert.certify import certify_solution
from expcert.expsystems import value_and_jacobian
from expcert.linalg import solve_columns
from expcert.refine import newton_direction, newton_iterate
from expcert.scalars import MODE_FLOAT, PrecisionConfig, working_precision
from expcert.sysio import parse_points, parse_system

DATA = Path(__file__).resolve().parent.parent / "data"
PRECISIONS = (96, 256, 1024)


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


if __name__ == "__main__":
    main()
