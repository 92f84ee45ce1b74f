"""Command-line front end: certify point lists, generate candidates.

Two subcommands share the same system-file grammar:

    expcert certify --system g.sys --points x.pts --mode rational --distinct --real
    expcert solve --system G.sys --truncate-degrees 3,3,2,2 --seed 12 --output cand.pts

certify exits 0 when every point is certified, 1 when at least one is not,
and 2 on any input problem. solve writes a candidate points file that
certify can consume directly, a replayable run ledger next to it, and
prints a per-stage summary.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .certify import BatchOptions, certify_batch, certify_solution
from .errors import ExpcertError, ValidationError
from .homotopy import HomotopyConfig, solve_by_deformation
from .refine import ResidualTable, newton_iterate
from .scalars import MODE_FLOAT, MODE_RATIONAL, PrecisionConfig
from .sysio import (
    parse_points,
    parse_system,
    render_report_text,
    report_to_dict,
    report_to_json,
    serialize_points,
)

AUDIT_FLOOR_BITS = 1024
# The largest --precision (rr_dyad certifies in about 2 s at it). The audit's
# max(AUDIT_FLOOR_BITS, 2 * BITS) stays valid: PrecisionConfig has no upper bound.
MAX_PRECISION_BITS = 32768


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_writable(path: str) -> None:
    """Reject an output path that cannot be written, before any long work."""
    if os.path.isdir(path):
        raise ValidationError(f"output path is a directory: {path}")
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ValidationError(f"output directory does not exist: {folder}")
    if not os.access(folder, os.W_OK):
        raise ValidationError(f"output directory is not writable: {folder}")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _degree_list(raw: str) -> tuple:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {raw!r}")


def _bounded_int(low: int | None = None, high: int | None = None):
    """An argparse type: an integer within whichever bounds are given."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {raw!r}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return parse


_precision_bits = _bounded_int(high=MAX_PRECISION_BITS)


def run_certify(args) -> int:
    if args.output is not None:
        _check_writable(args.output)
    F = parse_system(_read_text(args.system))
    data = parse_points(_read_text(args.points))
    for i, p in enumerate(data.points):
        if len(p) != F.N:
            raise ValidationError(
                f"point {i} has {len(p)} coordinates, system needs {F.N}"
            )
    if args.mode == MODE_RATIONAL and F.m != 0:
        raise ValidationError(
            "rational mode requires a link-free polynomial system"
        )
    prec = PrecisionConfig(args.mode, args.precision)

    # --refine K takes K Newton steps per point (rows 0..K-1 of its table),
    # and row K is the beta^2 of the point's certificate: one linearization
    # at the final point, not a second. A point whose iteration stopped at
    # a singular J (singular_at) or whose certificate raised gets no row K.
    points = list(data.points)
    trails = {}
    if args.refine > 0:
        for i, p in enumerate(points):
            points[i], rows, singular_at = newton_iterate(F, p, args.refine, prec)
            trails[i] = (rows, singular_at)

    options = BatchOptions(
        distinct=args.distinct,
        real=args.real,
        assume_real_map=args.assume_real_map,
    )
    report = certify_batch(F, points, prec, options)
    tables = {}
    for rec in report.records:
        if rec.index in trails:
            rows, singular_at = trails[rec.index]
            if singular_at is None and rec.certificate is not None:
                rows += ((args.refine, rec.certificate.beta_sq),)
            tables[rec.index] = ResidualTable(rows=rows, singular_at=singular_at)

    audit = {}
    if args.audit:
        if args.mode == MODE_RATIONAL:
            print("audit ignored: rational mode is already exact", file=sys.stderr)
        else:
            abits = max(AUDIT_FLOOR_BITS, 2 * args.precision)
            aprec = PrecisionConfig(MODE_FLOAT, abits)
            for rec in report.records:
                if rec.error is not None:
                    continue
                try:
                    audit[rec.index] = (abits, certify_solution(F, rec.point, aprec))
                except ExpcertError:
                    continue

    d = report_to_dict(
        report,
        seed=args.seed,
        system_shape=(F.n, F.m),
        refine_tables=tables or None,
        audit=audit or None,
    )
    rendered = report_to_json(d) if args.format == "json" else render_report_text(d)
    _emit(rendered, args.output)

    counts = report.counts
    return 0 if counts["certified"] == counts["total"] else 1


def run_solve(args) -> int:
    F = parse_system(_read_text(args.system))
    degrees = args.truncate_degrees if args.truncate_degrees is not None else ()
    cfg = HomotopyConfig(seed=args.seed, bits=args.precision)
    _check_writable(args.output)
    _check_writable(args.output + ".ledger")
    result = solve_by_deformation(F, degrees, cfg)

    _write_text(args.output, serialize_points(result.candidates, MODE_FLOAT))
    _write_text(args.output + ".ledger", result.ledger.render())
    for line in result.ledger.summary_lines():
        print(line)
    print(f"candidates written to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expcert",
        description="Certify approximate solutions of polynomial-exponential systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="certify a list of candidate points")
    cert.add_argument("--system", required=True, help="system file")
    cert.add_argument("--points", required=True, help="points file")
    cert.add_argument(
        "--mode", choices=(MODE_RATIONAL, MODE_FLOAT), default=MODE_FLOAT
    )
    cert.add_argument("--precision", type=_precision_bits, default=96, metavar="BITS")
    cert.add_argument(
        "--refine",
        type=_bounded_int(low=0),
        default=0,
        metavar="K",
        help="Newton-refine each point K times before certifying",
    )
    cert.add_argument("--distinct", action="store_true", help="certify distinctness")
    cert.add_argument("--real", action="store_true", help="certify realness")
    cert.add_argument(
        "--assume-real-map",
        action="store_true",
        help="treat the system as commuting with conjugation even when its "
        "coefficients are not all real",
    )
    cert.add_argument(
        "--audit",
        action="store_true",
        help="re-certify at max(1024, 2*BITS) bits and flag any verdict change",
    )
    cert.add_argument("--seed", type=int, default=None, help="recorded in the report")
    cert.add_argument("--output", default=None, help="report path (default stdout)")
    cert.add_argument("--format", choices=("json", "text"), default="json")

    solve = sub.add_parser("solve", help="generate candidate solutions by deformation")
    solve.add_argument("--system", required=True, help="system file")
    solve.add_argument(
        "--truncate-degrees",
        type=_degree_list,
        default=None,
        metavar="LIST",
        help="comma-separated truncation degree per link, e.g. 3,3,2,2",
    )
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--precision", type=_precision_bits, default=256, metavar="BITS")
    solve.add_argument("--output", required=True, help="candidate points file")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of main: parse_args leaves it as it is."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, not bound into the shared parser, so that a
    # wrapper set on this module later (a profiler's, say) is the one run.
    run = run_certify if args.command == "certify" else run_solve
    try:
        return run(args)
    except ExpcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
