"""File formats: system grammar, points files, reports, all versioned.

The grammar is line-oriented and diff-friendly: '#' starts a comment, blank
lines are ignored, every file opens with "format: 1". Complex numbers are two
rational tokens "re im"; a rational token is anything Fraction accepts, so
"7/2", "-0.65" and "1.26547e-01" are all exact. System files must stay
rational; points files carry a mode line and floating values round-trip
exactly because binary floats are dyadic rationals.

    # system file                     # points file
    format: 1                         format: 1
    system <n> <m>                    mode: rational|float
    poly <nterms>                     <count>
    <e_1 ... e_N> <re> <im>           <re> <im>     (count * N lines)
    ...
    link <kind> <src> <dst> <re> <im>

Two caps keep hostile input from running for minutes: a term exponent above
MAX_EXPONENT, and a rational token whose decimal exponent ("1e<k>") exceeds
MAX_DECIMAL_EXPONENT in size, are parse errors. Without them one line can
ask for 10^999999999, or for ||z||_1^(2(d-1)) and d! at a degree d of 10^9.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import __version__ as _VERSION
from .certify import BatchReport, Certificate
from .errors import ParseError, ValidationError
from .expsystems import ExpKind, ExpLink, ExpSystem, as_exp_system
from .polynomials import Polynomial, PolynomialSystem
from .refine import ResidualTable
from .scalars import (
    ExactComplex,
    coord_to_exact,
    format_decimal,
    format_rational,
    fraction_to_mpf,
    working_precision,
)

FORMAT_VERSION = 1
TOOL_NAME = "expcert"
MAX_EXPONENT = 100
MAX_DECIMAL_EXPONENT = 1000
# Input text that an error message repeats is cut to this many characters.
SHOWN_CHARS = 40


class _Lines:
    """Cursor over the meaningful lines of a file, tracking line numbers."""

    def __init__(self, text: str):
        self.items = []
        for no, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.items.append((no, line))
        self.pos = 0

    def next(self, what: str):
        if self.pos >= len(self.items):
            last = self.items[-1][0] if self.items else 0
            raise ParseError(f"unexpected end of file, expected {what}", line=last)
        no, line = self.items[self.pos]
        self.pos += 1
        return no, line

    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


def _expect_format(lines: _Lines):
    no, line = lines.next("a 'format:' line")
    parts = line.replace(":", " ").split()
    if len(parts) != 2 or parts[0] != "format":
        raise ParseError(f"expected 'format: {FORMAT_VERSION}', got {_shown(line)}", line=no)
    if parts[1] != str(FORMAT_VERSION):
        raise ParseError(f"unsupported format version {_shown(parts[1])}", line=no)


def _shown(text: str) -> str:
    """text quoted for an error message, cut to SHOWN_CHARS characters plus its length."""
    if len(text) <= SHOWN_CHARS:
        return repr(text)
    return f"{text[:SHOWN_CHARS]!r}... ({len(text)} characters)"


def _rational(token: str, no: int) -> Fraction:
    _, marker, exponent = token.lower().partition("e")
    if marker:
        try:
            too_large = abs(int(exponent)) > MAX_DECIMAL_EXPONENT
        except ValueError:
            raise ParseError(f"bad rational token {_shown(token)}", line=no) from None
        if too_large:
            raise ParseError(
                f"rational token {_shown(token)} has a decimal exponent"
                f" above {MAX_DECIMAL_EXPONENT}",
                line=no,
            )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational token {_shown(token)} ({exc})", line=no) from None


def _int(token: str, no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad integer token {_shown(token)}", line=no) from None


def parse_system(text: str) -> ExpSystem:
    """Parse the system grammar; every coefficient is kept exactly rational."""
    lines = _Lines(text)
    _expect_format(lines)
    no, line = lines.next("a 'system n m' header")
    parts = line.split()
    if len(parts) != 3 or parts[0] != "system":
        raise ParseError(f"expected 'system <n> <m>', got {_shown(line)}", line=no)
    n, m = _int(parts[1], no), _int(parts[2], no)
    if n < 0 or m < 0:
        raise ParseError(f"negative counts in header {_shown(line)}", line=no)
    nv = n + m
    polys = []
    for _ in range(n):
        no, line = lines.next("a 'poly <nterms>' block")
        parts = line.split()
        if len(parts) != 2 or parts[0] != "poly":
            raise ParseError(f"expected 'poly <nterms>', got {_shown(line)}", line=no)
        nterms = _int(parts[1], no)
        if nterms < 0:
            raise ParseError(f"negative term count {_shown(line)}", line=no)
        items = []
        for _ in range(nterms):
            no, line = lines.next("a term line")
            toks = line.split()
            if len(toks) != nv + 2:
                raise ParseError(
                    f"term line needs {nv} exponents and 2 coefficient tokens, got {len(toks)}",
                    line=no,
                )
            exps = tuple(_int(t, no) for t in toks[:nv])
            if any(e < 0 for e in exps):
                raise ParseError("negative exponent in term", line=no)
            if any(e > MAX_EXPONENT for e in exps):
                raise ParseError(f"term exponent above {MAX_EXPONENT}", line=no)
            coeff = ExactComplex(_rational(toks[nv], no), _rational(toks[nv + 1], no))
            items.append((coeff, exps))
        polys.append(Polynomial.from_terms(nv, items))
    links = []
    for _ in range(m):
        no, line = lines.next("a link line")
        toks = line.split()
        if len(toks) != 6 or toks[0] != "link":
            raise ParseError(
                f"expected 'link <kind> <src> <dst> <re> <im>', got {_shown(line)}", line=no
            )
        try:
            kind = ExpKind(toks[1].lower())
        except ValueError:
            raise ParseError(f"unknown link kind {_shown(toks[1])}", line=no) from None
        c = ExactComplex(_rational(toks[4], no), _rational(toks[5], no))
        links.append(ExpLink(kind, c, _int(toks[2], no), _int(toks[3], no)))
    if not lines.exhausted():
        no, line = lines.items[lines.pos]
        raise ParseError(f"trailing content {_shown(line)}", line=no)
    return ExpSystem(PolynomialSystem(tuple(polys)), tuple(links))


def serialize_system(F) -> str:
    F = as_exp_system(F)
    out = [f"format: {FORMAT_VERSION}", f"system {F.n} {F.m}"]
    for p in F.P.polys:
        out.append(f"poly {len(p.terms)}")
        for c, mono in p.terms:
            exps = " ".join(str(e) for e in mono.exponents)
            out.append(f"{exps} {format_rational(c.re)} {format_rational(c.im)}")
    for link in F.links:
        out.append(
            f"link {link.kind.value} {link.src} {link.dst} "
            f"{format_rational(link.c.re)} {format_rational(link.c.im)}"
        )
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class PointsData:
    mode: str
    points: tuple  # of tuples of ExactComplex


def parse_points(text: str) -> PointsData:
    """Parse a points file; the coordinate count per point is inferred.

    The total number of coordinate lines must split evenly over the declared
    point count, at least one line per point; whether that width matches a
    given system is checked at use.
    """
    lines = _Lines(text)
    _expect_format(lines)
    no, line = lines.next("a 'mode:' line")
    parts = line.replace(":", " ").split()
    if len(parts) != 2 or parts[0] != "mode" or parts[1] not in ("rational", "float"):
        raise ParseError(
            f"expected 'mode: rational' or 'mode: float', got {_shown(line)}", line=no
        )
    mode = parts[1]
    no, line = lines.next("a point count")
    count = _int(line, no)
    if count < 0:
        raise ParseError(f"negative point count {_shown(line)}", line=no)
    coords = []
    while not lines.exhausted():
        no, line = lines.next("a coordinate line")
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"coordinate line needs 're im', got {_shown(line)}", line=no)
        coords.append(ExactComplex(_rational(toks[0], no), _rational(toks[1], no)))
    if count == 0:
        if coords:
            raise ParseError(f"{len(coords)} coordinate lines after a count of 0")
        return PointsData(mode, ())
    if len(coords) < count:
        raise ParseError(f"{count} points need at least {count} coordinate lines, got {len(coords)}")
    if len(coords) % count != 0:
        raise ParseError(
            f"{len(coords)} coordinate lines do not divide into {count} points"
        )
    width = len(coords) // count
    pts = tuple(tuple(coords[i * width : (i + 1) * width]) for i in range(count))
    return PointsData(mode, pts)


def serialize_points(points, mode: str) -> str:
    """Write points exactly: floating coordinates become dyadic rationals."""
    if mode not in ("rational", "float"):
        raise ValidationError(f"unknown points mode {mode!r}")
    out = [f"format: {FORMAT_VERSION}", f"mode: {mode}", str(len(points))]
    for p in points:
        for v in p:
            z = coord_to_exact(v)
            out.append(f"{format_rational(z.re)} {format_rational(z.im)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Reports


def _sqrt_str(value, bits: int) -> str:
    """Decimal rendering of sqrt(value) for squared certificate quantities.

    Infinite alpha (singular Jacobian) arrives as the float sentinel and is
    passed through as "inf"; everything else is finite and nonnegative.
    """
    if isinstance(value, float):
        return str(value)
    with working_precision(max(bits, 128)):
        if isinstance(value, (Fraction, int)):
            value = fraction_to_mpf(Fraction(value), mp.mp.prec)
        root = mp.sqrt(value)
    return format_decimal(root)


def _cert_dict(cert: Certificate | None, bits: int, exact: bool) -> dict:
    if cert is None:
        return {}
    out = {
        "certified": cert.certified_approximate,
        "exact_zero": cert.exact_zero,
        "jacobian_invertible": cert.jacobian_invertible,
        "alpha_bound": _sqrt_str(cert.alpha_bound_sq, bits),
        "beta": _sqrt_str(cert.beta_sq, bits),
        "gamma_bound": _sqrt_str(cert.gamma_bound_sq, bits),
    }
    if exact:
        for key, v in (
            ("alpha_bound_sq", cert.alpha_bound_sq),
            ("beta_sq", cert.beta_sq),
            ("gamma_bound_sq", cert.gamma_bound_sq),
        ):
            out[key] = format_rational(v) if isinstance(v, (Fraction, int)) else str(v)
    return out


def _residuals_list(table: ResidualTable, bits: int):
    rows = [[k, _sqrt_str(b, bits)] for k, b in table.rows]
    out = {"rows": rows}
    if table.singular_at is not None:
        out["singular_at"] = table.singular_at
    return out


def report_to_dict(
    report: BatchReport,
    seed=None,
    system_shape=None,
    refine_tables=None,
    audit=None,
) -> dict:
    """Flatten a batch result to the JSON report structure.

    refine_tables maps point index -> ResidualTable; audit maps point
    index -> (bits, Certificate) from the high-precision re-run. Decimal
    strings are correctly rounded to 6 significant digits; rational mode
    additionally carries the exact squared quantities as p/q strings.
    """
    exact = report.mode == "rational"
    points = []
    for rec in report.records:
        entry = {"index": rec.index}
        entry.update(_cert_dict(rec.certificate, report.bits, exact))
        if rec.error is not None:
            entry["error"] = rec.error
        if rec.distinct_set is not None:
            entry["distinct_set"] = rec.distinct_set
        if rec.real is not None:
            entry["real"] = rec.real.value
        if refine_tables and rec.index in refine_tables:
            entry["residuals"] = _residuals_list(refine_tables[rec.index], report.bits)
        if audit and rec.index in audit:
            abits, acert = audit[rec.index]
            base = rec.certificate
            entry["audit"] = {
                "precision": abits,
                "alpha_bound": _sqrt_str(acert.alpha_bound_sq, abits),
                "certified": acert.certified_approximate,
                "agree": base is not None
                and base.certified_approximate == acert.certified_approximate,
            }
        points.append(entry)
    out = {
        "format": FORMAT_VERSION,
        "tool": TOOL_NAME,
        "version": _VERSION,
        "mode": report.mode,
        "precision": report.bits,
        "counts": report.counts,
        "points": points,
    }
    if seed is not None:
        out["seed"] = seed
    if system_shape is not None:
        out["system"] = {"n": system_shape[0], "m": system_shape[1]}
    if report.real_map is not None:
        out["real_map"] = report.real_map
    return out


def report_to_json(d: dict) -> str:
    return json.dumps(d, indent=2) + "\n"


def render_report_text(d: dict) -> str:
    """Human-readable one-point-per-paragraph rendering of a report dict."""
    lines = [
        f"{d['tool']} {d['version']} certification report",
        f"mode {d['mode']}, precision {d['precision']} bits",
    ]
    if "system" in d:
        lines.append(f"system: n = {d['system']['n']}, m = {d['system']['m']}")
    for p in d["points"]:
        head = f"point {p['index']}: "
        if "error" in p:
            lines.append(head + f"error ({p['error']})")
            continue
        if "certified" not in p:
            lines.append(head + "no certificate")
            continue
        verdict = "certified" if p["certified"] else "not certified"
        if p.get("exact_zero"):
            verdict += " (exact zero)"
        lines.append(head + verdict)
        lines.append(f"  alpha_bound {p['alpha_bound']}  beta {p['beta']}  gamma_bound {p['gamma_bound']}")
        extras = []
        if "distinct_set" in p:
            extras.append(f"distinct_set {p['distinct_set']}")
        if "real" in p:
            extras.append(f"real {p['real']}")
        if extras:
            lines.append("  " + "  ".join(extras))
        if "residuals" in p:
            rows = "  ".join(f"{k}:{s}" for k, s in p["residuals"]["rows"])
            lines.append(f"  residuals {rows}")
            if "singular_at" in p["residuals"]:
                lines.append(f"  singular at refinement step {p['residuals']['singular_at']}")
        if "audit" in p:
            a = p["audit"]
            ok = "agree" if a["agree"] else "DISAGREE"
            lines.append(
                f"  audit at {a['precision']} bits: alpha_bound {a['alpha_bound']}, "
                f"{'certified' if a['certified'] else 'not certified'} ({ok})"
            )
    c = d["counts"]
    lines.append(
        f"summary: {c['certified']}/{c['total']} certified, {c['distinct']} distinct, "
        f"{c['real']} real, {c['not_real']} not real, {c['undecided']} undecided"
    )
    return "\n".join(lines) + "\n"
