"""Candidate generation by truncation and coefficient deformation.

Each link row y = g(c*x) is replaced by its Maclaurin truncation, giving a
square polynomial system. A linear-product start system tailored to the
truncated link rows is solved slice by slice, and its solutions are carried
to the truncated system and then to the original system along straight-line
deformations

    H(z, t) = (1 - t) * Ftarget(z) + gamma * t * Fstart(z),    t: 1 -> 0,

with gamma a random unit-modulus constant derived from the recorded seed.
Path tracking runs in hardware doubles (Heun predictor, Newton corrector,
adaptive step length, with fixed step-control constants). Endpoints are
then polished with the multiprecision Newton iteration and returned as
candidates for certification, never as certified output. Every random draw
is derived from the seed and written to a run ledger, so a run can be
replayed exactly.

Each predictor or corrector step is one call of one generated function per
pair of tracked systems (_step_program), straight-line Python compiled once
with compile/exec. It unpacks z into locals and runs the start system's
expsystems program body, then the target's, computing a power z_i ** e
that both use once; each body gives its system's value and Jacobian
together, with constant entries folded. It then puts the entries of the
augmented matrix [H_z | rhs] that can be nonzero into locals, solves by
partial pivoting on them alone (_structured_elimination_lines), and
returns the tangent, or the corrected point with the norms of the Newton
step and of the point. Every operation is that of the loops the function
replaces, in their order, so what it returns is bit for bit what the
loops gave, and it raises what they raise, except where the dense
elimination loop meets a non-finite value: there it raises, never
returning. The source holds names and integer indices only;
coefficients, gamma and link functions enter as bound objects or
arguments. The same function is the tracker's only double-precision
Newton kernel: at t = 0 its corrector is the target's Newton step, which
the final sharpening and the stall rescue take.

The predictor is Heun's explicit trapezoid (_predict). Its local error is
O(h^3), one order above the Euler step z + h * v, so the step control
keeps long steps more often; the price is a second tangent per attempted
step.

Two rules keep paths that yield no root from grinding down to the
smallest step. Each total-degree target, every slice and the link-free
system, is balanced (_balance): each row is multiplied by the power of two
that brings its largest coefficient part into [1, 2), as Morgan's equation
scaling does, so that the start rows x^d - 1 do not dwarf it near t = 1;
the scaling is exact in doubles and keeps every root. In the endgame zone
t <= _ENDGAME_T, a path whose norm keeps growing like a power of 1/t ends
DIVERGED (track_path), in every stage, as Bertini's endgame does for paths
to infinity. Such paths head for singular points at infinity, so a
projective patch alone would not end them sooner. A non-finite value in
a step, which complex ** gives on huge parts without raising, also ends
a path DIVERGED.

Both deduplications are one first-fit filter (_first_fit): a point is
dropped when it lies within the radius of a point kept before it, that
radius computed once, when the point is kept. After each stage the radius
is the relative cut 1e-8 * max(1, ||q||) in doubles (_dedup_native). The
polished endpoints merge on exact squared distances of their dyadic
values, in integers, with the larger of that cut squared and the kept
point's exact squared robustness radius (certify.robust_radius_sq)
(_polish, _merge_polished).

solve tracks on every CPU in its affinity mask. Paths are independent:
a stage's gamma comes from the stage seed, so a path's result depends on
its start point alone. Each solve forks its own workers (_tasks), each
fed over one pipe: one task per slice restricts, compiles and tracks it,
and one task per path of a later stage tracks it, and in the last stage
also polishes its endpoint (_polish). The stages stream (_stream): the
parent reads each stage's results in task order, logs them, submits each
endpoint the stage's first-fit filter keeps as a task of the next stage
at once, so no stage waits for the slowest path of the one before, and
merges each last-stage polish as it reads it, while the workers track.
Every result depends on its task alone, so ledgers, candidates and
reports are bit for bit the same for any worker count and any completion
order.
"""

from __future__ import annotations

import cmath
import contextlib
import enum
import itertools
import math
import os
import random
import threading
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath as mp

from .certify import certify_solution, robust_radius_sq
from .errors import DimensionMismatch, ValidationError
from .expsystems import (
    CompiledSystem,
    ExpKind,
    ExpSystem,
    as_exp_system,
    compile_system,
    define_function,
)
from .polynomials import Polynomial, PolynomialSystem, mul_terms, pmul, pscale
from .refine import newton_iterate
from .scalars import (
    EC_ONE,
    MODE_FLOAT,
    ExactComplex,
    PrecisionConfig,
    dyadic_point,
    exact_sq_distance,
    working_precision,
)
from .sysio import MAX_EXPONENT

# ---------------------------------------------------------------------------
# Maclaurin truncation of link rows


def _maclaurin_coeffs(kind: ExpKind, c: ExactComplex, degree: int):
    """Coefficients a_0..a_degree of the truncated series of kind(c*x).

    exp keeps every order; sin/sinh keep odd orders, cos/cosh even ones, and
    the circular pair alternates in sign while the hyperbolic pair does not.
    """
    parity = {ExpKind.SIN: 1, ExpKind.SINH: 1, ExpKind.COS: 0, ExpKind.COSH: 0}
    alternating = kind in (ExpKind.SIN, ExpKind.COS)
    out = []
    for j in range(degree + 1):
        if kind is not ExpKind.EXP and j % 2 != parity[kind]:
            out.append(ExactComplex())
            continue
        base = Fraction(1, factorial(j))
        if alternating and (j // 2) % 2 == 1:
            base = -base
        out.append(c**j * base)
    return out


def taylor_truncate(F: ExpSystem, degrees) -> PolynomialSystem:
    """Replace every link by its Maclaurin truncation to the given degree.

    degrees has one entry per link, from 1 to MAX_EXPONENT, the cap a
    system file puts on a term exponent. The result is the square
    polynomial system with the original polynomial rows first, then one row
    y_dst - T(g)(c * x_src) per link, all in the same n + m variables.
    """
    F = as_exp_system(F)
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) != F.m:
        raise DimensionMismatch(f"got {len(degrees)} degrees for {F.m} links")
    if any(d < 1 for d in degrees):
        raise ValidationError("truncation degrees must be positive")
    if any(d > MAX_EXPONENT for d in degrees):
        raise ValidationError(f"truncation degrees must be at most {MAX_EXPONENT}")
    nv = F.N
    rows = list(F.P.polys)
    for link, d in zip(F.links, degrees):
        items = []
        exps = [0] * nv
        exps[link.dst - 1] = 1
        items.append((EC_ONE, tuple(exps)))
        for j, a in enumerate(_maclaurin_coeffs(link.kind, link.c, d)):
            if a.is_zero():
                continue
            exps = [0] * nv
            exps[link.src - 1] = j
            items.append((-a, tuple(exps)))
        rows.append(Polynomial.from_terms(nv, items))
    return PolynomialSystem(tuple(rows))


# ---------------------------------------------------------------------------
# Linear-product start system


@dataclass(frozen=True)
class LinearFactor:
    """One factor a*y + b*x + 1 of a product row; a is nonzero only for j = 1."""

    a: ExactComplex
    b: ExactComplex  # nonzero, as _draw_nonzero draws it


def _draw_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def _draw_nonzero(rng: random.Random) -> ExactComplex:
    while True:
        v = ExactComplex(_draw_rational(rng), _draw_rational(rng))
        if not v.is_zero():
            return v


def _link_x_degrees(Fp: PolynomialSystem, links) -> tuple:
    """Actual source-variable degree of each truncated link row (at least 1)."""
    n = Fp.n - len(links)
    out = []
    for i, link in enumerate(links):
        row = Fp.polys[n + i]
        d = max((m.exponents[link.src - 1] for _, m in row.terms), default=0)
        out.append(max(1, d))
    return tuple(out)


def _draw_factors(links, counts, seed: int):
    """One factor list per link, drawn reproducibly; the b values of a link
    are kept pairwise distinct so the slices they pin never coincide."""
    rng = random.Random(seed)
    out = []
    for link, r in zip(links, counts):
        used = set()
        facs = []
        for j in range(r):
            a = _draw_nonzero(rng) if j == 0 else ExactComplex()
            while True:
                b = _draw_nonzero(rng)
                if b not in used:
                    break
            used.add(b)
            facs.append(LinearFactor(a, b))
        out.append(tuple(facs))
    return tuple(out)


def _allowed_nus(links, counts):
    """Factor selections, pruned of pairs that pin the same source twice.

    When two links share a source variable and both selections are >= 2, the
    two selected factors b*x + 1 pin that variable to two different values,
    so the slice is empty for generic draws and is never generated: once an
    earlier link with the same source holds a selection above 1, a link takes
    selection 1 only. Extending each kept prefix in ascending order keeps the
    lexicographic order of the full product, and no pruned tuple is built.
    Hence every slice is square: each link eliminates its target (first
    factor) or pins its source (_slice_maps), no source twice, and targets
    are distinct and above n, so the n >= 1 rows keep n free variables.
    """
    out = [()]
    for i, r in enumerate(counts):
        shared = [j for j in range(i) if links[j].src == links[i].src]
        out = [
            nu + (k,)
            for nu in out
            for k in (range(1, r + 1) if all(nu[j] == 1 for j in shared) else (1,))
        ]
    return tuple(out)


def _factor_row(nv: int, link, fac: LinearFactor) -> Polynomial:
    items = [(fac.b, tuple(1 if v == link.src - 1 else 0 for v in range(nv)))]
    items.append((EC_ONE, (0,) * nv))
    if not fac.a.is_zero():
        items.append((fac.a, tuple(1 if v == link.dst - 1 else 0 for v in range(nv))))
    return Polynomial.from_terms(nv, items)


def linear_product_start(Fp: PolynomialSystem, links, factors) -> PolynomialSystem:
    """The product start system of Fp, built from the factors the slices use.

    Link i's factors (_draw_factors) are L_{i,1} = a_i*y + b_{i,1}*x + 1 and
    L_{i,j} = b_{i,j}*x + 1 for 2 <= j <= r_i, the source degree of its
    truncated row; the product row L_{i,1} * ... * L_{i,r_i} covers that
    row's support. The polynomial rows are Fp's. A selection nu picks factor
    nu[i] of each link; its slice replaces link row i by that factor, so its
    roots are the product system's only when both take the same factors.
    """
    nv = Fp.nv
    prod_rows = list(Fp.polys[: Fp.n - len(links)])
    for i, link in enumerate(links):
        acc = _factor_row(nv, link, factors[i][0])
        for fac in factors[i][1:]:
            acc = pmul(acc, _factor_row(nv, link, fac))
        prod_rows.append(acc)
    return PolynomialSystem(tuple(prod_rows))


# ---------------------------------------------------------------------------
# Native-precision tracking


class _NativeSingular(Exception):
    pass


# The names the lines of _structured_elimination_lines read besides the
# entries: a generated function binds them in its namespace.
_ELIMINATION_NAMES = {
    "_NativeSingular": _NativeSingular,
    "inf": math.inf,
    "isfinite": cmath.isfinite,
}


def _structured_elimination_lines(n: int, cells) -> list:
    """The dense loop's partial-pivoting solve of [A | b] on the entries
    that can be nonzero alone, as straight-line source that leaves x in
    x0..x{n-1}: the static symbolic factorization for partial pivoting
    (George and Ng, SIAM J. Sci. Stat. Comput. 8, 1987).

    Entry (r, k) of [A | b] is in the local e{r}_{k} for each (r, k) in
    cells and for every right-hand side k = n; every other entry of A is
    an exact 0j. At column c the pivot search reads position c, or starts
    from 0.0 when (c, c) cannot be nonzero, then the rows below that can
    be nonzero in column c, with the loop's strict >, so ties and nan pick
    the loop's row. Position c and those rows form a group, each row
    widened to the union of the group's columns from c on with 0j, so the
    structure after the swap, which branches on piv, is the same for every
    pivot; every other row of the group then gets f = row[c] * inv; if f:
    and the subtraction over the union. (When (c, c) cannot be nonzero and
    one row below can, that row is the pivot: the rows swap by name, and
    the row moved down, 0j at c, is left alone.) Back substitution keeps
    every term, with the literal 0j for a zero entry, so signed zeros are
    the loop's.

    While every f is finite, each entry the loop updates and this skips is
    0j - f * 0j = 0j, so values, pivots and raises are the loop's bit for
    bit. A non-finite f comes only from a nan below the pivot and makes its
    row non-finite, so a non-finite value the loop meets ends in a
    non-finite pivot or solution here. A finite pivot modulus below 1e-250
    raises _NativeSingular, as in the loop; a non-finite pivot modulus or
    solution raises OverflowError, as an abs() that overflows does. So x,
    once the lines finish, is the loop's bit for bit. They read the names
    in _ELIMINATION_NAMES.
    """
    rows = [{k: f"e{r}_{k}" for k in range(n + 1) if k == n or (r, k) in cells} for r in range(n)]
    fresh = (f"w{i}" for i in itertools.count())
    body, pivots = [], []
    for c in range(n):
        own = c in rows[c]
        below = [p for p in range(c + 1, n) if c in rows[p]]
        body += [f"piv, best = {c}, abs({rows[c][c]})"] if own else [f"piv = {c}", "best = 0.0"]
        for p in below:
            body += [f"a = abs({rows[p][c]})", "if a > best:", f"    piv, best = {p}, a"]
        body += ["if not 1e-250 <= best < inf:",
                 "    raise _NativeSingular if best < 1e-250 else OverflowError"]
        if not below:
            if not own:
                break  # the test above always raises
            pivots.append(rows[c])
            continue
        if not own and len(below) == 1:
            pivots.append(rows[below[0]])
            rows[below[0]] = rows[c]
            continue
        group = [c] + below
        cols = sorted({k for p in group for k in rows[p] if k >= c})
        for p in group:
            for k in cols:
                if k not in rows[p]:
                    rows[p][k] = next(fresh)
                    body.append(f"{rows[p][k]} = 0j")
        u = rows[c]
        for i, q in enumerate(below):
            last = i == len(below) - 1 and not own  # piv is in below
            body.append("else:" if last else f"{'elif' if i else 'if'} piv == {q}:")
            body += [f"    {u[k]}, {rows[q][k]} = {rows[q][k]}, {u[k]}" for k in cols]
        pivots.append(u)
        body.append(f"inv = 1.0 / {u[c]}")
        for p in below:
            body += [f"f = {rows[p][c]} * inv", "if f:"]
            body += [f"    {rows[p][k]} -= f * {u[k]}" for k in cols if k > c]
    else:
        for i in range(n - 1, -1, -1):
            row = pivots[i]
            body.append(f"acc = {row[n]}")
            body += [f"acc -= {row.get(k, '0j')} * x{k}" for k in range(i + 1, n)]
            body.append(f"x{i} = acc / {row[i]}")
        body.append("if not (" + " and ".join(f"isfinite(x{i})" for i in range(n)) + "):")
        body.append("    raise OverflowError")
    return body


class PathStatus(enum.Enum):
    ENDPOINT = "endpoint"
    DIVERGED = "diverged"
    FAILED = "failed"


@dataclass(frozen=True)
class PathResult:
    status: PathStatus
    point: tuple | None
    steps: int
    reason: str = ""


@dataclass(frozen=True)
class HomotopyConfig:
    """Reproducibility knobs for one deformation run: the seed every random
    draw derives from, and the precision endpoints are polished at, which
    must pass the same check as certify's (PrecisionConfig)."""

    seed: int = 0
    bits: int = 256

    def __post_init__(self):
        PrecisionConfig(MODE_FLOAT, self.bits)


# Step control. The ledger's config line records the first six, so a ledger
# names the values its run used.
_DT_INIT = 0.1
_DT_MIN = 1e-7
_MAX_CORRECTIONS = 3
_CONTRACTION = 0.5
_ENDPOINT_TOL = 1e-6
_BLOWUP = 1e10
_CORRECT_TOL = 1e-10
# The corrector also accepts on its contraction estimate of the next step
# (_correct); at 1e-10 the arm at degrees 3,3,2,2 lost a root at seed 4.
_ESTIMATE_TOL = 1e-11
_SHARPEN_TOL = 1e-13
_MAX_STEPS = 20000
_GROWTH_STREAK = 4
_GROWTH_FACTOR = 1.5
_STALL_T = 1e-2
_STALL_TOL = 1e-9
_STALL_ITERS = 8
# Paths to infinity: once t <= _ENDGAME_T, a path whose norm grew at a rate
# of at least _INFINITY_GROWTH (log10 ||z|| per decade of t) over each of
# the last two decades, and _INFINITY_RATIO-fold since entering the zone,
# ends DIVERGED (track_path). The ledger's config line records all three.
_ENDGAME_T = 0.1
_INFINITY_GROWTH = 0.3
_INFINITY_RATIO = 1000.0


def _gamma_for_seed(seed: int) -> complex:
    return cmath.exp(2j * math.pi * random.Random(seed).random())


def _norm(z) -> float:
    return math.sqrt(sum(abs(v) ** 2 for v in z))


def _norm_expr(names) -> str:
    """||v|| as one expression: sum() of abs(v_i) ** 2 written out, left to right."""
    return "sqrt(" + " + ".join(f"abs({v}) ** 2" for v in names) + ")"


@lru_cache(maxsize=16)
def _step_program(cs: CompiledSystem, ct: CompiledSystem):
    """Generated step(z, t, tangent, G) of the pencil of two double programs.

    One function runs everything a predictor or corrector step needs. It
    unpacks z, runs the start program's body, then the target's, with the
    powers z_i ** e both use computed once (CompiledSystem.body), puts
    [H_z | rhs] into locals and solves it by the elimination of
    _structured_elimination_lines on the union of the two patterns.
    rhs is H_t(z) = G * Fstart(z) - Ftarget(z) for the predictor (tangent
    true), which returns the solution x as a list, and H(z, t) for the
    corrector, which returns (z - x, ||x||, ||z - x||). Each Jacobian entry
    is s * b + g * a from the target and start entries b and a, with 0j
    for a side outside its system's pattern; entries outside both patterns
    are 0j, which is what that expression gives for a = b = 0j since
    s = 1 - t >= 0. Each norm is the sum of abs(v) ** 2 left to right, the
    additions sum() makes on Python 3.11, and its ** raises OverflowError
    as _norm's does. Every operation is that of evaluating, eliminating
    by the dense loop and updating in turn, in that order, so every result
    is theirs bit for bit, and so is the first raise while the elimination
    meets no non-finite value; where it meets one, the step raises instead
    of returning a non-finite x. G is an argument, so one function serves
    every stage seed of a system pair. At t = 0, s = 1 and g = 0, so the
    corrector is the target's own Newton update (z - x, ||x||, ||z - x||),
    up to the sign of a zero part: the final sharpening and the stall
    rescue call it there. The start body still runs, so a power of the
    start system that overflows raises there too.
    """
    namespace = {"sqrt": math.sqrt, **_ELIMINATION_NAMES}
    shared = {}
    lines, fa, ja = cs.body("a", namespace, shared=shared)
    lines_b, fb, jb = ct.body("b", namespace, shared=shared)
    lines = cs.unpack() + lines + lines_b
    ka, kb = dict(zip(cs.pattern, ja)), dict(zip(ct.pattern, jb))
    n = cs.size
    lines += ["s = 1.0 - t", "g = G * t", "if tangent:"]
    lines += [f"    e{i}_{n} = G * {a} - {b}" for i, (a, b) in enumerate(zip(fa, fb))]
    lines.append("else:")
    lines += [f"    e{i}_{n} = s * {b} + g * {a}" for i, (a, b) in enumerate(zip(fa, fb))]
    cells = {
        (r, j): f"s * {kb.get((r, j), '0j')} + g * {ka.get((r, j), '0j')}"
        for r, j in sorted(ka.keys() | kb.keys())
    }
    lines += [f"e{r}_{j} = {cell}" for (r, j), cell in cells.items()]
    lines += _structured_elimination_lines(n, cells)
    x = [f"x{i}" for i in range(n)]
    y = [f"y{i}" for i in range(n)]
    lines += ["if tangent:", f"    return [{', '.join(x)}]"]
    lines += [f"y{i} = z{i} - x{i}" for i in range(n)]
    lines.append(f"return [{', '.join(y)}], {_norm_expr(x)}, {_norm_expr(y)}")
    return define_function("step", "z, t, tangent, G", lines, namespace)


def _correct(step, gamma: complex, z, t):
    """Newton iterations at fixed t: (z, ||z||), or None when convergence
    is not accepted. A non-finite step or point norm raises OverflowError,
    as an overflowing power does.

    The updated point is accepted when its step ns is at most
    _CORRECT_TOL * max(1, ||z||), or, for t > 0, when the contraction
    estimate of the next step, ns * ns / prev (Deuflhard's Theta * ||dz||
    with Theta = ns / prev, prev the step before), is at most
    _ESTIMATE_TOL * max(1, ||z||). The estimate saves the call that would
    only confirm it. At t = 0 only the measured step accepts: there the
    point is a root that the next stage starts from."""
    prev = None
    for _ in range(_MAX_CORRECTIONS):
        z, ns, nz = step(z, t, False, gamma)
        if not (math.isfinite(ns) and math.isfinite(nz)):
            # z - x overflows to inf without raising
            raise OverflowError("non-finite Newton step")
        if ns <= _CORRECT_TOL * max(1.0, nz):
            return z, nz
        if prev is not None:
            if ns > _CONTRACTION * prev:
                return None
            if t > 0.0 and ns * ns / prev <= _ESTIMATE_TOL * max(1.0, nz):
                return z, nz
        prev = ns
    return None


def _rescue_stall(step, gamma: complex, ct: CompiledSystem, z):
    """Try to finish a stalled path by Newton against the target alone, the
    step at t = 0.

    Accepts only a clean quadratic finish: the step norm must drop below a
    strict tolerance and the residual must verify. Paths stalled against a
    singular or diverging endpoint bounce off and stay failed.
    """
    for _ in range(_STALL_ITERS):
        try:
            z, ns, nz = step(z, 0.0, False, gamma)
            if not math.isfinite(nz) or nz > _BLOWUP:
                return None
            if ns <= _STALL_TOL * max(1.0, nz):
                if _norm(ct.value(z)) <= _ENDPOINT_TOL * max(1.0, nz):
                    return z
                return None
        except (_NativeSingular, OverflowError):
            return None
    return None


def _predict(step, gamma: complex, z, v, t, h):
    """Heun's explicit trapezoid from (z, t) to t - h, given the tangent v
    at (z, t): the Euler point z + h * v gives a second tangent k2, and the
    prediction is z + (h / 2) * (v + k2), with local error O(h^3).

    step's tangent is x with H_z x = H_t, so dz/dt = -x and moving t down by
    h moves z by +h * x. _NativeSingular and OverflowError from k2 propagate
    to the caller.
    """
    k2 = step([a + h * b for a, b in zip(z, v)], t - h, True, gamma)
    half = h / 2
    return [a + half * (b + c) for a, b, c in zip(z, v, k2)]


def track_path(Fstart, Ftarget, z0, cfg: HomotopyConfig) -> PathResult:
    """Track one root of Fstart to t = 0 along the straight-line deformation.

    Each attempted step predicts by Heun's trapezoid (_predict) and corrects
    by Newton at the new t (_correct). Above t = 0 a corrected point is
    accepted once its Newton step, or the contraction estimate of the next
    one, is small enough; the estimate saves about a third of the step calls
    of a solve and changed paths, but not the roots found, on the arm and
    `compliant` sweeps. The last step, to t = 0, is accepted only on a
    measured step. The tangent at the accepted point is evaluated
    once and reused by a rejected retry; the second tangent, at the Euler
    point, is new on every attempt. A singular second tangent rejects the
    step, as a singular corrector does; an overflow in it, or a non-finite
    corrector step, ends the path DIVERGED.

    In the endgame zone t <= _ENDGAME_T, the accepted points where t first
    reaches the zone and then each further tenth of the previous mark's t
    are marks, with norms taken as max(||z||, 1). Between consecutive marks
    the growth rate is log10 of the norm's ratio over log10 of t's. A path
    whose last two rates are both at least _INFINITY_GROWTH, and whose norm
    is at least _INFINITY_RATIO times the first mark's, ends DIVERGED
    ("growing toward infinity") instead of grinding down to dt_min. Paths
    to infinity grow like a negative power of t, so the rate test reads
    them; the ratio keeps a finite root reached through a slow climb. The
    farthest clean endpoint measured lay 63 times farther out than its
    path's first mark, and a ratio of 10 would cut the path to a slice
    root of `compliant` at seeds 3, 4, 8 and 9 (degrees 2,2,2,2,2,2).

    The same seed always yields the same gamma, hence the same path. The
    returned point is a double-precision approximation only; callers are
    expected to polish and certify it separately.
    """
    cs, ct = compile_system(Fstart), compile_system(Ftarget)
    if cs.size != ct.size:
        raise DimensionMismatch(
            f"start tracks {cs.size} variables, target {ct.size}"
        )
    z = [complex(v) for v in z0]
    if len(z) != cs.size:
        raise DimensionMismatch(f"start point has {len(z)} coordinates, expected {cs.size}")
    try:
        if _norm(cs.value(z)) > _ENDPOINT_TOL * max(1.0, _norm(z)):
            return PathResult(PathStatus.FAILED, None, 0, "start residual too large")
    except OverflowError:
        return PathResult(PathStatus.FAILED, None, 0, "start evaluation overflow")
    step, gamma = _step_program(cs, ct), _gamma_for_seed(cfg.seed)
    t, dt, streak, steps = 1.0, _DT_INIT, 0, 0
    # Growth marks (t, max(||z||, 1)) in the endgame zone and the growth
    # rates between consecutive marks.
    marks, rates = [], []
    # The tangent depends on (z, t) alone: it is evaluated once per accepted
    # point, and a rejected step retries with it. None marks a singular one.
    fresh, v = True, None
    while t > 0.0:
        if steps >= _MAX_STEPS:
            return PathResult(PathStatus.FAILED, None, steps, "step limit reached")
        h = min(dt, t)
        tn = t - h
        steps += 1
        try:
            if fresh:
                fresh, v = False, None
                v = step(z, t, True, gamma)
            zc = None
            if v is not None:
                zc = _correct(step, gamma, _predict(step, gamma, z, v, t, h), tn)
        except _NativeSingular:
            zc = None
        except OverflowError:
            return PathResult(PathStatus.DIVERGED, None, steps, "evaluation overflow")
        if zc is None:
            dt = h / 2
            streak = 0
            if dt < _DT_MIN:
                if t < _STALL_T:
                    rescued = _rescue_stall(step, gamma, ct, z)
                    if rescued is not None:
                        return PathResult(
                            PathStatus.ENDPOINT, tuple(rescued), steps, "sharpened from a stall"
                        )
                return PathResult(PathStatus.FAILED, None, steps, "step size underflow")
            continue
        (z, nz), t, fresh = zc, tn, True
        if nz > _BLOWUP:
            return PathResult(PathStatus.DIVERGED, None, steps, "norm above blowup")
        if 0.0 < t <= (marks[-1][0] / 10 if marks else _ENDGAME_T):
            if marks:
                tm, nm = marks[-1]
                rates.append(math.log10(max(nz, 1.0) / nm) / math.log10(tm / t))
            marks.append((t, max(nz, 1.0)))
        if (
            len(rates) >= 2
            and min(rates[-2:]) >= _INFINITY_GROWTH
            and nz >= _INFINITY_RATIO * marks[0][1]
        ):
            return PathResult(PathStatus.DIVERGED, None, steps, "growing toward infinity")
        streak += 1
        if streak >= _GROWTH_STREAK:
            dt = min(dt * _GROWTH_FACTOR, _DT_INIT)
            streak = 0
    # Sharpen by the target's Newton step (the step at t = 0); a singular
    # endpoint is kept as is.
    for _ in range(5):
        try:
            z, ns, nz = step(z, 0.0, False, gamma)
        except (_NativeSingular, OverflowError):
            break
        if ns <= _SHARPEN_TOL * max(1.0, nz):
            break
    return PathResult(PathStatus.ENDPOINT, tuple(z), steps)


# ---------------------------------------------------------------------------
# Slice solving


def _slice_maps(nu, factors, links):
    """Variable assignments implied by one factor selection (0-based keys).

    A selected first factor eliminates the link target through
    y = -(1 + b*x)/a; any later factor pins the source to x = -1/b.
    """
    pinned = {}
    affine = {}
    for i, link in enumerate(links):
        fac = factors[i][nu[i] - 1]
        if nu[i] == 1:
            inva = EC_ONE / fac.a
            affine[link.dst - 1] = (-inva, -(fac.b * inva), link.src - 1)
        else:
            pinned[link.src - 1] = -(EC_ONE / fac.b)
    return pinned, affine


def _restrict(head, nu, factors, links, N):
    """Polynomial rows of one slice, rewritten over its free variables.

    Returns (system, free, pinned, affine) or None when a row restricts to a
    constant, which for generic draws means the slice carries no solutions.

    Each variable's substitution is a term dict {exponents: coefficient}:
    a free variable, a pinned constant, or c0 + c1 * base for an affine one.
    Each power subs[v] ** e is multiplied out once per slice by mul_terms,
    and each row is accumulated term by term into one dict before a
    single Polynomial.from_terms. The arithmetic is exact, so the rows are
    those of substituting polynomial by polynomial.
    """
    pinned, affine = _slice_maps(nu, factors, links)
    free = [v for v in range(N) if v not in pinned and v not in affine]
    nfree = len(free)
    one = (0,) * nfree
    unit = {v: tuple(int(v == w) for w in free) for v in free}
    subs = {v: {unit[v]: EC_ONE} for v in free}
    for v, c in pinned.items():
        subs[v] = {one: c}
    for v, (c0, c1, s) in affine.items():
        subs[v] = {one: c0 + c1 * pinned[s]} if s in pinned else {one: c0, unit[s]: c1}
    powers = {}

    def power(v, e):
        if (v, e) not in powers:
            powers[v, e] = subs[v] if e == 1 else mul_terms(power(v, e - 1), subs[v])
        return powers[v, e]

    rows = []
    for p in head:
        acc = {}
        for coeff, mono in p.terms:
            term = {one: coeff}
            for v, e in enumerate(mono.exponents):
                if e:
                    term = mul_terms(term, power(v, e))
            for e, c in term.items():
                acc[e] = acc[e] + c if e in acc else c
        q = Polynomial.from_terms(nfree, [(c, e) for e, c in acc.items()])
        if q.degree == 0:
            return None
        rows.append(q)
    return PolynomialSystem(tuple(rows)), free, pinned, affine


def _roots_of_unity_starts(degs):
    axes = [[cmath.exp(2j * math.pi * k / d) for k in range(d)] for d in degs]
    return [list(combo) for combo in itertools.product(*axes)]


def _total_degree_system(degs, nv) -> PolynomialSystem:
    rows = []
    for k, d in enumerate(degs):
        exps = [0] * nv
        exps[k] = d
        rows.append(
            Polynomial.from_terms(nv, [(EC_ONE, tuple(exps)), (ExactComplex.of(-1), (0,) * nv)])
        )
    return PolynomialSystem(tuple(rows))


def _balance(P: PolynomialSystem) -> PolynomialSystem:
    """P with each row multiplied by the power of two 2^-k that brings its
    largest real or imaginary coefficient part into [1, 2).

    A total-degree homotopy pairs each row with x^d - 1, whose coefficients
    have modulus 1; a row whose coefficients are hundreds of times larger
    keeps the start points in a thin band near t = 1 until (1 - t) has
    shrunk by as much. The factor is a power of two, so every double
    coefficient of the compiled program, each term and each sum is scaled
    exactly (short of underflow): values and Jacobian entries are exactly
    2^-k times P's, with the same roots.
    """
    rows = []
    for p in P.polys:
        top = max(max(abs(c.re), abs(c.im)) for c, _ in p.terms)
        k = top.numerator.bit_length() - top.denominator.bit_length()
        if top < Fraction(2) ** k:
            k -= 1
        rows.append(pscale(p, Fraction(2) ** -k))
    return PolynomialSystem(tuple(rows))


def _lift_slice_point(sol, free, pinned, affine, N):
    full = [0j] * N
    for v, val in zip(free, sol):
        full[v] = val
    for v, c in pinned.items():
        full[v] = complex(c)
    for v, (c0, c1, s) in affine.items():
        full[v] = complex(c0) + complex(c1) * full[s]
    return tuple(full)


def _first_fit(radius, dist):
    """A first-fit filter: keep(p) keeps p, and says so, when
    dist(p, q) > radius(q) for every q it kept before p. radius(q) is
    computed once, when q is kept. Points are offered one at a time, so a
    caller can act on each kept point before the next one exists."""
    kept = []

    def keep(p):
        if all(dist(p, q) > r for q, r in kept):
            kept.append((p, radius(p)))
            return True
        return False

    return keep


def _dedup_native():
    """A first-fit filter of endpoints on the radius 1e-8 * max(1, ||q||)."""
    return _first_fit(
        lambda q: 1e-8 * max(1.0, _norm(q)),
        lambda p, q: _norm([a - b for a, b in zip(p, q)]),
    )


# ---------------------------------------------------------------------------
# Run ledger and the full pipeline


@dataclass
class StageRecord:
    name: str
    seed: int
    gamma: complex
    outcomes: list = field(default_factory=list)  # (label, status, steps)
    kept: int = 0
    notes: list = field(default_factory=list)
    # Paths by (status, PathResult.reason); kept in memory, not rendered.
    reasons: Counter = field(default_factory=Counter)

    @property
    def tracked(self) -> int:
        return len(self.outcomes)

    def log(self, label: str, res: PathResult) -> None:
        self.outcomes.append((label, res.status, res.steps))
        self.reasons[res.status, res.reason] += 1

    def count(self, status: PathStatus) -> int:
        return sum(1 for _, s, _ in self.outcomes if s is status)


@dataclass
class RunLedger:
    """Replayable record of one deformation run: every draw and every path."""

    config: HomotopyConfig
    degrees: tuple = ()
    factor_lines: list = field(default_factory=list)
    stages: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    candidate_count: int = 0

    def summary_lines(self):
        out = []
        for st in self.stages:
            out.append(
                f"stage {st.name}: tracked {st.tracked}, "
                f"endpoints {st.count(PathStatus.ENDPOINT)}, "
                f"diverged {st.count(PathStatus.DIVERGED)}, "
                f"failed {st.count(PathStatus.FAILED)}, kept {st.kept}"
            )
        out.append(f"candidates: {self.candidate_count}")
        return out

    def render(self) -> str:
        lines = ["solve run ledger", "format: 1", f"seed: {self.config.seed}"]
        lines.append(
            f"config: dt_init={_DT_INIT!r} dt_min={_DT_MIN!r}"
            f" max_corrections={_MAX_CORRECTIONS}"
            f" contraction_threshold={_CONTRACTION!r}"
            f" endpoint_tol={_ENDPOINT_TOL!r} blowup={_BLOWUP!r}"
            f" endgame_t={_ENDGAME_T!r} infinity_growth={_INFINITY_GROWTH!r}"
            f" infinity_ratio={_INFINITY_RATIO!r} bits={self.config.bits}"
        )
        if self.degrees:
            lines.append("truncation degrees: " + " ".join(str(d) for d in self.degrees))
        if self.factor_lines:
            lines.append("factors:")
            lines.extend("  " + s for s in self.factor_lines)
        for note in self.notes:
            lines.append(f"note: {note}")
        for st in self.stages:
            g = st.gamma
            lines.append(
                f"stage {st.name}: seed={st.seed} gamma={g.real:+.17g}{g.imag:+.17g}i"
                f" tracked={st.tracked} kept={st.kept}"
            )
            for note in st.notes:
                lines.append(f"  note: {note}")
            for label, status, steps in st.outcomes:
                lines.append(f"  path {label}: {status.value} steps={steps}")
        lines.extend(self.summary_lines())
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SolveResult:
    candidates: tuple  # tuples of mpc coordinates at config.bits
    ledger: RunLedger


def _stage_config(cfg: HomotopyConfig, k: int) -> HomotopyConfig:
    """The config that tracks stage k of a run: cfg under the stage's seed."""
    return replace(cfg, seed=cfg.seed * 1000003 + k)


def _stage(ledger: RunLedger, name: str, cfg: HomotopyConfig) -> StageRecord:
    """Open a stage tracked under cfg: log its record, with its seed and gamma."""
    record = StageRecord(name, cfg.seed, _gamma_for_seed(cfg.seed))
    ledger.stages.append(record)
    return record


# ---------------------------------------------------------------------------
# Tracking on every core
#
# A task is (stage name, argument). Its function takes the solve's shared
# data, keyed by stage name, and the task, and returns a picklable
# (notes, (label, PathResult) pairs, (endpoint, polish or None) pairs).
# Forked workers hold the shared data already, so a task sends only a
# selection or a labelled start point.


def _worker_count() -> int:
    """The CPUs this process may run on, which bound the worker count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(conn, shared) -> None:
    """A forked worker's loop: run each (fn, task) that arrives on conn and
    send back (True, result) or (False, exception), until the parent
    closes its end."""
    while True:
        try:
            fn, task = conn.recv()
        except EOFError:
            return
        try:
            out = True, fn(shared, task)
        except Exception as exc:  # noqa: BLE001 - the parent re-raises it
            out = False, exc
        conn.send(out)


@contextlib.contextmanager
def _tasks(shared: dict, count: int):
    """Yield submit(fn, task), which starts fn(shared, task) and returns a
    handle: calling it gives the task's result.

    The tasks run in workers forked here, one per CPU in the affinity mask
    but no more than `count`, the first stage's task count, each fed over
    its own pipe. submit queues the task and sends the oldest queued one
    to a free worker at once; a handle waits on the busy workers' pipes,
    keeps what arrives and refills the freed workers until its own result
    is in, so no thread of the parent takes part. Every result depends on
    its task alone, so results read in task order, and what the caller
    builds from them, are bit for bit those of the serial route for any
    worker count and any completion order. The serial route runs each task
    in this process at once; it is taken with one worker, in a daemonic
    process (which may not have children), where fork is missing, and
    while other threads run (fork copies the calling thread alone, so a
    lock another thread holds would stay held in the workers). Fork, not
    spawn, lets the workers inherit the shared data and every program
    compiled before the fork instead of receiving them pickled. A handle
    raises its task's exception, or ChildProcessError naming the exit
    status of a worker that died. Workers leave through os._exit alone, so
    they never run the parent's finally blocks or flush its buffers; on
    the way out the parent closes every pipe and reaps every worker,
    killing them first when the caller raised.
    """
    # Imported here, as multiprocessing adds about 10% to `import expcert.cli`.
    import multiprocessing
    import signal
    from multiprocessing.connection import wait

    workers = min(_worker_count(), count)
    if (
        workers <= 1
        or multiprocessing.current_process().daemon
        or not hasattr(os, "fork")
        or threading.active_count() > 1
    ):
        def run(fn, task):
            done = fn(shared, task)
            return lambda: done
        yield run
        return
    pids, idle, busy, queue, results = {}, [], {}, deque(), {}
    order = itertools.count()

    def refill():
        while queue and idle:
            conn, (i, fn, task) = idle.pop(), queue.popleft()
            conn.send((fn, task))
            busy[conn] = i

    def result(i):
        while i not in results:
            for conn in wait(list(busy)):
                try:
                    results[busy.pop(conn)] = conn.recv()
                except EOFError:
                    conn.close()
                    code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(conn), 0)[1])
                    raise ChildProcessError(f"a worker died with exit status {code}") from None
                idle.append(conn)
            refill()
        ok, value = results.pop(i)
        if not ok:
            raise value
        return value

    def submit(fn, task):
        i = next(order)
        queue.append((i, fn, task))
        refill()
        return lambda: result(i)

    try:
        for _ in range(workers):
            conn, end = multiprocessing.Pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends the run
                    for other in (conn, *pids):
                        other.close()
                    _serve(end, shared)
                    os._exit(0)
                finally:
                    os._exit(1)
            end.close()
            pids[conn] = pid
            idle.append(conn)
        yield submit
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for conn in pids:
            conn.close()
        for pid in pids.values():
            os.waitpid(pid, 0)


def _polish(F: ExpSystem, point, bits: int):
    """Refine one endpoint by three multiprecision Newton steps at `bits`
    (newton_iterate) and certify it: (refined point, its dyadic (q, X), squared merge
    radius, the index of the first singular step or None).

    The radius is exact: the larger of the relative cut 1e-16 * max(1,
    ||z||^2) and the point's squared robustness radius (robust_radius_sq,
    0 unless it certifies with alpha < 3/100 and finite gamma); a
    certification that raises leaves the cut alone.
    """
    prec = PrecisionConfig(MODE_FLOAT, bits)
    with working_precision(bits):
        refined = tuple(mp.mpc(v) for v in point)
    refined, _, singular_at = newton_iterate(F, refined, 3, prec)
    try:
        cert = certify_solution(F, refined, prec)
    except Exception:  # noqa: BLE001 - any failure just disables the robust radius
        cert = None
    q, X = exact = dyadic_point(refined)
    radius = Fraction(max(q * q, sum(a * a + b * b for a, b in X)), 10**16 * q * q)
    if cert is not None:
        radius = max(radius, robust_radius_sq(cert))
    return refined, exact, radius, singular_at


def _merge_polished():
    """A first-fit filter of polishes ((point, (q, X), squared radius,
    ...)) on exact squared distances: a point merges into an earlier kept
    one within that one's radius."""
    return _first_fit(lambda p: p[2], lambda p, q: Fraction(*exact_sq_distance(p[1], q[1])))


def _path_task(shared: dict, task):
    """Track one start point of a stage. In the last stage, whose shared
    data name the system to polish against, also polish its endpoint
    (_polish)."""
    stage, (i, z0) = task
    Fstart, Ftarget, cfg, F = shared[stage]
    res = track_path(Fstart, Ftarget, z0, cfg)
    if res.status is not PathStatus.ENDPOINT:
        return [], [(str(i), res)], []
    polish = None if F is None else _polish(F, res.point, cfg.bits)
    return [], [(str(i), res)], [(res.point, polish)]


def _slice_task(shared: dict, task):
    """Restrict to one factor selection, track the slice's total-degree
    paths to its balanced rows (_balance) and lift their endpoints. A slice
    with a constant row is skipped; any other is square (_allowed_nus)."""
    stage, nu = task
    head, factors, links, N, cfg = shared[stage]
    nulabel = "nu=(" + ",".join(str(k) for k in nu) + ")"
    restricted = _restrict(head, nu, factors, links, N)
    if restricted is None:
        return [f"{nulabel}: constant row after restriction, skipped"], [], []
    S, free, pinned, affine = restricted
    degs = S.degrees
    start, S = _total_degree_system(degs, len(free)), _balance(S)
    outcomes, ends = [], []
    for idx, z0 in enumerate(_roots_of_unity_starts(degs)):
        res = track_path(start, S, z0, cfg)
        outcomes.append((f"{nulabel}#{idx}", res))
        if res.status is PathStatus.ENDPOINT:
            ends.append((_lift_slice_point(res.point, free, pinned, affine, N), None))
    return [], outcomes, ends


def _stream(submit, records, tasks):
    """Run a solve's stages through submit (_tasks); return the last
    stage's kept polishes and the candidates merged from them, in order.

    tasks are the first stage's (fn, task) pairs; records hold the stages
    in order. Each stage's results are read in task order: notes and
    outcomes are logged to its record, and each endpoint that passes the
    stage's first-fit filter (_dedup_native) is submitted at once as the
    next stage's path task, labelled by its index, so a later stage starts
    while the one before is still running. The last stage's kept polishes
    merge (_merge_polished) as they are read, while the workers track.
    """
    handles = [submit(fn, task) for fn, task in tasks]
    merge, candidates = _merge_polished(), []
    for k, record in enumerate(records):
        after = records[k + 1].name if k + 1 < len(records) else None
        keep, kept = _dedup_native(), []
        for handle in handles:
            notes, outcomes, ends = handle()
            record.notes += notes
            for label, res in outcomes:
                record.log(label, res)
            for point, polish in ends:
                if not keep(point):
                    continue
                if after is not None:
                    polish = submit(_path_task, (after, (len(kept), point)))
                elif merge(polish):
                    candidates.append(polish[0])
                kept.append(polish)
        record.kept, handles = len(kept), kept
    return handles, tuple(candidates)


def solve_by_deformation(F, degrees, cfg: HomotopyConfig) -> SolveResult:
    """Generate candidate solutions of F by the full deformation pipeline.

    With links present: truncate, draw the link factors once, solve the
    slices of the linear-product start system built from them, carry the
    solutions to the truncated system and on to F. Without links this is a
    total-degree continuation of the polynomial part (ValidationError when
    there is no variable). Paths are tracked on every CPU in the affinity
    mask (_tasks), and the task that tracks a path of the last stage
    polishes its endpoint at cfg.bits (_polish), with the same result for
    any worker count. The parent deduplicates the endpoints and merges the
    polished ones as it reads them (_stream); everything random is derived
    from cfg.seed and recorded in the returned ledger.
    """
    F = as_exp_system(F)
    degrees = tuple(int(d) for d in degrees)
    ledger = RunLedger(cfg, degrees)
    if F.m == 0:
        if degrees:
            raise DimensionMismatch(f"got {len(degrees)} degrees for a link-free system")
        if F.N == 0:
            raise ValidationError("a solve needs at least one variable")
        if any(d < 1 for d in F.P.degrees):
            raise ValidationError("every polynomial must have positive degree")
        degs = F.P.degrees
        target = _stage_config(cfg, 3)
        shared = {"total-degree": (_total_degree_system(degs, F.P.nv), _balance(F.P), target, F)}
        records = [_stage(ledger, "total-degree", target)]
        starts = enumerate(_roots_of_unity_starts(degs))
        tasks = [(_path_task, ("total-degree", start)) for start in starts]
    else:
        Fp = taylor_truncate(F, degrees)
        counts = _link_x_degrees(Fp, F.links)
        factors = _draw_factors(F.links, counts, cfg.seed)
        for i, (link, facs) in enumerate(zip(F.links, factors)):
            parts = [f"a={facs[0].a}"] + [f"b{j + 1}={fac.b}" for j, fac in enumerate(facs)]
            ledger.factor_lines.append(
                f"link {i + 1} ({link.kind.value}, src {link.src}): " + ", ".join(parts)
            )
        selections = _allowed_nus(F.links, counts)
        product_system = linear_product_start(Fp, F.links, factors)
        ledger.notes.append(
            f"slices: {len(selections)} factor selections after pruning "
            f"(source degrees {', '.join(str(c) for c in counts)})"
        )
        slices, product, target = (_stage_config(cfg, k) for k in (1, 2, 3))
        shared = {
            "slice-continuation": (Fp.polys[: F.n], factors, F.links, F.N, slices),
            "product-to-truncated": (product_system, Fp, product, None),
            "truncated-to-target": (Fp, F, target, F),
        }
        # Compiled before the workers fork, the two steps are inherited by every
        # worker instead of compiled in each.
        for Fstart, Ftarget, _, _ in (shared["product-to-truncated"], shared["truncated-to-target"]):
            _step_program(compile_system(Fstart), compile_system(Ftarget))
        records = [_stage(ledger, name, c) for name, c in zip(shared, (slices, product, target))]
        tasks = [(_slice_task, ("slice-continuation", nu)) for nu in selections]
    # Generated before the workers fork, F's polishing program is inherited by
    # every worker instead of generated in each.
    compile_system(F, PrecisionConfig(MODE_FLOAT, cfg.bits))._evaluate_fn
    with _tasks(shared, len(tasks)) as submit:
        polished, candidates = _stream(submit, records, tasks)
    for *_, singular_at in polished:
        if singular_at is not None:
            ledger.notes.append(
                f"candidate refinement hit a singular Jacobian at step {singular_at}"
            )
    ledger.candidate_count = len(candidates)
    return SolveResult(candidates, ledger)
