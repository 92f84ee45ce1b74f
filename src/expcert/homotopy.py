"""Candidate generation by truncation and coefficient deformation.

Each link row y = g(c*x) is replaced by its Maclaurin truncation, giving a
square polynomial system. A linear-product start system tailored to the
truncated link rows is solved slice by slice, and its solutions are carried
to the truncated system and then to the original system along straight-line
deformations

    H(z, t) = (1 - t) * Ftarget(z) + gamma * t * Fstart(z),    t: 1 -> 0,

with gamma a random unit-modulus constant derived from the recorded seed.
Path tracking runs in hardware doubles (Euler predictor, Newton corrector,
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
together, with constant entries folded. It then builds the augmented
matrix [H_z | rhs], solves it by partial pivoting with the column loops
and the pivot search unrolled and the row loops kept, so the source is
O(n^2) (_elimination_lines), and returns the tangent, or the corrected
point with the norms of the Newton step and of the point. The tracker
evaluates the tangent once per accepted point; a rejected step retries
with it. The same function is the tracker's only double-precision Newton
kernel: at t = 0 its corrector is the target's Newton step, which the
final sharpening and the stall rescue take. Every operation is that of the
loops the function replaces, in their order, so paths, ledgers and
candidates are bit for bit what the loops gave, and the first exception
raised is the same. The source holds names and integer indices only;
coefficients, gamma and link functions enter as bound objects or
arguments.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath as mp

from .certify import certify_solution, same_root
from .errors import DimensionMismatch, ValidationError
from .expsystems import (
    CompiledSystem,
    ExpKind,
    ExpSystem,
    as_exp_system,
    compile_system,
    define_function,
)
from .polynomials import (
    Polynomial,
    PolynomialSystem,
    compose,
    constant,
    padd,
    pmul,
    pscale,
    variable,
)
from .refine import newton_refine
from .scalars import EC_ONE, MODE_FLOAT, ExactComplex, PrecisionConfig, working_precision

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

    degrees has one positive entry per link. The result is the square
    polynomial system with the original polynomial rows first, then one row
    y_dst - T(g)(c * x_src) per link, all in the same n + m variables.
    """
    F = as_exp_system(F)
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) != F.m:
        raise DimensionMismatch(f"got {len(degrees)} degrees for {F.m} links")
    if any(d < 1 for d in degrees):
        raise ValidationError("truncation degrees must be positive")
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
    b: ExactComplex

    def __post_init__(self):
        for name in ("a", "b"):
            v = getattr(self, name)
            if not isinstance(v, ExactComplex):
                object.__setattr__(self, name, ExactComplex.of(v))
        if self.b.is_zero():
            raise ValidationError("factor coefficient b must be nonzero")


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
    so the slice is empty for generic draws and is dropped up front.
    """
    out = []
    for nu in itertools.product(*[range(1, r + 1) for r in counts]):
        ok = True
        for i in range(len(links)):
            for j in range(i + 1, len(links)):
                if links[i].src == links[j].src and nu[i] > 1 and nu[j] > 1:
                    ok = False
        if ok:
            out.append(nu)
    return tuple(out)


def _factor_row(nv: int, link, fac: LinearFactor) -> Polynomial:
    items = [(fac.b, tuple(1 if v == link.src - 1 else 0 for v in range(nv)))]
    items.append((EC_ONE, (0,) * nv))
    if not fac.a.is_zero():
        items.append((fac.a, tuple(1 if v == link.dst - 1 else 0 for v in range(nv))))
    return Polynomial.from_terms(nv, items)


def linear_product_start(Fp: PolynomialSystem, links, degrees, seed: int):
    """Start data for the truncated system: selections and the product system.

    For link i with truncated row of source degree r_i, the product row is
    L_{i,1} * ... * L_{i,r_i} with L_{i,1} = a_i*y + b_{i,1}*x + 1 and
    L_{i,j} = b_{i,j}*x + 1 for j >= 2; its support covers the truncated
    row's. Returns (selections, product_system): a selection nu picks factor
    nu[i] of each link, and its slice keeps the polynomial rows and replaces
    link row i by that factor; selections are pruned as in _allowed_nus.
    All coefficients are drawn from the seed alone.
    """
    counts = _link_x_degrees(Fp, links)
    if len(degrees) != len(links):
        raise DimensionMismatch(f"got {len(degrees)} degrees for {len(links)} links")
    factors = _draw_factors(links, counts, seed)
    nv = Fp.nv
    prod_rows = list(Fp.polys[: Fp.n - len(links)])
    for i, link in enumerate(links):
        acc = _factor_row(nv, link, factors[i][0])
        for fac in factors[i][1:]:
            acc = pmul(acc, _factor_row(nv, link, fac))
        prod_rows.append(acc)
    return _allowed_nus(links, counts), PolynomialSystem(tuple(prod_rows))


# ---------------------------------------------------------------------------
# Native-precision tracking


class _NativeSingular(Exception):
    pass


def _elimination_lines(n: int) -> list:
    """Partial-pivoting solve of the n-row augmented system [A | b] held in
    the rows of M, as straight-line source that leaves x in x0..x{n-1}.

    The same elimination as a loop over columns, rows and entries, with the
    column loops and the pivot search unrolled and the row updates kept as
    loops, so the source grows as O(n^2): the pivot search, the singularity
    test and the row swap run as they would in the loop; the pivot row's
    tail goes into locals before the rows below are updated entry by entry,
    and back substitution runs on those locals. Each operation is the
    loop's, in the loop's order, so results and raises are the loop's bit
    for bit. The last column's reciprocal, which the loop computed and
    never used, is left out; it cannot raise, as its pivot passed the
    singularity test. M's rows are updated in place. Its one user is
    _step_program, whose step at t = 0 also sharpens every endpoint and
    rescues stalled paths.
    """
    lines = []
    for c in range(n):
        lines.append(f"piv, best = {c}, abs(M[{c}][{c}])")
        for r in range(c + 1, n):
            lines += [f"a = abs(M[{r}][{c}])", "if a > best:", f"    piv, best = {r}, a"]
        lines += ["if best < 1e-250:", "    raise _NativeSingular"]
        if c + 1 < n:
            lines += [f"if piv != {c}:", f"    M[{c}], M[piv] = M[piv], M[{c}]"]
        lines.append(f"Mc = M[{c}]")
        lines += [f"u{c}_{k} = Mc[{k}]" for k in range(c, n + 1)]
        if c + 1 < n:
            lines += [
                f"inv = 1.0 / u{c}_{c}",
                f"for r in range({c + 1}, {n}):",
                "    Mr = M[r]",
                f"    f = Mr[{c}] * inv",
                "    if f:",
            ]
            lines += [f"        Mr[{k}] -= f * u{c}_{k}" for k in range(c + 1, n + 1)]
    for i in range(n - 1, -1, -1):
        lines.append(f"acc = u{i}_{n}")
        lines += [f"acc -= u{i}_{k} * x{k}" for k in range(i + 1, n)]
        lines.append(f"x{i} = acc / u{i}_{i}")
    return lines


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
_SHARPEN_TOL = 1e-13
_MAX_STEPS = 20000
_GROWTH_STREAK = 4
_GROWTH_FACTOR = 1.5
_STALL_T = 1e-2
_STALL_TOL = 1e-9
_STALL_ITERS = 8


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
    powers z_i ** e both use computed once (CompiledSystem.body), builds
    [H_z | rhs] and solves it by the elimination of _elimination_lines.
    rhs is H_t(z) = G * Fstart(z) - Ftarget(z) for the predictor (tangent
    true), which returns the solution x as a list, and H(z, t) for the
    corrector, which returns (z - x, ||x||, ||z - x||). Each Jacobian entry
    is s * b + g * a from the target and start entries b and a, with 0j
    for a side outside its system's pattern; entries outside both patterns
    are 0j, which is what that expression gives for a = b = 0j since
    s = 1 - t >= 0. Each norm is the sum of abs(v) ** 2 left to right, the
    additions sum() makes on Python 3.11, and its ** raises OverflowError
    as _norm's does. Every operation is that of evaluating, eliminating
    and updating in turn, in that order, so results and the first raise are
    theirs bit for bit. G is an argument, so one function serves every
    stage seed of a system pair. At t = 0, s = 1 and g = 0, so the
    corrector is the target's own Newton update (z - x, ||x||, ||z - x||),
    up to the sign of a zero part: the final sharpening and the stall
    rescue call it there. The start body still runs, so a power of the
    start system that overflows raises there too.
    """
    namespace = {"_NativeSingular": _NativeSingular, "sqrt": math.sqrt}
    shared = {}
    lines, fa, ja = cs.body("a", namespace, shared=shared)
    lines_b, fb, jb = ct.body("b", namespace, shared=shared)
    lines = cs.unpack() + lines + lines_b
    ka, kb = dict(zip(cs.pattern, ja)), dict(zip(ct.pattern, jb))
    lines += ["s = 1.0 - t", "g = G * t", "if tangent:"]
    lines += [f"    r{i} = G * {a} - {b}" for i, (a, b) in enumerate(zip(fa, fb))]
    lines.append("else:")
    lines += [f"    r{i} = s * {b} + g * {a}" for i, (a, b) in enumerate(zip(fa, fb))]
    n = cs.size
    rows = []
    for r in range(n):
        cells = []
        for j in range(n):
            a, b = ka.get((r, j)), kb.get((r, j))
            cells.append("0j" if a is None and b is None else f"s * {b or '0j'} + g * {a or '0j'}")
        rows.append("[" + ", ".join(cells + [f"r{r}"]) + "]")
    lines.append("M = [" + ", ".join(rows) + "]")
    lines += _elimination_lines(n)
    x = [f"x{i}" for i in range(n)]
    y = [f"y{i}" for i in range(n)]
    lines += ["if tangent:", f"    return [{', '.join(x)}]"]
    lines += [f"y{i} = z{i} - x{i}" for i in range(n)]
    lines.append(f"return [{', '.join(y)}], {_norm_expr(x)}, {_norm_expr(y)}")
    return define_function("step", "z, t, tangent, G", lines, namespace)


def _correct(step, gamma: complex, z, t):
    """Newton iterations at fixed t: (z, ||z||), or None when convergence
    is not accepted."""
    prev = None
    for _ in range(_MAX_CORRECTIONS):
        z, ns, nz = step(z, t, False, gamma)
        if ns <= _CORRECT_TOL * max(1.0, nz):
            return z, nz
        if prev is not None and ns > _CONTRACTION * prev:
            return None
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


def track_path(Fstart, Ftarget, z0, cfg: HomotopyConfig) -> PathResult:
    """Track one root of Fstart to t = 0 along the straight-line deformation.

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
                zc = _correct(step, gamma, [a + h * b for a, b in zip(z, v)], tn)
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
                            PathStatus.ENDPOINT,
                            tuple(rescued),
                            steps,
                            f"sharpened from a stall at t={t:.1e}",
                        )
                return PathResult(PathStatus.FAILED, None, steps, "step size underflow")
            continue
        (z, nz), t, fresh = zc, tn, True
        if not math.isfinite(nz) or nz > _BLOWUP:
            return PathResult(PathStatus.DIVERGED, None, steps, "norm above blowup")
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
    """
    pinned, affine = _slice_maps(nu, factors, links)
    free = [v for v in range(N) if v not in pinned and v not in affine]
    pos = {v: i for i, v in enumerate(free)}
    nfree = len(free)
    subs = {}
    for v in free:
        subs[v] = variable(nfree, pos[v])
    for v, c in pinned.items():
        subs[v] = constant(nfree, c)
    for v, (c0, c1, s) in affine.items():
        base = constant(nfree, pinned[s]) if s in pinned else variable(nfree, pos[s])
        subs[v] = padd(constant(nfree, c0), pscale(base, c1))
    rows = []
    for p in head:
        q = compose(p, subs, nfree)
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


def _lift_slice_point(sol, free, pinned, affine, N):
    full = [0j] * N
    for v, val in zip(free, sol):
        full[v] = val
    for v, c in pinned.items():
        full[v] = complex(c)
    for v, (c0, c1, s) in affine.items():
        full[v] = complex(c0) + complex(c1) * full[s]
    return tuple(full)


def _dedup_native(points, rel=1e-8):
    kept = []
    for p in points:
        dup = False
        for q in kept:
            if _norm([a - b for a, b in zip(p, q)]) <= rel * max(1.0, _norm(q)):
                dup = True
                break
        if not dup:
            kept.append(p)
    return kept


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

    @property
    def tracked(self) -> int:
        return len(self.outcomes)

    def count(self, status: PathStatus) -> int:
        return sum(1 for _, s, _ in self.outcomes if s is status)


@dataclass
class RunLedger:
    """Replayable record of one deformation run: every draw and every path."""

    seed: int
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
        lines = ["solve run ledger", "format: 1", f"seed: {self.seed}"]
        lines.append(
            f"config: dt_init={_DT_INIT!r} dt_min={_DT_MIN!r}"
            f" max_corrections={_MAX_CORRECTIONS}"
            f" contraction_threshold={_CONTRACTION!r}"
            f" endpoint_tol={_ENDPOINT_TOL!r} blowup={_BLOWUP!r} bits={self.config.bits}"
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


def _stage_seed(seed: int, k: int) -> int:
    return seed * 1000003 + k


def _stage(ledger: RunLedger, name: str, cfg: HomotopyConfig, k: int):
    """Open stage k of a run: log its record, with the stage seed and its
    gamma, and return it with the config that tracks under that seed."""
    seed = _stage_seed(cfg.seed, k)
    record = StageRecord(name, seed, _gamma_for_seed(seed))
    ledger.stages.append(record)
    return record, replace(cfg, seed=seed)


def _track_stage(record: StageRecord, cfg: HomotopyConfig, Fstart, Ftarget, starts):
    """Track every start, log outcomes under the start's index, and return
    deduplicated endpoints."""
    ends = []
    for i, z0 in enumerate(starts):
        res = track_path(Fstart, Ftarget, z0, cfg)
        record.outcomes.append((str(i), res.status, res.steps))
        if res.status is PathStatus.ENDPOINT:
            ends.append(res.point)
    kept = _dedup_native(ends)
    record.kept = len(kept)
    return kept


def _solve_slices(record: StageRecord, cfg: HomotopyConfig, head, selections, factors, links, N):
    """Solve every slice by total-degree continuation and lift the solutions."""
    sols = []
    for nu in selections:
        restricted = _restrict(head, nu, factors, links, N)
        nulabel = "nu=(" + ",".join(str(k) for k in nu) + ")"
        if restricted is None:
            record.notes.append(f"{nulabel}: constant row after restriction, skipped")
            continue
        S, free, pinned, affine = restricted
        if S.n != len(free):
            record.notes.append(f"{nulabel}: not square after restriction, skipped")
            continue
        if len(free) == 0:
            sols.append(_lift_slice_point((), free, pinned, affine, N))
            record.outcomes.append((nulabel, PathStatus.ENDPOINT, 0))
            continue
        degs = S.degrees
        start = _total_degree_system(degs, len(free))
        for idx, z0 in enumerate(_roots_of_unity_starts(degs)):
            res = track_path(start, S, z0, cfg)
            record.outcomes.append((f"{nulabel}#{idx}", res.status, res.steps))
            if res.status is PathStatus.ENDPOINT:
                sols.append(_lift_slice_point(res.point, free, pinned, affine, N))
    kept = _dedup_native(sols)
    record.kept = len(kept)
    return kept


def _polish(F: ExpSystem, points, cfg: HomotopyConfig, ledger: RunLedger):
    """Refine endpoints at full precision and merge the ones provably equal.

    Each surviving endpoint gets a short multiprecision Newton run; a new
    point is folded into an earlier one when the earlier point certifies
    with margin and the membership test says both lie in the same basin,
    falling back to a relative distance cut when certification is out of
    reach. Candidates are reported in path order.
    """
    prec = PrecisionConfig("float", cfg.bits)
    reps = []  # (point, certificate or None)
    with working_precision(cfg.bits):
        lifted = [tuple(mp.mpc(v) for v in p) for p in points]
    for z in lifted:
        refined, table = newton_refine(F, z, 3, prec)
        if table.singular_at is not None:
            ledger.notes.append(
                f"candidate refinement hit a singular Jacobian at step {table.singular_at}"
            )
        cert = None
        try:
            cert = certify_solution(F, refined, prec)
        except Exception:  # noqa: BLE001 - any failure just disables merging
            cert = None
        dup = False
        for rz, rcert in reps:
            merged = False
            if rcert is not None and rcert.certified_approximate:
                try:
                    merged = same_root(F, rcert, rz, refined, prec)
                except Exception:  # noqa: BLE001 - non-robust alpha, singular, ...
                    merged = False
            if not merged:
                with working_precision(cfg.bits):
                    d = mp.sqrt(
                        sum((abs(a - b)) ** 2 for a, b in zip(rz, refined))
                    )
                    scale = max(mp.mpf(1), mp.sqrt(sum(abs(a) ** 2 for a in rz)))
                merged = d <= mp.mpf("1e-8") * scale
            if merged:
                dup = True
                break
        if not dup:
            reps.append((refined, cert))
    return tuple(z for z, _ in reps)


def solve_by_deformation(F, degrees, cfg: HomotopyConfig) -> SolveResult:
    """Generate candidate solutions of F by the full deformation pipeline.

    With links present: truncate, solve the linear-product slices, carry the
    solutions to the truncated system and on to F. Without links this is a
    plain total-degree continuation of the polynomial part. Endpoints are
    polished at cfg.bits and deduplicated; everything random is derived from
    cfg.seed and recorded in the returned ledger.
    """
    F = as_exp_system(F)
    degrees = tuple(int(d) for d in degrees)
    ledger = RunLedger(cfg.seed, cfg, degrees)
    if F.m == 0:
        if degrees:
            raise DimensionMismatch(f"got {len(degrees)} degrees for a link-free system")
        if F.P.n != F.P.nv:
            raise ValidationError("total-degree continuation needs a square system")
        if any(d < 1 for d in F.P.degrees):
            raise ValidationError("every polynomial must have positive degree")
        degs = F.P.degrees
        start = _total_degree_system(degs, F.P.nv)
        ends = _track_stage(
            *_stage(ledger, "total-degree", cfg, 3), start, F.P, _roots_of_unity_starts(degs)
        )
        candidates = _polish(F, ends, cfg, ledger)
        ledger.candidate_count = len(candidates)
        return SolveResult(candidates, ledger)

    Fp = taylor_truncate(F, degrees)
    counts = _link_x_degrees(Fp, F.links)
    factors = _draw_factors(F.links, counts, cfg.seed)
    for i, (link, facs) in enumerate(zip(F.links, factors)):
        parts = [f"a={facs[0].a}"] + [f"b{j + 1}={fac.b}" for j, fac in enumerate(facs)]
        ledger.factor_lines.append(
            f"link {i + 1} ({link.kind.value}, src {link.src}): " + ", ".join(parts)
        )
    selections, product_system = linear_product_start(Fp, F.links, degrees, cfg.seed)
    ledger.notes.append(
        f"slices: {len(selections)} factor selections after pruning "
        f"(source degrees {', '.join(str(c) for c in counts)})"
    )
    head = Fp.polys[: F.n]
    start_sols = _solve_slices(
        *_stage(ledger, "slice-continuation", cfg, 1), head, selections, factors, F.links, F.N
    )
    fp_sols = _track_stage(
        *_stage(ledger, "product-to-truncated", cfg, 2), product_system, Fp, start_sols
    )
    ends = _track_stage(*_stage(ledger, "truncated-to-target", cfg, 3), Fp, F, fp_sols)

    candidates = _polish(F, ends, cfg, ledger)
    ledger.candidate_count = len(candidates)
    return SolveResult(candidates, ledger)
