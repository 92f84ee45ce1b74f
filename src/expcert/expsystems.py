"""Square systems mixing polynomials with exponential-type links.

A system of size N = n + m consists of n polynomials P in the N variables
z = (x_1..x_n, y_1..y_m) together with m links, each defining one trailing
variable as an elementary function of one leading variable:

    F(z) = [ P(z); z_dst - g(c * z_src) ]   with g in {exp, sin, cos, sinh, cosh}.

F and its Jacobian are evaluated by one compiled program per system and
scalar kind (CompiledSystem, cached by compile_system): the powers z_i^e,
each row and each nonzero Jacobian entry a list of (coefficient, power
indices) terms, constant entries folded. The same program serves every
kind: hardware doubles for the path tracker, mpc at a float precision for
refinement (value_and_jacobian, mpc only), and the Gaussian integers for every
certificate (exact_core), at exact points and at float points read as their
dyadic values; that kind leaves out the link rows. The kind sets how
coefficients are lifted, the zero each sum starts from, whether links call
cmath or mpmath, and one rounding order: doubles take c * x^a * y^b, the other kinds
c * (x^a * y^b), which keeps both the tracker and the certificates bit for
bit as they were.

The exact kind forms no Fraction: row r, times the lcm L_r of its
denominators and homogenized to degree D_r in one more variable, is
evaluated at (d z, d), d the lcm of z's denominators. The integer results
are F_r = N_r / (L_r d^D_r) and J_rj = M_rj / (L_r d^(D_r - 1)): the
exact core, which fraction_free_rows reduces to the rows of
linalg.solve_fraction_free without links, and which with them goes to
linalg.inverse_column_bounds and linalg.product_norm_sq as it is.

The program runs as generated Python: straight-line source, one local per
power and per monomial product, one statement per term, compiled with
compile/exec once per distinct source text (define_function). Each
statement is one operation of the term lists, in their order and from the
same zero, so the results are bit for bit those of a loop over the lists,
and so are the exceptions, which only the powers and the link functions
raise, in that order. The source holds names and integer indices only:
coefficients, zeros, link functions and folded entries are bound objects,
so no text of an input file ever reaches compile. The homotopy tracker
generates its step from the same bodies (CompiledSystem.body), with the
powers the two bodies share computed once.

The curvature bound lives here, for link-free and linked systems alike.
Both forms start from the conditioning factor

    mu^2 = max{1, ||Df(z)^{-1} Delta||_F^2},

where Delta is diagonal with entries ||P|| * sqrt(d_i) * ||z||_1^(d_i - 1)
for the polynomial rows and 1 for the link rows, ||P|| is the weighted
coefficient norm and D the maximal degree. Without links (m = 0) the bound
is the polynomial one,

    gamma(f, z)^2  <=  mu^2 * D^3 / (4 * ||z||_1^2),

formed as one Fraction from integers (integer_gamma_bound_sq) on the
exact core, whose point is rational in both modes, so the bound is exact.
With links it is mu * (D^(3/2) / (2 ||z||_1) + sum of per-kind link
envelope terms), the term of y = g(c x) being max(|c|, |c|^2 |f(c x)| / 2
over g's family f: exp; sin and cos; sinh and cosh). Both take one bound
per column on sum_i |(Df(z)^{-1})_ij|^2, which is all that mu needs:
exact integer sums over |d|^2 without links, double-precision column
bounds with them, which are integers over a power of two. Either way one
function forms mu^2 exactly, as a pair of integers (_mu_sq).

A linked system is bounded on the same exact core (exact_core,
linked_gamma_bound_sq), whose link rows hold the exact z_dst and unit
entries. The 2m irrational numbers g(c z_src) and c g'(c z_src) are
enclosed by mpmath's interval exp and cos/sin (sinh and cosh built from
exp) a few bits above the working precision; their midpoints complete
the exact F0 and J0, and their radii bound F - F0 and Df - J0. The column
bounds then come from a double-precision inverse of J0
(linalg.inverse_column_bounds), and the envelope terms from the
enclosures' upper ends; every step after the exact mu^2 rounds outward.

Link functions have no exact values: exp/sin/... of a nonzero rational is
irrational, so rational mode is rejected whenever m > 0.
"""

from __future__ import annotations

import cmath
import enum
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath as mp
from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    mpi_add,
    mpi_cos_sin,
    mpi_div,
    mpi_exp,
    mpi_mul,
    mpi_neg,
    mpi_sub,
    round_ceiling,
    round_floor,
)
from mpmath.libmp.libmpi import mpi_one, mpi_shift

from .errors import DimensionMismatch, ExactModeUnsupported, ValidationError
from .linalg import CVector, _GaussianInt
from .polynomials import (
    Memo,
    Polynomial,
    PolynomialSystem,
    bw_norm_sq,
    memo_hash,
)
from .scalars import (
    MODE_RATIONAL,
    ExactComplex,
    PrecisionConfig,
    dyadic_point,
    exact_to_mpc,
    integer_point,
    lift_point,
    working_precision,
)


class ExpKind(enum.Enum):
    EXP = "exp"
    SIN = "sin"
    COS = "cos"
    SINH = "sinh"
    COSH = "cosh"


@dataclass(frozen=True)
class ExpLink:
    """One link y_dst = g(c * x_src); indices are 1-based as in file syntax."""

    kind: ExpKind
    c: ExactComplex
    src: int
    dst: int

    def __post_init__(self):
        if not isinstance(self.kind, ExpKind):
            raise ValidationError(f"unknown link kind {self.kind!r}")
        if not isinstance(self.c, ExactComplex):
            object.__setattr__(self, "c", ExactComplex.of(self.c))


@dataclass(frozen=True)
class ExpSystem:
    """n polynomials in n + m variables plus m links; square of size N = n + m."""

    P: PolynomialSystem
    links: tuple

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        n, m = self.n, self.m
        if self.P.polys and self.P.nv != n + m:
            raise ValidationError(
                f"polynomial part has {self.P.nv} variables, expected n + m = {n + m}"
            )
        seen = set()
        for link in self.links:
            if not 1 <= link.src <= n:
                raise ValidationError(f"link source index {link.src} outside 1..{n}")
            if not n + 1 <= link.dst <= n + m:
                raise ValidationError(f"link target index {link.dst} outside {n + 1}..{n + m}")
            if link.dst in seen:
                raise ValidationError(f"link target index {link.dst} used twice")
            seen.add(link.dst)

    def __hash__(self):
        return memo_hash(self, (self.P, self.links))

    @property
    def n(self) -> int:
        return self.P.n

    @property
    def m(self) -> int:
        return len(self.links)

    @property
    def N(self) -> int:
        return self.n + self.m


def as_exp_system(F) -> ExpSystem:
    """Wrap a bare polynomial system as a link-free ExpSystem."""
    if isinstance(F, ExpSystem):
        return F
    if isinstance(F, PolynomialSystem):
        return ExpSystem(F, ())
    raise TypeError(f"expected a system, got {type(F).__name__}")


# ---------------------------------------------------------------------------
# The compiled program: F(z) and Df(z) for every scalar kind

# Each link kind as (g, the function that gives g', its sign): exp' = exp,
# sin' = cos, cos' = -sin, sinh' = cosh, cosh' = sinh. The names resolve in
# cmath for hardware doubles and in mpmath for mpc.
_LINK_FUNCTIONS = {
    ExpKind.EXP: ("exp", "exp", 1.0),
    ExpKind.SIN: ("sin", "cos", 1.0),
    ExpKind.COS: ("cos", "sin", -1.0),
    ExpKind.SINH: ("sinh", "cosh", 1.0),
    ExpKind.COSH: ("cosh", "sinh", 1.0),
}


def _scalar_kind(prec: PrecisionConfig | None):
    """(coefficient lift, zero, one, link function library) of a scalar kind.

    None is hardware doubles (complex), a float PrecisionConfig is mpc at its
    bits, and a rational one Gaussian integers, which have no link functions.
    """
    if prec is None:
        return complex, 0j, 1.0 + 0j, cmath
    if prec.is_exact:
        return (lambda c: _GaussianInt(int(c.re), int(c.im)) if c.im else int(c.re)), 0, 1, None
    return (lambda c: exact_to_mpc(c, prec.bits)), mp.mpc(0), mp.mpc(1), mp


@lru_cache(maxsize=128)
def _compiled(src: str):
    """The code object of one generated source, compiled once per text.

    The file name is a checksum of the source, so profilers, which key
    functions by file, line and name, keep different sources apart while
    every function made from one source shares one entry.
    """
    return compile(src, f"<expcert {zlib.crc32(src.encode()):08x}>", "exec")


def define_function(name: str, params: str, lines, namespace: dict):
    """Define one generated function whose globals are `namespace`.

    `lines` is the body, indented relative to the function. The generators
    format only names and integer indices into it; every other object
    (coefficient, zero, link function, gamma) is bound in `namespace`. So
    systems of one structure, such as slices of one shape, give the same
    text: it is compiled once (_compiled) and executed into each namespace,
    which makes a function bit for bit the one a fresh compile would give.
    """
    src = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines)
    exec(_compiled(src), namespace)
    return namespace.pop(name)


class CompiledSystem:
    """Straight-line program for the value and the Jacobian of one system.

    Every distinct power z[i] ** e used by a value row or by a structurally
    nonzero Jacobian entry is computed once per evaluation into a local;
    rows and entries are (coefficient, power-index tuple) term lists summed
    from the kind's zero in the term order of the symbolic polynomial and
    its derivative. Entries with only constant terms are folded at compile
    time. `pattern` lists the (row, column) of every structurally nonzero
    entry, in the order `evaluate` returns them; all other entries are
    `zero`. The scalar kind (see _scalar_kind) sets how coefficients are
    lifted, the zero each sum starts from and the link functions (exact
    rows as in the module docstring, with (L_r, D_r) in `row_scales`; the
    exact kind has no link functions and compiles the polynomial rows
    alone). It also
    sets one rounding order: in hardware doubles a term is c * x^a * y^b,
    left to right, as the tracker has always computed it; mpc and exact
    programs multiply each monomial out once in the table, x^a * y^b, and
    take c * (x^a * y^b), as certification has always computed it, so
    both keep their results bit for bit. Floating kinds evaluate at the
    caller's working precision. Exact programs also hold the system
    constant ||P||^2 of the curvature bound (p_norm_sq), a Fraction, so the
    bound does not rebuild it per point.
    `value` and `evaluate` run functions generated from the term lists
    (body), each on its first call.
    """

    def __init__(self, system, prec: PrecisionConfig | None = None):
        F = as_exp_system(system)
        lift, self.zero, self.one, lib = _scalar_kind(prec)
        self.size, polys, self.row_scales = F.N, F.P.polys, []
        if prec is not None and prec.is_exact:  # rows times L_r, homogenized in z_N = d
            self.size, polys = F.N + 1, []
            for p in F.P.polys:
                L = math.lcm(*(q.denominator for c, _ in p.terms for q in (c.re, c.im)))
                D = max(p.degree, 1)
                self.row_scales.append((L, D))
                polys.append(Polynomial.from_terms(self.size, [
                    (c * L, m.exponents + (D - m.total_degree,)) for c, m in p.terms]))
        powers = {}

        def compile_terms(p: Polynomial):
            return tuple(
                (
                    lift(c),
                    tuple(
                        powers.setdefault((i, e), len(powers))
                        for i, e in enumerate(m.exponents)
                        if e
                    ),
                )
                for c, m in p.terms
            )

        self.rows = [compile_terms(p) for p in polys]
        self.entries = []
        entry_pos, folded_pos, self.folded = [], [], []
        for r, p in enumerate(polys):
            for j in range(F.N):
                terms = compile_terms(p.derivative(j))
                if not terms:
                    continue
                if all(not idx for _, idx in terms):
                    total = self.zero
                    for c, _ in terms:
                        total += c
                    folded_pos.append((r, j))
                    self.folded.append(total)
                else:
                    entry_pos.append((r, j))
                    self.entries.append(terms)
        self.powers = tuple(powers)
        self.products = ()
        if prec is not None:  # c * (x^a * y^b): monomials go into the table
            products = {}

            def regroup(terms):
                return tuple(
                    (c, (len(powers) + products.setdefault(idx, len(products)),))
                    if len(idx) > 1 else (c, idx)
                    for c, idx in terms
                )

            self.rows = [regroup(t) for t in self.rows]
            self.entries = [regroup(t) for t in self.entries]
            self.products = tuple(products)
        self.lib, self.links = lib, []
        link_pos = []
        for k, l in enumerate(F.links if lib else ()):  # exact: the link rows are exact_core's
            g, dg, sign = _LINK_FUNCTIONS[l.kind]
            s, d = l.src - 1, l.dst - 1
            self.links.append((g, dg, sign, lift(l.c), s, d))
            link_pos += [(F.n + k, s), (F.n + k, d)]
        self.pattern = tuple(entry_pos + link_pos + folded_pos)
        self.p_norm_sq = bw_norm_sq(F.P) if prec is not None and prec.is_exact else None

    def body(self, pre: str, namespace: dict, jacobian: bool = True, shared=None):
        """Straight-line source that evaluates the program at z into locals.

        The lines read the coordinates from locals z0, z1, ..., which the
        caller binds. Returns (lines, value names, entry names in `pattern`
        order; no entries when jacobian is False). Every other local and
        bound name starts with `pre`, so two programs can share one
        function. Coefficients, the zero, the one, link functions and
        folded entries are bound in `namespace`; only integer indices are
        formatted into the text. `shared`, when given, maps (i, e) to a
        local that already holds z_i ** e: such powers are reused rather
        than computed, and every power this body computes is added to it.

        The lines run the operations of the term lists in their order: each
        power z_i ** e once, each monomial product left to right, then each
        row and entry as t = Z + c * p * q followed by one t += ... per term
        (one statement per term, so a long row never becomes one deeply
        nested expression), then the link rows. A reused power is the value
        that computing it again would give, and it did not raise, so the
        first raise stays where it was. In doubles, complex **
        raises OverflowError when a part of a power comes out infinite, and
        the tracker then calls the path diverged. With both parts huge,
        inf - inf makes the power nan without a raise
        (complex(1e200, -3e199) ** 2); the tracker's corrector then finds a
        non-finite step norm and ends the path DIVERGED all the same.

        Link rows share their calls as powers do: the argument w = c * z_src
        once per distinct (c, source), each function of it once per distinct
        (function, w), at the first link that needs it, and in the mpc kind
        sin and cos of one w together, from one mp.cos_sin (mpc_cos_sin at
        the context's precision and rounding). Every shared value is the one
        a repeated call gives, since w is the same product of the same
        operands and mpmath 1.3.0's mpc_cos_sin forms each part as mpc_cos
        and mpc_sin do (the same mpf_cos_sin and mpf_cosh_sinh at the same
        working precision, one rounding per part); the calls left are a
        subset of the unshared ones in their order, so no first raise
        moves. Each Jacobian entry still computes -c * sign at run time,
        under the caller's precision, where a constant folded now would be
        rounded at whatever precision generates the source.
        """
        namespace[f"{pre}Z"], namespace[f"{pre}I"] = self.zero, self.one
        shared = {} if shared is None else shared
        lines, names = [], []
        for k, (i, e) in enumerate(self.powers):
            if (i, e) not in shared:
                shared[i, e] = f"{pre}p{k}"
                lines.append(f"{pre}p{k} = z{i} ** {e}")
            names.append(shared[i, e])
        base = len(self.powers)
        for k, idx in enumerate(self.products):
            names.append(f"{pre}p{base + k}")
            lines.append(f"{names[-1]} = " + " * ".join(names[i] for i in idx))

        def total(name, terms):
            if not terms:
                lines.append(f"{name} = {pre}Z")
            for k, (c, idx) in enumerate(terms):
                cname = f"{name}_{k}"  # the coefficient of term k of the sum `name`
                namespace[cname] = c
                term = " * ".join([cname] + [names[i] for i in idx])
                lines.append(f"{name} = {pre}Z + {term}" if k == 0 else f"{name} += {term}")
            return name

        values = [total(f"{pre}v{r}", terms) for r, terms in enumerate(self.rows)]
        entries = []
        if jacobian:
            entries = [total(f"{pre}e{k}", terms) for k, terms in enumerate(self.entries)]
        args, calls = {}, {}  # (c, source) -> local w; (function, w) -> local holding it

        def call(fn, w):
            if (fn, w) not in calls:
                if self.lib is mp and fn in ("sin", "cos"):
                    calls["cos", w], calls["sin", w] = f"{w}_cos", f"{w}_sin"
                    namespace[f"{pre}cos_sin"] = mp.cos_sin
                    lines.append(f"{w}_cos, {w}_sin = {pre}cos_sin({w})")
                else:
                    calls[fn, w] = f"{w}_{fn}"
                    namespace[f"{pre}{fn}"] = getattr(self.lib, fn)
                    lines.append(f"{w}_{fn} = {pre}{fn}({w})")
            return calls[fn, w]

        for k, (g, dg, sign, c, s, d) in enumerate(self.links):
            namespace[f"{pre}sg{k}"], namespace[f"{pre}lc{k}"] = sign, c
            w = args.get((c, s))
            if w is None:
                w = args[c, s] = f"{pre}w{k}"
                lines.append(f"{w} = {pre}lc{k} * z{s}")
            gw = call(g, w)
            lines.append(f"{pre}y{k} = z{d} - {gw}")
            values.append(f"{pre}y{k}")
            if jacobian:
                dgw = call(dg, w)
                lines.append(f"{pre}j{k} = -{pre}lc{k} * {pre}sg{k} * {dgw}")
                entries += [f"{pre}j{k}", f"{pre}I"]
        if jacobian:
            for k, v in enumerate(self.folded):
                namespace[f"{pre}k{k}"] = v
                entries.append(f"{pre}k{k}")
        return lines, values, entries

    def unpack(self) -> list:
        """The line that binds z's coordinates to the locals z0, z1, ...
        that body reads."""
        return [f"{', '.join(f'z{i}' for i in range(self.size))}, = z"] if self.size else []

    def _generate(self, jacobian: bool):
        namespace = {}
        lines, values, entries = self.body("", namespace, jacobian)
        out = f"[{', '.join(values)}]"
        if jacobian:
            out += f", [{', '.join(entries)}]"
        name = "evaluate" if jacobian else "value"
        return define_function(name, "z", self.unpack() + lines + [f"return {out}"], namespace)

    # Each function is generated on its first call: a tracked slice system,
    # for one, is only ever evaluated through the tracker's step.
    @cached_property
    def _value_fn(self):
        return self._generate(False)

    @cached_property
    def _evaluate_fn(self):
        return self._generate(True)

    def value(self, z) -> list:
        """F(z): the polynomial rows, then the link rows."""
        return self._value_fn(z)

    def evaluate(self, z):
        """(values, Jacobian entries in `pattern` order) at z, in one pass."""
        return self._evaluate_fn(z)


def compile_system(system, prec: PrecisionConfig | None = None) -> CompiledSystem:
    """The compiled program of a system for one scalar kind, cached.

    prec None compiles for hardware doubles, as the tracker needs. A system
    keeps its programs, and takes a missing one from a cache keyed by
    equality: one field-wise comparison per system and prec. A solve stage
    tracks between at most two systems, each slice compiles its restricted
    system once, and certification uses one or two precisions per system,
    so a few entries serve every path and every point.
    """
    programs = system.__dict__.get("_programs")
    if programs is None:
        programs = system.__dict__["_programs"] = Memo()  # generated functions do not pickle
    if prec not in programs:
        programs[prec] = _program_by_equality(system, prec)
    return programs[prec]


@lru_cache(maxsize=16)
def _program_by_equality(system, prec: PrecisionConfig | None) -> CompiledSystem:
    if prec is None or prec.is_exact:
        return CompiledSystem(system, prec)
    with working_precision(prec.bits):  # constant entries are folded in mpc
        return CompiledSystem(system, prec)


def _check_size(F, z: CVector) -> int:
    """The number of variables of F, which z must have."""
    nv = F.N if isinstance(F, ExpSystem) else F.nv
    if len(z) != nv:
        raise DimensionMismatch(f"point has {len(z)} coordinates, expected {nv}")
    return nv


def _dense(program: CompiledSystem, entries, nv: int) -> list:
    J = [[program.zero] * nv for _ in range(nv)]
    for (r, j), v in zip(program.pattern, entries):
        J[r][j] = v
    return J


def value_and_jacobian(F, z: CVector, prec: PrecisionConfig):
    """(F(z), dense Df(z)) in mpc from one call of F's program at prec, a
    float PrecisionConfig, under prec.bits.

    Rows are the n polynomials, then one row z_dst - g(c * z_src) per link.
    Exact coordinates are lifted to mpc at prec.bits. A rational prec
    raises ValidationError: exact values come from exact_core.
    """
    if prec.is_exact:
        raise ValidationError("value_and_jacobian takes a float precision; "
                              "exact values come from exact_core")
    nv = _check_size(F, z)
    program = compile_system(F, prec)
    with working_precision(prec.bits):
        values, entries = program.evaluate(lift_point(z, prec))
    return tuple(values), tuple(tuple(row) for row in _dense(program, entries, nv))


# Bits above the working precision at which exact_core encloses the link
# functions: their radii then sit about 2^-32 below the rounding of the point.
ENCLOSURE_EXTRA_BITS = 32
# core_point refuses a point with a nonzero coordinate part below
# 2^-(16 bits + this): its integers grow with that exponent, and the
# certificate of a compliant point with a part of 1e-30000 took 2 s.
MIN_PART_EXTRA_BITS = 16384
# Exact programs do not depend on bits: every integer evaluation takes this one.
_EXACT = PrecisionConfig(MODE_RATIONAL)


def core_point(z: CVector, bits: int) -> tuple:
    """dyadic_point's (d, X) of a point of finite mpc coordinates, which
    every float certificate evaluates exactly. A point with a nonzero part
    below 2^-(16 bits + MIN_PART_EXTRA_BITS), whose integers would not stay
    cheap, raises ValidationError."""
    d, parts = dyadic_point(z)
    if d.bit_length() > 16 * bits + MIN_PART_EXTRA_BITS:
        raise ValidationError(
            f"a coordinate part of 2^-{d.bit_length() - 1} is below the 2^-"
            f"{16 * bits + MIN_PART_EXTRA_BITS} that the exact core takes at {bits} bits")
    return d, parts


def _cosh_sinh(x, wp: int):
    """Enclosures of cosh and sinh of a real interval, from the interval exp."""
    e = mpi_exp(x, wp)
    r = mpi_div(mpi_one, e, wp)
    return mpi_shift(mpi_add(e, r, wp), -1), mpi_shift(mpi_sub(e, r, wp), -1)


def _enclose_family(kind: ExpKind, a, b, wp: int) -> dict:
    """Enclosures, as (real, imaginary) interval pairs, of the functions of
    kind's family at w = a + b i: exp alone, sin and cos, or sinh and cosh."""
    if kind is ExpKind.EXP:
        ea, (cb, sb) = mpi_exp(a, wp), mpi_cos_sin(b, wp)
        return {"exp": (mpi_mul(ea, cb, wp), mpi_mul(ea, sb, wp))}
    if kind in (ExpKind.SIN, ExpKind.COS):
        (ca, sa), (chb, shb) = mpi_cos_sin(a, wp), _cosh_sinh(b, wp)
        return {"sin": (mpi_mul(sa, chb, wp), mpi_mul(ca, shb, wp)),
                "cos": (mpi_mul(ca, chb, wp), mpi_neg(mpi_mul(sa, shb, wp)))}
    (cha, sha), (cb, sb) = _cosh_sinh(a, wp), mpi_cos_sin(b, wp)
    return {"sinh": (mpi_mul(sha, cb, wp), mpi_mul(cha, sb, wp)),
            "cosh": (mpi_mul(cha, cb, wp), mpi_mul(sha, sb, wp))}


def _interval(num: int, den: int, wp: int):
    """The interval num / den rounded outward to wp bits."""
    return from_rational(num, den, wp, round_floor), from_rational(num, den, wp, round_ceiling)


def _mid_rad_sq(box):
    """(the midpoint as (q, (re, im)), re, im ints over a power of two q,
    and the squared radius as a raw mpf) of a complex interval; all exact."""
    q, (mid,) = dyadic_point([mp.make_mpc(tuple(mpf_shift(mpf_add(lo, hi), -1) for lo, hi in box))])
    rad = [mpf_shift(mpf_sub(hi, lo), -1) for lo, hi in box]
    return (q, mid), mpf_add(mpf_mul(rad[0], rad[0]), mpf_mul(rad[1], rad[1]))


def _modulus_sq_upper(box):
    """An upper bound on |f|^2 over a complex interval, exactly: the squares
    of the largest endpoint moduli of its two parts."""
    total = fzero
    for lo, hi in box:
        top = mpf_abs(hi) if mpf_lt(mpf_abs(lo), mpf_abs(hi)) else mpf_abs(lo)
        total = mpf_add(total, mpf_mul(top, top))
    return total


def _flush_tiny(row: list, q: int) -> int:
    """Set to 0, in place, each nonzero part of row / q below 2^-1022 in
    modulus, and return how many were set."""
    flushed, small = 0, q.bit_length() - 1020
    for j, v in enumerate(row):
        if not v:
            continue
        re, im = v.real, v.imag
        if re and re.bit_length() < small and abs(re) << 1022 < q:
            re, flushed = 0, flushed + 1
        if im and im.bit_length() < small and abs(im) << 1022 < q:
            im, flushed = 0, flushed + 1
        if (re, im) != (v.real, v.imag):
            row[j] = _GaussianInt(re, im)
    return flushed


class ExactCore:
    """F and Df at a rational point z, as an exact core and enclosures.

    F(z) = F0 + delta and Df(z) = J0 + Delta with F0 and J0 exact, given as
    integer rows over positive scales: J0 row i is rows[i] / row_scales[i],
    F0_i is values[i] / value_scales[i], ints or _GaussianInts.
    delta_sq >= ||delta||^2 and jacobian_sq >= ||Delta||_F^2 are raw mpfs;
    envelope holds one raw mpf per link, an upper bound on its envelope
    term max(|c|, |c|^2 |f(c z_src)| / 2 over the functions f of its
    family), and n1 = (A, d^2) is ||z||_1^2 = 1 + ||z||^2 as A / d^2.
    Without links F0 and J0 are F(z) and Df(z): both radii are 0 and
    envelope is empty.
    """

    __slots__ = ("rows", "row_scales", "values", "value_scales", "delta_sq",
                 "jacobian_sq", "envelope", "n1")


def exact_core(F, z: CVector, prec: PrecisionConfig) -> ExactCore:
    """The exact core of F and Df at z, from one integer program call.

    z is read as X / d exactly: an exact point under a rational prec
    (integer_point), and under a float one z lifted to prec, as its dyadic
    value (core_point). The polynomial rows and their Jacobian entries come
    exactly from the integer program at (X, d), as in the module docstring.
    Link k, y = g(c x), has the exact entries 1 and z_dst; only g(w) and
    c g'(w), w = c x, are irrational. They are enclosed at
    bits + ENCLOSURE_EXTRA_BITS from mpmath's interval exp and cos_sin, once
    for every link of one family and one w (sin and cos of one source share
    them); the midpoints fill F0 and J0 and the radii bound delta and Delta.
    No Fraction is formed: with c = (a + b i) / p, w is an integer pair over
    p d. A family whose values reach 2^(16 bits + MIN_PART_EXTRA_BITS) in
    modulus, or stay below its inverse, raises ValidationError, as
    core_point does for a tiny part. A nonzero part of a linked J0 below
    2^-1022, which no normal double holds (such as the imaginary noise of a
    real root), is moved from J0 into Delta (_flush_tiny), so that J0
    rounds to doubles with relative error u. Rational mode has no link
    values, so a linked F raises ExactModeUnsupported there.
    """
    _check_size(F, z)  # before as_exp_system's squareness check
    F = as_exp_system(F)
    if not prec.is_exact:
        d, parts = core_point(lift_point(z, prec), prec.bits)
    elif F.m:
        raise ExactModeUnsupported(
            f"evaluation requires floating arithmetic when links are present (m = {F.m})")
    else:
        d, parts = integer_point(z)
    program = compile_system(F, _EXACT)
    values, entries = program.evaluate(
        tuple(_GaussianInt(re, im) if im else re for re, im in parts) + (d,))
    core = ExactCore()
    core.rows = _dense(program, entries, F.N)[:F.n]
    core.row_scales = [L * d ** (D - 1) for L, D in program.row_scales]
    core.values, core.value_scales = values, [q * d for q in core.row_scales]
    core.delta_sq = core.jacobian_sq = fzero
    core.envelope = []
    core.n1 = (sum(re * re + im * im for re, im in parts) + d * d, d * d)
    if F.m:
        _enclose_links(F, core, d, parts, prec.bits)
    return core


def _enclose_links(F: ExpSystem, core: ExactCore, d: int, parts, bits: int) -> None:
    """Append the link rows of F at X / d to a core, with their radii and
    envelope terms, as exact_core describes."""
    wp, cap = bits + ENCLOSURE_EXTRA_BITS, 16 * bits + MIN_PART_EXTRA_BITS
    low, high = from_man_exp(1, -cap), from_man_exp(1, cap)
    delta_sq = jacobian_sq = fzero
    families = {}
    for link in F.links:
        g, dg, sign = _LINK_FUNCTIONS[link.kind]
        p, ((a, b),) = integer_point((link.c,))
        (xr, xi), (yr, yi) = parts[link.src - 1], parts[link.dst - 1]
        w = (a * xr - b * xi, a * xi + b * xr)  # over p d
        key = (frozenset((g, dg)), w, p)
        if key not in families:
            family = _enclose_family(link.kind, *(_interval(v, p * d, wp) for v in w), wp)
            top = mpf_sqrt(max((_modulus_sq_upper(f) for f in family.values()), key=mp.make_mpf),
                           wp, round_ceiling)
            if mpf_lt(top, low) or mpf_lt(high, top):  # its midpoints' integers would not stay cheap
                raise ValidationError(
                    f"link {link.kind.value} {link.src} {link.dst} has a value outside the "
                    f"2^-{cap} to 2^{cap} in modulus that the exact core takes at {bits} bits")
            families[key] = family, top
        family, top = families[key]
        (t, (gr, gi)), rad_sq = _mid_rad_sq(family[g])
        delta_sq = mpf_add(delta_sq, rad_sq)
        q = max(t, d)  # the lcm of two powers of two
        core.values.append(_GaussianInt(yr * (q // d) - gr * (q // t), yi * (q // d) - gi * (q // t)))
        core.value_scales.append(q)
        (t, (hr, hi)), rad_sq = _mid_rad_sq(family[dg])  # c g' = sign c dg
        csq = from_rational(a * a + b * b, p * p, wp, round_ceiling)
        jacobian_sq = mpf_add(jacobian_sq, mpf_mul(csq, rad_sq, wp, round_ceiling), wp, round_ceiling)
        s = -1 if sign > 0 else 1  # the entry is -c g'
        row = [0] * F.N
        row[link.src - 1] = _GaussianInt(s * (a * hr - b * hi), s * (a * hi + b * hr))
        row[link.dst - 1] = p * t
        core.rows.append(row)
        core.row_scales.append(p * t)
        cmod = mpf_sqrt(csq, wp, round_ceiling)
        half = mpf_shift(mpf_mul(csq, top, wp, round_ceiling), -1)  # |c|^2 max |f| / 2
        core.envelope.append(half if mpf_lt(cmod, half) else cmod)
    flushed = sum(_flush_tiny(row, q) for row, q in zip(core.rows, core.row_scales))
    if flushed:
        jacobian_sq = mpf_add(jacobian_sq, from_man_exp(flushed, -2044), wp, round_ceiling)
    core.delta_sq, core.jacobian_sq = delta_sq, jacobian_sq


def fraction_free_rows(core: ExactCore, inverse: bool) -> tuple:
    """The rows and scales of J X = [F(z) | I] (of J x = F(z) unless
    inverse) for linalg.solve_fraction_free, from a link-free core.

    Row i, J_i = M_i / Delta_i and F_i = N_i / (Delta_i d), is scaled by
    Delta_i / g_i, g_i = gcd(Delta_i, parts of M_i), and F's column by the
    lcm of the g_i d / h_i, h_i = gcd(g_i d, parts of N_i): the lcms of the
    reduced denominators, so the rows are those the Fraction values give."""
    J, deltas, values, n = core.rows, core.row_scales, core.values, len(core.rows)
    gs = [math.gcd(q, *(p for a in row for p in (a.real, a.imag))) for q, row in zip(deltas, J)]
    gds = [g * s // q for g, s, q in zip(gs, core.value_scales, deltas)]  # g_i d
    hs = [math.gcd(gd, v.real, v.imag) for gd, v in zip(gds, values)]
    c0 = math.lcm(*(gd // h for gd, h in zip(gds, hs)))
    aug = []
    for i, (row, v, q, g, gd, h) in enumerate(zip(J, values, deltas, gs, gds, hs)):
        aug.append([a // g for a in row] + [v // h * (c0 * h // gd)])
        if inverse:
            aug[-1] += [q // g if j == i else 0 for j in range(n)]
    gaussian = any(p.imag for row in aug for p in row)
    aug = [[_GaussianInt(p.real, p.imag) if gaussian else p.real for p in row] for row in aug]
    return aug, (c0,) + (1,) * n if inverse else (c0,)


def _mu_sq(F: ExpSystem, n1, sums, dd) -> tuple:
    """mu^2 = max{1, ||Df(z)^{-1} Delta||_F^2} as (num, den) ints, exactly,
    from n1 = (A, q^2) = ||z||_1^2 and column sums S_j / dd >= sum_i
    |(Df(z)^{-1})_ij|^2 (equal to it without links). With the n polynomial
    row degrees d_j, D the largest, and N = sum_j d_j A^(d_j - 1)
    q^(2(D - d_j)) S_j over the polynomial columns, it is the larger of 1
    and (||P||^2 N + q^(2D - 2) (the link columns' S_j)) / (q^(2D - 2) dd)."""
    (A, q2), D = n1, F.P.max_degree
    N = sum(dj * A ** (dj - 1) * q2 ** (D - dj) * S for dj, S in zip(F.P.degrees, sums) if dj)
    psq = compile_system(F, _EXACT).p_norm_sq
    scale = psq.denominator * q2 ** (D - 1)
    num, den = psq.numerator * N + scale * sum(sums[F.n:]), scale * dd
    return (num, den) if num > den else (1, 1)


def linked_gamma_bound_sq(F: ExpSystem, n1, columns, envelope, bits: int):
    """An upper bound on a linked system's gamma^2 at a dyadic point, from
    exact_core's n1 and envelope and column bounds c_j >= sum_i
    |(Df(z)^{-1})_ij|^2 (floats); an mpf of bits bits, rounded up.

    gamma <= mu * (D^(3/2) / (2 ||z||_1) + the sum of the link envelope
    terms), with mu^2 exact (_mu_sq): each double c_j is read exactly as an
    int over the largest of their powers of two. The rest rounds outward
    at bits + ENCLOSURE_EXTRA_BITS: up for the bound, down for ||z||_1 in
    its denominator.
    """
    ratios = [c.as_integer_ratio() for c in columns]
    dd = max(den for _, den in ratios)
    num, den = _mu_sq(F, n1, [a * (dd // b) for a, b in ratios], dd)
    (A, q2), D = n1, F.P.max_degree
    wp, up = bits + ENCLOSURE_EXTRA_BITS, round_ceiling
    norm1_low = mpf_sqrt(from_rational(A, q2, wp, round_floor), wp, round_floor)
    total = mpf_div(mpf_sqrt(from_int(D**3), wp, up), mpf_shift(norm1_low, 1), wp, up)
    for term in envelope:
        total = mpf_add(total, term, wp, up)
    mu_sq = from_rational(num, den, wp, up)
    return mp.make_mpf(mpf_mul(mu_sq, mpf_mul(total, total, wp, up), bits, up))


def integer_gamma_bound_sq(F: ExpSystem, n1, sums, dd) -> Fraction:
    """The link-free bound gamma^2 = mu^2 D^3 / (4 ||z||_1^2) as one
    Fraction, from exact_core's n1 = (A, q^2) = ||z||_1^2 and the
    S_j / dd = sum_i |(Df(z)^{-1})_ij|^2 of linalg's norm_sq_parts, with
    mu^2 exact (_mu_sq)."""
    (A, q2), D = n1, F.P.max_degree
    num, den = _mu_sq(F, n1, sums, dd)
    return Fraction(num * D**3 * q2, den * 4 * A)
