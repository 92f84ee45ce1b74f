"""Square systems mixing polynomials with exponential-type links.

A system of size N = n + m consists of n polynomials P in the N variables
z = (x_1..x_n, y_1..y_m) together with m links, each defining one trailing
variable as an elementary function of one leading variable:

    F(z) = [ P(z); z_dst - g(c * z_src) ]   with g in {exp, sin, cos, sinh, cosh}.

F and its Jacobian are evaluated by one compiled program per system and
scalar kind (CompiledSystem, cached by compile_system): the powers z_i^e,
each row and each nonzero Jacobian entry a list of (coefficient, power
indices) terms, constant entries folded. The same program serves every
kind: hardware doubles for the path tracker, mpc at a given precision for
certification and refinement (value_and_jacobian), and the Gaussian
integers for exact points. The kind sets how coefficients are lifted, the
zero each sum starts from, whether links call cmath or mpmath, and one
rounding order: doubles take c * x^a * y^b, the other kinds
c * (x^a * y^b), which keeps both the tracker and the certificates bit for
bit as they were.

The exact kind forms no Fraction: row r, times the lcm L_r of its
denominators and homogenized to degree D_r in one more variable, is
evaluated at (d z, d), d the lcm of z's denominators. The integer results
are F_r = N_r / (L_r d^D_r) and J_rj = M_rj / (L_r d^(D_r - 1)), which
integer_rows reduces to the rows of linalg.solve_fraction_free.

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

which rational mode forms as one Fraction from integers
(integer_gamma_bound_sq). With links it is
mu * (D^(3/2) / (2 ||z||_1) + sum of per-kind link envelope terms)
(link_bound_term). Both take from the caller one upper bound per column
on sum_i |(Df(z)^{-1})_ij|^2, which is all that mu needs. certify gets them
from a double-precision inverse of Df(z) with a bounded residual when
m > 0, and as the squared column norms of Df(z)^{-1} at the working
precision (integer sums over |d|^2 in rational mode) when m = 0 or when
that bound is declined. The generic bound
(gamma_bound_generic) only needs the order and coefficient sizes of a linear
ODE satisfied by each link function, plus a caller-supplied value bound, so
it also covers functions outside the built-in five.

All link evaluation is floating-point only: exp/sin/... of a nonzero rational
is irrational, so exact mode is rejected whenever m > 0.
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

from .errors import (
    DimensionMismatch,
    ExactModeUnsupported,
    PreconditionFailed,
    ValidationError,
)
from .linalg import CVector, _GaussianInt, norm1_sq
from .polynomials import (
    Memo,
    Polynomial,
    PolynomialSystem,
    bw_norm_sq,
    delta_sq_entries,
    memo_hash,
)
from .scalars import (
    ExactComplex,
    PrecisionConfig,
    exact_to_mpc,
    fraction_to_mpf,
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

    def is_polynomial(self) -> bool:
        return self.m == 0


@dataclass(frozen=True)
class OdeBoundData:
    """Order and coefficient sizes of a linear constant-coefficient ODE.

    coeffs holds one entry per coefficient c_0..c_{r-1}; an entry is either a
    nonnegative number (the modulus) or an ExactComplex whose modulus is used.
    """

    r: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.r < 1:
            raise ValidationError(f"ODE order must be >= 1, got {self.r}")
        if len(self.coeffs) != self.r:
            raise ValidationError(
                f"expected {self.r} coefficients for an order-{self.r} ODE, got {len(self.coeffs)}"
            )

    def coefficient_moduli(self):
        out = []
        for c in self.coeffs:
            if isinstance(c, ExactComplex):
                out.append(mp.sqrt(fraction_to_mpf(c.abs2(), mp.mp.prec)))
            elif isinstance(c, Fraction):
                if c < 0:
                    raise ValidationError("coefficient modulus must be nonnegative")
                out.append(fraction_to_mpf(c, mp.mp.prec))
            else:
                if c < 0:
                    raise ValidationError("coefficient modulus must be nonnegative")
                out.append(mp.mpf(c))
        return out

    @property
    def C(self):
        """max(1, coefficient moduli), evaluated at the ambient precision."""
        mods = self.coefficient_moduli()
        return max(mp.mpf(1), *mods) if mods else mp.mpf(1)


def builtin_ode_data(kind: ExpKind, c: ExactComplex) -> OdeBoundData:
    """ODE data for g(x) = kind(c*x): exp has order 1, the others order 2."""
    if not isinstance(c, ExactComplex):
        c = ExactComplex.of(c)
    if kind is ExpKind.EXP:
        # z' - c z = 0
        return OdeBoundData(1, (c,))
    # sin/cos: g'' = -c^2 g; sinh/cosh: g'' = +c^2 g. Either way the
    # coefficient modulus is |c|^2, which is exactly rational.
    return OdeBoundData(2, (c.abs2(), Fraction(0)))


def builtin_bound_value(kind: ExpKind, c: ExactComplex, xval):
    """B(x) = max over j < r of |g^(j)(x)| for the built-in kinds, at a point."""
    w = exact_to_mpc(c, mp.mp.prec) * xval
    cmod = mp.sqrt(fraction_to_mpf(c.abs2(), mp.mp.prec))
    if kind is ExpKind.EXP:
        return abs(mp.exp(w))
    if kind is ExpKind.SIN:
        return max(abs(mp.sin(w)), cmod * abs(mp.cos(w)))
    if kind is ExpKind.COS:
        return max(abs(mp.cos(w)), cmod * abs(mp.sin(w)))
    if kind is ExpKind.SINH:
        return max(abs(mp.sinh(w)), cmod * abs(mp.cosh(w)))
    if kind is ExpKind.COSH:
        return max(abs(mp.cosh(w)), cmod * abs(mp.sinh(w)))
    raise ValidationError(f"unknown kind {kind!r}")


def as_exp_system(F) -> ExpSystem:
    """Wrap a bare polynomial system as a link-free ExpSystem."""
    if isinstance(F, ExpSystem):
        return F
    if isinstance(F, PolynomialSystem):
        return ExpSystem(F, ())
    raise TypeError(f"expected a system, got {type(F).__name__}")


def _require_float(F: ExpSystem, prec: PrecisionConfig, what: str):
    if F.m > 0 and prec.is_exact:
        raise ExactModeUnsupported(
            f"{what} requires floating arithmetic when links are present (m = {F.m})"
        )


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
    rows as in the module docstring, with (L_r, D_r) in `row_scales`). It also
    sets one rounding order: in hardware doubles a term is c * x^a * y^b,
    left to right, as the tracker has always computed it; mpc and exact
    programs multiply each monomial out once in the table, x^a * y^b, and
    take c * (x^a * y^b), as certification has always computed it, so
    both keep their results bit for bit. Floating kinds evaluate at the
    caller's working precision. Programs for mpc and exact kinds also hold
    the system constant ||P||^2 of the curvature bound (p_norm_sq), rounded
    once to the kind's precision, so the bound does not rebuild it per point.
    `value` and `evaluate` run functions generated from the term lists
    (body), each on its first call.
    """

    def __init__(self, system, prec: PrecisionConfig | None = None):
        F = as_exp_system(system)
        if prec is not None:
            _require_float(F, prec, "evaluation")
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
        self.links = []
        link_pos = []
        for k, l in enumerate(F.links):
            g, dg, sign = _LINK_FUNCTIONS[l.kind]
            s, d = l.src - 1, l.dst - 1
            self.links.append((getattr(lib, g), getattr(lib, dg), sign, lift(l.c), s, d))
            link_pos += [(F.n + k, s), (F.n + k, d)]
        self.pattern = tuple(entry_pos + link_pos + folded_pos)
        self.p_norm_sq = None
        if prec is not None:
            psq = bw_norm_sq(F.P)
            self.p_norm_sq = psq if prec.is_exact else fraction_to_mpf(psq, prec.bits)

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
        for k, (fn, dfn, sign, c, s, d) in enumerate(self.links):
            namespace.update(
                {f"{pre}g{k}": fn, f"{pre}dg{k}": dfn, f"{pre}sg{k}": sign, f"{pre}lc{k}": c}
            )
            lines.append(f"{pre}w{k} = {pre}lc{k} * z{s}")
            lines.append(f"{pre}y{k} = z{d} - {pre}g{k}({pre}w{k})")
            values.append(f"{pre}y{k}")
            if jacobian:
                lines.append(f"{pre}j{k} = -{pre}lc{k} * {pre}sg{k} * {pre}dg{k}({pre}w{k})")
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
    def _value(self):
        return self._generate(False)

    @cached_property
    def _evaluate(self):
        return self._generate(True)

    def value(self, z) -> list:
        """F(z): the polynomial rows, then the link rows."""
        return self._value(z)

    def evaluate(self, z):
        """(values, Jacobian entries in `pattern` order) at z, in one pass."""
        return self._evaluate(z)


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


def _evaluate(F, z: CVector, prec: PrecisionConfig):
    """(the exact point (d z, d) or None, the Delta_r = L_r d^(D_r - 1),
    F(z), dense Df(z)) from one program call, with d the lcm of an exact
    z's denominators."""
    nv = F.N if isinstance(F, ExpSystem) else F.nv
    if len(z) != nv:
        raise DimensionMismatch(f"point has {len(z)} coordinates, expected {nv}")
    program, point, deltas = compile_system(F, prec), None, None
    if prec.is_exact:
        d, parts = integer_point(z)
        deltas = [L * d ** (D - 1) for L, D in program.row_scales]
        z = point = tuple(_GaussianInt(re, im) if im else re for re, im in parts) + (d,)
    with working_precision(prec.bits):
        values, entries = program.evaluate(lift_point(z, prec))
    J = [[program.zero] * nv for _ in range(nv)]
    for (r, j), v in zip(program.pattern, entries):
        J[r][j] = v
    return point, deltas, values, J


def value_and_jacobian(F, z: CVector, prec: PrecisionConfig):
    """(F(z), dense Df(z)) from one call of F's compiled program.

    Rows are the n polynomials, then one row z_dst - g(c * z_src) per link.
    Exact coordinates are lifted to prec's scalar kind; floating work runs
    at prec.bits; exact values are the integer program's, as Fractions.
    """
    point, deltas, values, J = _evaluate(F, z, prec)
    if point is not None:
        d = point[-1]
        values = [ExactComplex(Fraction(v.real, q * d), Fraction(v.imag, q * d))
                  for v, q in zip(values, deltas)]
        J = [[ExactComplex(Fraction(v.real, q), Fraction(v.imag, q)) for v in row]
             for row, q in zip(J, deltas)]
    return tuple(values), tuple(tuple(row) for row in J)


def integer_rows(F, z: CVector, prec: PrecisionConfig, inverse: bool):
    """F(z)'s numerators, the rows and scales of J X = [F(z) | I] (of
    J x = F(z) unless inverse) for linalg.solve_fraction_free, and
    ||z||_1^2 as (A, d^2), A the squared norm of (d z, d); rational prec.

    Row i, J_i = M_i / Delta_i and F_i = N_i / (Delta_i d), is scaled by
    Delta_i / g_i, g_i = gcd(Delta_i, parts of M_i), and F's column by the
    lcm of the g_i d / h_i, h_i = gcd(g_i d, parts of N_i): the lcms of the
    reduced denominators, so the rows are those the Fraction values give."""
    point, deltas, values, J = _evaluate(F, z, prec)
    d = point[-1]
    n = len(values)
    gs = [math.gcd(q, *(p for a in row for p in (a.real, a.imag))) for q, row in zip(deltas, J)]
    hs = [math.gcd(g * d, v.real, v.imag) for g, v in zip(gs, values)]
    c0 = math.lcm(*(g * d // h for g, h in zip(gs, hs)))
    aug = []
    for i, (row, v, q, g, h) in enumerate(zip(J, values, deltas, gs, hs)):
        aug.append([a // g for a in row] + [v // h * (c0 * h // (g * d))])
        if inverse:
            aug[-1] += [q // g if j == i else 0 for j in range(n)]
    gaussian = any(p.imag for row in aug for p in row)
    aug = [[_GaussianInt(p.real, p.imag) if gaussian else p.real for p in row] for row in aug]
    n1 = (sum(p.real * p.real + p.imag * p.imag for p in point), d * d)
    return values, aug, (c0,) + (1,) * n if inverse else (c0,), n1


def link_bound_term(link: ExpLink, xval):
    """Envelope term for one link at the current source value.

    EXP:      max(|c|, |c^2 exp(c x)| / 2)
    SIN/COS:  max(|c|, |c^2 sin(c x)| / 2, |c^2 cos(c x)| / 2)
    SINH/COSH:max(|c|, |c^2 sinh(c x)| / 2, |c^2 cosh(c x)| / 2)
    """
    csq = fraction_to_mpf(link.c.abs2(), mp.mp.prec)
    cmod = mp.sqrt(csq)
    w = exact_to_mpc(link.c, mp.mp.prec) * xval
    if link.kind is ExpKind.EXP:
        return max(cmod, csq * abs(mp.exp(w)) / 2)
    if link.kind in (ExpKind.SIN, ExpKind.COS):
        return max(cmod, csq * abs(mp.sin(w)) / 2, csq * abs(mp.cos(w)) / 2)
    return max(cmod, csq * abs(mp.sinh(w)) / 2, csq * abs(mp.cosh(w)) / 2)


def mu_exp_sq(F: ExpSystem, n1sq, columns, prec: PrecisionConfig):
    """Squared conditioning factor for the full system, given column bounds.

    n1sq is ||z||_1^2 = 1 + ||z||^2 at the point. columns holds one
    c_j >= sum_i |(Df(z)^{-1})_ij|^2 per column: the first n are scaled by
    the squared per-row entries d_i ||z||_1^(2 d_i - 2) ||P||^2, the last m
    are taken as they are, and the sum, floored at 1, is returned. With
    m = 0 and exact column sums this is exactly the polynomial mu^2.
    ||P||^2 comes from the system's compiled program, which holds it at
    prec. Floating only, as is gamma_bound_sq.
    """
    with working_precision(prec.bits):
        dsq = delta_sq_entries(F.P.degrees, n1sq)
        psq = compile_system(F, prec).p_norm_sq
        total = 0
        for j, col in enumerate(columns):
            scale_sq = dsq[j] * psq if j < F.n else 1
            total = total + scale_sq * col
        return total if total > 1 else mp.mpf(1)


def gamma_bound_sq(F: ExpSystem, z: CVector, columns, prec: PrecisionConfig):
    """Squared curvature bound at z, given bounds on Df(z)^{-1}'s column norms.

    m = 0: mu^2 * D^3 / (4 ||z||_1^2); rational mode takes it in integers
    (integer_gamma_bound_sq).
    m > 0: (mu * (D^(3/2) / (2 ||z||_1) + sum of link envelope terms))^2.
    Floating only; mu_exp_sq describes columns.
    """
    _require_float(F, prec, "gamma_bound_sq")
    with working_precision(prec.bits):
        z = lift_point(z, prec)
        n1sq = norm1_sq(z)
        musq = mu_exp_sq(F, n1sq, columns, prec)
        D = F.P.max_degree
        if F.is_polynomial():
            return musq * D**3 / (4 * n1sq)
        total = mp.sqrt(mp.mpf(D)) ** 3 / (2 * mp.sqrt(n1sq))
        for link in F.links:
            total = total + link_bound_term(link, z[link.src - 1])
        g = mp.sqrt(musq) * total
        return g * g


def integer_gamma_bound_sq(F: ExpSystem, n1, sums, dd, prec: PrecisionConfig) -> Fraction:
    """gamma_bound_sq's link-free bound as one Fraction, from integer_rows'
    n1 = (A, q^2) = ||z||_1^2 and the S_j / dd = sum_i |(Df(z)^{-1})_ij|^2 of
    linalg's norm_sq_parts. With row degrees d_j, D the largest, and
    N = sum_j d_j A^(d_j - 1) q^(2(D - d_j)) S_j, mu^2 is the larger of 1
    and ||P||^2 N / (q^(2D - 2) dd), and gamma^2 = mu^2 D^3 q^2 / (4 A)."""
    (A, q2), D = n1, F.P.max_degree
    N = sum(dj * A ** (dj - 1) * q2 ** (D - dj) * S for dj, S in zip(F.P.degrees, sums) if dj)
    psq = compile_system(F, prec).p_norm_sq
    num, den = psq.numerator * N, psq.denominator * q2 ** (D - 1) * dd
    if num <= den:
        num = den = 1
    return Fraction(num * D**3 * q2, den * 4 * A)


def _as_float(v):
    if isinstance(v, Fraction):
        return fraction_to_mpf(v, mp.mp.prec)
    return v


def gamma_bound_generic(mu, D: int, n1, odes) -> object:
    """Generic curvature bound from ODE data alone.

    odes is a list of (OdeBoundData, B-value) pairs; returns
    mu * (D^(3/2) / (2 n1) + 2 * sum C_i^2 * max(1, r_i * B_i)).
    """
    mu = _as_float(mu)
    n1 = _as_float(n1)
    if mu < 1:
        raise PreconditionFailed(f"mu must be >= 1, got {mu}")
    if n1 < 1:
        raise PreconditionFailed(f"n1 must be >= 1, got {n1}")
    total = mp.sqrt(mp.mpf(D)) ** 3 / (2 * n1)
    extra = mp.mpf(0)
    for data, bval in odes:
        bval = _as_float(bval)
        if bval < 0:
            raise PreconditionFailed(f"B value must be nonnegative, got {bval}")
        C = data.C
        rb = data.r * bval
        extra = extra + C * C * (rb if rb > 1 else mp.mpf(1))
    return mu * (total + 2 * extra)


def ode_derivative_bound(data: OdeBoundData, B, k: int):
    """Certified bound on |g^(k)(x)| from the ODE data and B = B(x)."""
    if k < 0:
        raise PreconditionFailed(f"derivative order must be >= 0, got {k}")
    B = _as_float(B)
    if B < 0:
        raise PreconditionFailed(f"B value must be nonnegative, got {B}")
    if k < data.r:
        return B
    C = data.C
    return (2 * C) ** (k - data.r) * data.r * B * C
