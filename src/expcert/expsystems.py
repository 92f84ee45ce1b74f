"""Square systems mixing polynomials with exponential-type links.

A system of size N = n + m consists of n polynomials P in the N variables
z = (x_1..x_n, y_1..y_m) together with m links, each defining one trailing
variable as an elementary function of one leading variable:

    F(z) = [ P(z); z_dst - g(c * z_src) ]   with g in {exp, sin, cos, sinh, cosh}.

The curvature bound lives here, for link-free and linked systems alike.
Both forms start from the conditioning factor

    mu^2 = max{1, ||Df(z)^{-1} Delta||_F^2},

where Delta is diagonal with entries ||P|| * sqrt(d_i) * ||z||_1^(d_i - 1)
for the polynomial rows and 1 for the link rows, ||P|| is the weighted
coefficient norm and D the maximal degree. Without links (m = 0) the bound
is the polynomial one,

    gamma(f, z)^2  <=  mu^2 * D^3 / (4 * ||z||_1^2),

exact rational in exact mode. With links it is
mu * (D^(3/2) / (2 ||z||_1) + sum of per-kind link envelope terms)
(link_bound_term). Both take Df(z)^{-1} from the caller, which has already
factored Df(z) for the Newton step. The generic bound
(gamma_bound_generic) only needs the order and coefficient sizes of a linear
ODE satisfied by each link function, plus a caller-supplied value bound, so
it also covers functions outside the built-in five.

All link evaluation is floating-point only: exp/sin/... of a nonzero rational
is irrational, so exact mode is rejected whenever m > 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import (
    DimensionMismatch,
    ExactModeUnsupported,
    PreconditionFailed,
    ValidationError,
)
from .linalg import CMatrix, CVector, norm1_sq
from .polynomials import (
    PolynomialSystem,
    bw_norm_sq,
    delta_sq_entries,
    evaluate,
    jacobian,
)
from .scalars import (
    ExactComplex,
    PrecisionConfig,
    abs_sq,
    exact_to_mpc,
    fraction_to_mpf,
    lift_point,
    working_precision,
)


class ExpKind(enum.Enum):
    EXP = "exp"
    SIN = "sin"
    COS = "cos"
    SINH = "sinh"
    COSH = "cosh"


_FUNC = {
    ExpKind.EXP: mp.exp,
    ExpKind.SIN: mp.sin,
    ExpKind.COS: mp.cos,
    ExpKind.SINH: mp.sinh,
    ExpKind.COSH: mp.cosh,
}

# Derivative of each kind as (function, sign): d/dw exp = exp, d/dw sin = cos,
# d/dw cos = -sin, d/dw sinh = cosh, d/dw cosh = sinh.
_DERIV = {
    ExpKind.EXP: (mp.exp, 1),
    ExpKind.SIN: (mp.cos, 1),
    ExpKind.COS: (mp.sin, -1),
    ExpKind.SINH: (mp.cosh, 1),
    ExpKind.COSH: (mp.sinh, 1),
}


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


def evaluate_exp(F: ExpSystem, z: CVector, prec: PrecisionConfig) -> CVector:
    """Residual vector [P(z); z_dst - g(c * z_src)]."""
    _require_float(F, prec, "evaluate_exp")
    if len(z) != F.N:
        raise DimensionMismatch(f"point has {len(z)} coordinates, expected {F.N}")
    with working_precision(prec.bits):
        z = lift_point(z, prec)
        top = list(evaluate(F.P, z))
        for link in F.links:
            w = exact_to_mpc(link.c, prec.bits) * z[link.src - 1]
            top.append(z[link.dst - 1] - _FUNC[link.kind](w))
        return tuple(top)


def jacobian_exp(F: ExpSystem, z: CVector, prec: PrecisionConfig) -> CMatrix:
    """Jacobian of the full system: P rows, then one row per link."""
    _require_float(F, prec, "jacobian_exp")
    if len(z) != F.N:
        raise DimensionMismatch(f"point has {len(z)} coordinates, expected {F.N}")
    with working_precision(prec.bits):
        z = lift_point(z, prec)
        rows = list(jacobian(F.P, z))
        zero = mp.mpc(0)
        one = mp.mpc(1)
        for link in F.links:
            c = exact_to_mpc(link.c, prec.bits)
            w = c * z[link.src - 1]
            fn, sign = _DERIV[link.kind]
            row = [zero] * F.N
            row[link.src - 1] = -c * sign * fn(w)
            row[link.dst - 1] = one
            rows.append(tuple(row))
        return tuple(rows)


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


def mu_exp_sq(F: ExpSystem, z: CVector, Jinv: CMatrix, prec: PrecisionConfig):
    """Squared conditioning factor for the full system, given Df(z)^{-1}.

    The inverse Jacobian's first n columns are scaled by the per-row entries
    sqrt(d_i) ||z||_1^(d_i - 1) ||P|| and the last m columns left alone; the
    squared Frobenius norm of the result, floored at 1, is returned. With
    m = 0 this is exactly the polynomial mu^2, rational in exact mode.
    """
    _require_float(F, prec, "mu_exp_sq")
    with working_precision(prec.bits):
        z = lift_point(z, prec)
        n1sq = norm1_sq(z)
        dsq = delta_sq_entries(F.P.degrees, n1sq)
        psq = bw_norm_sq(F.P)
        if not prec.is_exact:
            psq = fraction_to_mpf(psq, prec.bits)
        total = 0
        for j in range(F.N):
            col = 0
            for i in range(F.N):
                col = col + abs_sq(Jinv[i][j])
            scale_sq = dsq[j] * psq if j < F.n else 1
            total = total + scale_sq * col
        return total if total > 1 else 1 + 0 * total


def gamma_bound_sq(F: ExpSystem, z: CVector, Jinv: CMatrix, prec: PrecisionConfig):
    """Squared curvature bound at z, given Df(z)^{-1}.

    m = 0: mu^2 * D^3 / (4 ||z||_1^2), exact rational in exact mode.
    m > 0: (mu * (D^(3/2) / (2 ||z||_1) + sum of link envelope terms))^2,
    floating only.
    """
    _require_float(F, prec, "gamma_bound_sq")
    with working_precision(prec.bits):
        z = lift_point(z, prec)
        musq = mu_exp_sq(F, z, Jinv, prec)
        n1sq = norm1_sq(z)
        D = F.P.max_degree
        if F.is_polynomial():
            return musq * D**3 / (4 * n1sq)
        total = mp.sqrt(mp.mpf(D)) ** 3 / (2 * mp.sqrt(n1sq))
        for link in F.links:
            total = total + link_bound_term(link, z[link.src - 1])
        g = mp.sqrt(musq) * total
        return g * g


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
