"""Certification predicates built on the Newton step and the curvature bounds.

A point z is certified as an approximate solution when

    alpha = beta * gamma_bound < ALPHA_STAR,

where beta is the Newton step length at z and gamma_bound the curvature
bound. Both come from one linearization of the system at z.

Every certificate comes from exact values at the point, which is rational
in both modes: an exact point is X / q (scalars.integer_point), and a float
point the dyadic X / 2^k its mpc coordinates hold (expsystems.core_point).

That linearization is one exact core (expsystems.exact_core): the integer
program gives every polynomial row and its Jacobian entries exactly at the
rational point, and with links (m > 0, float mode) mpmath's interval
functions enclose the 2m irrational link values g(c z_src) and
c g'(c z_src). From there the only branch is on the links.

Linked systems are bounded on the core by double precision
(_linked_bounds). With R a double-precision inverse of the exact Jacobian
J0 and e a bound on ||I - R J||_F that takes in the enclosures' radii
(linalg.inverse_column_bounds), beta is bounded from ||R F0||, formed
exactly in integers, and gamma from the same column bounds on J^{-1}. Every
quantity is an upper bound, rounded upward to an mpf and read exactly as a
Fraction, so a certified verdict is a proof. The exact core takes no
elimination in mpc and no fallback to one: when the double-precision bound
declines J, the point is not certified, and its certificate reads as a
singular J's does (Certificate).

Link-free systems solve J X = [F(z) | I] once, whose first column is the
Newton step and whose other columns are J^{-1}, by a fraction-free solve
(linalg.solve_fraction_free) of the core's Gaussian-integer rows
(expsystems.fraction_free_rows), whose integer column sums give beta^2 and
gamma^2 as one Fraction each, in both modes. The Newton step of refinement
is refine's (newton_direction), a floating one in both modes.

Every certificate quantity is therefore an exact Fraction, beta^2, gamma^2
and alpha^2 = beta^2 gamma^2 alike, or the sentinel math.inf for a J that
is singular or declined; the mode only decides how a point is read.

ALPHA_STAR is a rational number chosen strictly below the true threshold
(13 - 3*sqrt(17))/4, so a conservative comparison can only under-certify.
The stronger condition alpha < 3/100 buys a robustness radius of
1/(20*gamma) (robust_radius_sq), used by the same-root and realness
predicates and by the solver's merge of polished endpoints.

All decisions compare squared quantities exactly, in one way in both
modes: alpha^2 against ALPHA_STAR^2 as the exact product of beta^2 and
gamma^2, and the distinct, same-root and real tests on the points read as
their exact (q, X) (_exact_point), cross-multiplied in integers against
the betas' squares and the exact squared robustness radius. The decision
itself never rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (
    fone,
    from_float,
    from_rational,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_sqrt,
    mpf_sub,
    round_ceiling,
    to_float,
)

from .errors import (
    ExpcertError,
    NotCertified,
    NotRealMap,
    PreconditionFailed,
    SingularMatrix,
)
from .expsystems import (
    ENCLOSURE_EXTRA_BITS,
    ExpSystem,
    ExactCore,
    as_exp_system,
    exact_core,
    fraction_free_rows,
    integer_gamma_bound_sq,
    linked_gamma_bound_sq,
)
from .linalg import (
    CVector,
    inverse_column_bounds,
    product_norm_sq,
    solve_fraction_free,
)
from .scalars import (
    MODE_RATIONAL,
    PrecisionConfig,
    dyadic_point,
    exact_sq_distance,
    integer_point,
    lift_point,
    mpf_to_fraction,
)

# Safe rational stand-in strictly below (13 - 3*sqrt(17))/4 = 0.15767078...
# (the 6-digit rounding 0.157671 of that threshold lies slightly ABOVE it and
# would not be conservative; tests verify the integer inequality).
ALPHA_STAR = Fraction(1576707, 10**7)
ALPHA_STAR_SQ = ALPHA_STAR * ALPHA_STAR
ROBUST_ALPHA = Fraction(3, 100)
ROBUST_ALPHA_SQ = ROBUST_ALPHA * ROBUST_ALPHA
ROBUST_RADIUS_FACTOR = Fraction(1, 20)
ROBUST_RADIUS_SQ = ROBUST_RADIUS_FACTOR * ROBUST_RADIUS_FACTOR  # 1/400
SEPARATION_FACTOR = 2


class RealStatus(Enum):
    REAL = "real"
    NOT_REAL = "not_real"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Certificate:
    """Per-point record of the certification quantities and verdict.

    The squared quantities are Fractions in both modes. jacobian_invertible
    False means J is singular, or for a linked point, not shown invertible
    by the double-precision bound (_linked_bounds); either way beta^2 reads
    0 and gamma^2 is math.inf, and unless the point is an exact zero,
    alpha^2 is math.inf and the point is not certified.
    """

    beta_sq: Fraction
    gamma_bound_sq: object  # math.inf when jacobian_invertible is False
    alpha_bound_sq: object  # 0 for exact zeros, math.inf when undefined
    jacobian_invertible: bool
    exact_zero: bool
    certified_approximate: bool
    mode: str
    bits: int


def _is_infinite(v) -> bool:
    """Whether v is the sentinel math.inf; a Fraction is finite."""
    return isinstance(v, float) and math.isinf(v)


def decide_certified(beta_sq: Fraction, gamma_bound_sq) -> bool:
    """Pure decision: beta^2 * gamma^2 < ALPHA_STAR^2, exactly (monotone in
    gamma), for Fractions or an infinite gamma^2."""
    return not _is_infinite(gamma_bound_sq) and beta_sq * gamma_bound_sq < ALPHA_STAR_SQ


def _exact_point(z: CVector, prec: PrecisionConfig) -> tuple:
    """(q, X) with z = X / q exactly: integer_point in rational mode, and in
    float mode the dyadic_point of z lifted to prec."""
    return integer_point(z) if prec.is_exact else dyadic_point(lift_point(z, prec))


def _linked_bounds(F: ExpSystem, core: ExactCore, bits: int):
    """Upper bounds (beta^2, gamma^2), Fractions, for a linked system from
    its exact core at a dyadic point, or (None, None) when the
    double-precision inverse bound declines J.

    J = J0 + Delta and F(z) = F0 + delta on the core. R, a
    double-precision inverse of J0, gives e >= ||I - R J||_F with
    ||Delta||_F folded in (inverse_column_bounds), and then
    J^{-1} = (I - E)^{-1} R, so

        beta = ||J^{-1} F(z)||  <=  (||R F0|| + ||R|| ||delta||) / (1 - e),

    with ||R F0||^2 exact (product_norm_sq), and gamma^2 from the same
    column bounds (linked_gamma_bound_sq). Everything rounds upward, to
    mpfs of bits bits, which are read exactly.
    """
    # ||Delta||_F as a double no smaller than it: a 53-bit sqrt rounded up is
    # a double unless it underflows, which the added 2^-1022 covers.
    radius = to_float(mpf_sqrt(core.jacobian_sq, 53, round_ceiling)) + 2.0**-1022
    bound = inverse_column_bounds(core.rows, core.row_scales, radius)
    if bound is None:
        return None, None
    R, e, r_norm, columns = bound
    wp, up = bits + ENCLOSURE_EXTRA_BITS, round_ceiling
    rf = product_norm_sq(R, core.values, core.value_scales)
    head = mpf_sqrt(from_rational(rf.numerator, rf.denominator, wp, up), wp, up)
    tail = mpf_mul(from_float(r_norm), mpf_sqrt(core.delta_sq, wp, up), wp, up)
    beta = mpf_div(mpf_add(head, tail, wp, up), mpf_sub(fone, from_float(e)), wp, up)
    beta_sq = mpf_to_fraction(mp.make_mpf(mpf_mul(beta, beta, bits, up)))
    return beta_sq, mpf_to_fraction(linked_gamma_bound_sq(F, core.n1, columns, core.envelope, bits))


def certify_solution(F, z: CVector, prec: PrecisionConfig) -> Certificate:
    """Full certification of one point against a square system.

    The point's exact core (exact_core, which raises in rational mode when
    m > 0) is built once. A linked system is bounded on it by double
    precision (_linked_bounds); a link-free one is certified exactly, by one
    fraction-free solve of J X = [F(z) | I] on its rows. alpha^2 is the
    exact product of beta^2 and gamma^2, in both modes.
    """
    F = as_exp_system(F)
    core = exact_core(F, z, prec)
    exact_zero = prec.is_exact and not any(core.values)  # the numerators of F(z)
    if F.m:
        bsq, gamma_sq = _linked_bounds(F, core, prec.bits)
    else:
        rows, scales = fraction_free_rows(core)
        try:
            sums, dd = solve_fraction_free(rows, scales).norm_sq_parts()
        except SingularMatrix:
            bsq = gamma_sq = None
        else:
            bsq = Fraction(sums[0], dd * scales[0] ** 2)
            gamma_sq = integer_gamma_bound_sq(F, core.n1, sums[1:], dd)
    invertible = gamma_sq is not None
    if exact_zero:
        bsq, alpha_sq = Fraction(0), Fraction(0)
    elif not invertible:
        bsq, alpha_sq = Fraction(0), math.inf
    else:
        alpha_sq = bsq * gamma_sq
    return Certificate(
        beta_sq=bsq,
        gamma_bound_sq=gamma_sq if invertible else math.inf,
        alpha_bound_sq=alpha_sq,
        jacobian_invertible=invertible,
        exact_zero=exact_zero,
        certified_approximate=exact_zero or (invertible and decide_certified(bsq, gamma_sq)),
        mode=prec.mode,
        bits=prec.bits,
    )


def certify_distinct(F, cert1: Certificate, z1: CVector, cert2: Certificate, z2: CVector) -> bool:
    """Certify that two certified points have different associated solutions.

    Decides the separation condition ||z1 - z2|| > 2 (beta1 + beta2)
    exactly, in integers, in both modes (_separated), each point read as
    its exact (q, X) at its certificate's precision (_exact_point).
    """
    if not (cert1.certified_approximate and cert2.certified_approximate):
        raise NotCertified("certify_distinct needs two certified approximate solutions")
    return _separated(*(
        (_exact_point(z, PrecisionConfig(c.mode, c.bits)), c.beta_sq.as_integer_ratio())
        for z, c in ((z1, cert1), (z2, cert2))
    ))


def _separated(first, second) -> bool:
    """||z1 - z2|| > 2 (beta1 + beta2), in integers, for two points given
    as (exact (q, X), the beta's square as an integer ratio a_k / b_k = B_k,
    an upper bound).

    The squared distance is D = Dn / Q, Q = (q1 q2)^2, and D > 4 (B1 + B2
    + 2 sqrt(B1 B2)) holds exactly when Ln = Dn b1 b2 - 4 (a1 b2 + a2 b1) Q
    > 0 and Ln^2 > 64 a1 a2 b1 b2 Q^2.
    """
    (point1, (a1, b1)), (point2, (a2, b2)) = first, second
    dn, dq = exact_sq_distance(point1, point2)
    k = SEPARATION_FACTOR**2
    slack = dn * b1 * b2 - k * (a1 * b2 + a2 * b1) * dq
    return slack > 0 and slack * slack > 4 * k * k * a1 * a2 * b1 * b2 * dq * dq


def robust_radius_sq(cert: Certificate):
    """The squared robustness radius 1/(400 gamma^2) of a point, exactly, or 0.

    When alpha < 3/100 at z, every point within 1/(20 gamma) of z converges
    to the same solution. The radius is 0 when alpha misses 3/100 or gamma
    is infinite; otherwise it is a Fraction.
    """
    gamma_sq = cert.gamma_bound_sq
    if _is_infinite(gamma_sq) or not cert.alpha_bound_sq < ROBUST_ALPHA_SQ:
        return 0
    return ROBUST_RADIUS_SQ / gamma_sq


def _within(num: int, den: int, bound) -> bool:
    """num / den < bound, for an int or Fraction bound, in integers."""
    return num * bound.denominator < bound.numerator * den


def same_root(F, cert_x: Certificate, z_x: CVector, z_y: CVector, prec: PrecisionConfig) -> bool:
    """Certify that z_y is an approximate solution sharing z_x's solution.

    Requires the strong bound alpha < 3/100 at z_x; then z_y must lie
    inside z_x's robustness radius (robust_radius_sq), tested squared on
    the exact distance of the points read at prec (_exact_point).
    """
    if not cert_x.alpha_bound_sq < ROBUST_ALPHA_SQ:
        raise PreconditionFailed("same_root needs alpha < 3/100 at the anchor point")
    if tuple(z_x) == tuple(z_y):
        return True
    dsq = exact_sq_distance(_exact_point(z_x, prec), _exact_point(z_y, prec))
    return _within(*dsq, robust_radius_sq(cert_x))


def real_map_check(F) -> bool:
    """Syntactic test that all system data is real.

    Real coefficients and real link constants make the Newton operator
    commute with coordinate-wise conjugation, the hypothesis behind the
    realness predicates.
    """
    F = as_exp_system(F)
    for p in F.P.polys:
        for coeff, _ in p.terms:
            if coeff.im:
                return False
    for link in F.links:
        if link.c.im:
            return False
    return True


def certify_real(F, cert: Certificate, z: CVector, prec: PrecisionConfig) -> RealStatus:
    """Decide whether the associated solution is real.

    NOT_REAL when the imaginary displacement exceeds twice the Newton step
    (the solution lies within 2 beta, so it cannot be the real projection);
    REAL when alpha < 3/100 and the real projection lies inside the
    robustness radius; UNDECIDED otherwise. A point with exactly zero
    imaginary parts is REAL outright: a real map keeps its iterates real.
    The displacement, read from the exact point (_exact_point), and the
    radius are exact, beta and gamma upper bounds, and every test compares
    in integers.
    """
    F = as_exp_system(F)
    if not real_map_check(F):
        raise NotRealMap("system has non-real coefficients or link constants")
    if not cert.certified_approximate:
        raise NotCertified("certify_real needs a certified approximate solution")
    return _real_status(cert, _exact_point(z, prec))


def _real_status(cert: Certificate, point) -> RealStatus:
    """certify_real's decision for a certified point read as its exact (q, X)."""
    q, X = point
    imag_sq = sum(im * im for _, im in X)  # ||z - pi_R(z)||^2 = imag_sq / q^2
    if imag_sq == 0:
        return RealStatus.REAL
    a, b = cert.beta_sq.as_integer_ratio()
    if imag_sq * b > 4 * a * q * q:
        return RealStatus.NOT_REAL
    if _within(imag_sq, q * q, robust_radius_sq(cert)):
        return RealStatus.REAL
    return RealStatus.UNDECIDED


@dataclass(frozen=True)
class BatchOptions:
    distinct: bool = True
    real: bool = True
    assume_real_map: bool = False


@dataclass
class PointRecord:
    index: int
    point: CVector
    certificate: Certificate | None = None
    error: str | None = None
    distinct_set: int | None = None
    real: RealStatus | None = None


@dataclass
class BatchReport:
    """In-memory batch result; serialization lives with the file formats."""

    records: list = field(default_factory=list)
    mode: str = MODE_RATIONAL
    bits: int = 96
    real_map: bool | None = None

    @property
    def counts(self) -> dict:
        certified = sum(
            1 for r in self.records if r.certificate and r.certificate.certified_approximate
        )
        sets = {r.distinct_set for r in self.records if r.distinct_set is not None}
        reals = sum(1 for r in self.records if r.real is RealStatus.REAL)
        not_reals = sum(1 for r in self.records if r.real is RealStatus.NOT_REAL)
        undecided = sum(1 for r in self.records if r.real is RealStatus.UNDECIDED)
        return {
            "total": len(self.records),
            "certified": certified,
            "distinct": len(sets) if sets else 0,
            "real": reals,
            "not_real": not_reals,
            "undecided": undecided,
        }


def certify_batch(F, points, prec: PrecisionConfig, options: BatchOptions = BatchOptions()) -> BatchReport:
    """Certify a list of points, then group and test the certified ones.

    Per-point failures are recorded, never fatal. Certified points are
    partitioned into distinct-solution sets: two points that cannot be
    certified distinct share a set id (the smallest member index). Points
    are certified one after another, in input order, each lifted to prec
    once for all the tests; a certified point is read as its exact (q, X)
    once for every distinct pair and the real test.
    """
    F = as_exp_system(F)
    report = BatchReport(mode=prec.mode, bits=prec.bits)
    records = [PointRecord(index=i, point=tuple(p)) for i, p in enumerate(points)]
    report.records = records
    if not records:
        report.real_map = real_map_check(F)
        return report

    lifted = [lift_point(rec.point, prec) for rec in records]
    for rec, z in zip(records, lifted):
        try:
            rec.certificate = certify_solution(F, z, prec)
        except ExpcertError as exc:
            rec.error = f"{type(exc).__name__}: {exc}"

    certified = [r for r in records if r.certificate and r.certificate.certified_approximate]
    report.real_map = real_map_check(F) or options.assume_real_map
    real = options.real and report.real_map
    exact = []
    if options.distinct or real:
        exact = [_exact_point(lifted[r.index], prec) for r in certified]

    if options.distinct and certified:
        parent = {r.index: r.index for r in certified}
        reads = [(point, r.certificate.beta_sq.as_integer_ratio())
                 for r, point in zip(certified, exact)]

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i, j):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

        for a in range(len(certified)):
            for b in range(a + 1, len(certified)):
                if not _separated(reads[a], reads[b]):
                    union(certified[a].index, certified[b].index)
        for r in certified:
            r.distinct_set = find(r.index)

    if real:
        for r, point in zip(certified, exact):
            r.real = _real_status(r.certificate, point)
    return report
