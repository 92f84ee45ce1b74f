"""Certification predicates built on the Newton step and the curvature bounds.

A point z is certified as an approximate solution when

    alpha = beta * gamma_bound < ALPHA_STAR,

where beta is the Newton step length at z and gamma_bound the curvature
bound of expsystems.gamma_bound_sq. Both come from one linearization of the
system at z: one call of its compiled program (expsystems.value_and_jacobian)
for the residual and the Jacobian J, and one elimination at the working
precision. Beta needs that precision; the bound needs only upper bounds on
the column norms of J^{-1}. With links they come from a double-precision
inverse of J whose residual is bounded (linalg.inverse_column_bounds), and
the elimination solves J x = F(z) for the Newton step alone. Link-free
systems, and any J that bound declines, solve J X = [F(z) | I], whose
first column is the Newton step and whose other columns are J^{-1}. In
rational mode the program's Gaussian-integer rows (expsystems.integer_rows)
go straight to a fraction-free solve (linalg.solve_fraction_free), whose
integer column sums give beta^2 and gamma^2 as one Fraction each. newton_step
and refine's newton_refine use the same linearization without the bound.

ALPHA_STAR is a rational number chosen strictly below the true threshold
(13 - 3*sqrt(17))/4, so a conservative comparison can only under-certify.
The stronger condition alpha < 3/100 buys a robustness radius of
1/(20*gamma) (robust_radius_sq), used by the same-root and realness
predicates and by the solver's merge of polished endpoints.

All decisions compare squared quantities, and in floating mode the final
comparison is exact: a computed value, converted exactly to a rational,
against a rational threshold, or two computed values against each other.
The decision itself never rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import mpmath as mp

from .errors import (
    ExpcertError,
    NotCertified,
    NotRealMap,
    PreconditionFailed,
    SingularMatrix,
)
from .expsystems import ExpSystem, as_exp_system, gamma_bound_sq, integer_rows, value_and_jacobian
from .expsystems import integer_gamma_bound_sq
from .linalg import (
    CVector,
    identity,
    inverse_column_bounds,
    norm_sq,
    solve_columns,
    solve_fraction_free,
    vec_sub,
)
from .scalars import (
    ExactComplex,
    MODE_RATIONAL,
    PrecisionConfig,
    fraction_to_mpf,
    integer_point,
    lift_point,
    mpf_to_fraction,
    working_precision,
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
    """Per-point record of the certification quantities and verdict."""

    beta_sq: object
    gamma_bound_sq: object  # math.inf when the Jacobian is singular
    alpha_bound_sq: object  # 0 for exact zeros, math.inf when undefined
    jacobian_invertible: bool
    exact_zero: bool
    certified_approximate: bool
    mode: str
    bits: int


def _is_infinite(v) -> bool:
    try:
        return math.isinf(v)
    except TypeError:
        return False


def _lt_exact(value, threshold: Fraction) -> bool:
    """Exact comparison value < threshold for Fraction or finite mpf values."""
    if _is_infinite(value):
        return False
    if isinstance(value, (Fraction, int)):
        return value < threshold
    return mpf_to_fraction(value) < threshold


def decide_certified(beta_sq, gamma_bound_sq) -> bool:
    """Pure decision: beta^2 * gamma^2 < ALPHA_STAR^2 (monotone in gamma)."""
    if _is_infinite(gamma_bound_sq):
        return False
    return _lt_exact(beta_sq * gamma_bound_sq, ALPHA_STAR_SQ)


def _as_working_mpf(v, bits: int):
    if isinstance(v, Fraction):
        return fraction_to_mpf(v, bits)
    return v


def _zero(prec: PrecisionConfig):
    return Fraction(0) if prec.is_exact else mp.mpf(0)


def _linearize(F: ExpSystem, z: CVector, prec: PrecisionConfig, inverse: bool):
    """Evaluate F and its Jacobian J at z with one program call, and eliminate J once.

    Returns (z lifted, F(z), Newton step, its squared norm beta^2, gamma^2
    or None), F(z) as numerators in rational mode. gamma^2, the curvature
    bound, is computed only when inverse is set, from c_j >= sum_i
    |(J^{-1})_ij|^2, one per column. Step, beta^2 and gamma^2 are all None
    when J is singular at the working precision.

    With links (m > 0, float mode only) the c_j come from a
    double-precision inverse of J (linalg.inverse_column_bounds), and the
    elimination solves J x = F(z) alone. Otherwise, or when that bound is
    declined, it solves J X = [F(z) | I] and the c_j are the squared
    column norms of the computed J^{-1}. Pivots depend on J alone, so the
    step is bit for bit the same on either route.

    Rational mode evaluates and solves without fractions (integer_rows,
    linalg.solve_fraction_free), and forms beta^2 and gamma^2 as one
    Fraction each from the integer column sums (integer_gamma_bound_sq),
    with no entry of J^{-1} and, when inverse is set, no step. Link-free
    systems stay on the elimination in float mode too: it matches the exact
    bound to the working precision, which the double-precision bound, with
    a slack of order u times the condition of J, would not. Runs at the
    caller's working precision.
    """
    z = lift_point(z, prec)
    if prec.is_exact:  # raises when m > 0
        residual, rows, scales, n1 = integer_rows(F, z, prec, inverse)
        try:
            solution = solve_fraction_free(rows, scales)
        except SingularMatrix:
            return z, residual, None, None, None
        sums, dd = solution.norm_sq_parts()
        bsq = Fraction(sums[0], dd * scales[0] ** 2)
        if inverse:
            return z, residual, None, bsq, integer_gamma_bound_sq(F, n1, sums[1:], dd, prec)
        return z, residual, solution.column(0), bsq, None
    residual, J = value_and_jacobian(F, z, prec)
    columns = inverse_column_bounds(J) if inverse and F.m else None
    rhs = tuple((v,) for v in residual)
    eliminate_inverse = inverse and columns is None
    if eliminate_inverse:
        rhs = tuple(r + e for r, e in zip(rhs, identity(F.N, False)))
    try:
        X = tuple(zip(*solve_columns(J, rhs, prec.bits)))
    except SingularMatrix:
        return z, residual, None, None, None
    if eliminate_inverse:
        columns = tuple(norm_sq(col) for col in X[1:])
    gamma_sq = gamma_bound_sq(F, z, columns, prec) if inverse else None
    return z, residual, X[0], norm_sq(X[0]), gamma_sq


def newton_step(F, z: CVector, prec: PrecisionConfig):
    """One Newton iteration; returns (new point, jacobian_invertible).

    On a singular Jacobian the point is returned unchanged with flag False.
    """
    F = as_exp_system(F)
    with working_precision(prec.bits):
        z, _, step, _, _ = _linearize(F, z, prec, inverse=False)
        if step is None:
            return z, False
        return tuple(a - b for a, b in zip(z, step)), True


def certify_solution(F, z: CVector, prec: PrecisionConfig) -> Certificate:
    """Full certification of one point against a square system."""
    F = as_exp_system(F)
    with working_precision(prec.bits):
        z, residual, _, bsq, gamma_sq = _linearize(F, z, prec, inverse=True)
        if prec.is_exact and not any(residual):  # the numerators of F(z)
            return Certificate(
                beta_sq=Fraction(0),
                gamma_bound_sq=math.inf if gamma_sq is None else gamma_sq,
                alpha_bound_sq=Fraction(0),
                jacobian_invertible=gamma_sq is not None,
                exact_zero=True,
                certified_approximate=True,
                mode=prec.mode,
                bits=prec.bits,
            )
        if bsq is None:
            return Certificate(
                beta_sq=_zero(prec),
                gamma_bound_sq=math.inf,
                alpha_bound_sq=math.inf,
                jacobian_invertible=False,
                exact_zero=False,
                certified_approximate=False,
                mode=prec.mode,
                bits=prec.bits,
            )
        return Certificate(
            beta_sq=bsq,
            gamma_bound_sq=gamma_sq,
            alpha_bound_sq=bsq * gamma_sq,
            jacobian_invertible=True,
            exact_zero=False,
            certified_approximate=decide_certified(bsq, gamma_sq),
            mode=prec.mode,
            bits=prec.bits,
        )


def certify_distinct(F, cert1: Certificate, z1: CVector, cert2: Certificate, z2: CVector) -> bool:
    """Certify that two certified points have different associated solutions.

    Rational mode uses the sufficient squared test ||z1 - z2||^2 >
    8 (beta1^2 + beta2^2), which implies the separation condition
    ||z1 - z2|| > 2 (beta1 + beta2) without taking square roots, cross-
    multiplied into integers with z_k = X_k / q_k (scalars.integer_point).
    Floating mode evaluates the separation condition directly.
    """
    if not (cert1.certified_approximate and cert2.certified_approximate):
        raise NotCertified("certify_distinct needs two certified approximate solutions")
    if cert1.mode == MODE_RATIONAL and cert2.mode == MODE_RATIONAL:
        (q1, X1), (q2, X2) = integer_point(z1), integer_point(z2)
        dsq = sum((q2 * a - q1 * c) ** 2 + (q2 * b - q1 * d) ** 2 for (a, b), (c, d) in zip(X1, X2))
        (a1, b1), (a2, b2) = (c.beta_sq.as_integer_ratio() for c in (cert1, cert2))
        return dsq * b1 * b2 > 2 * SEPARATION_FACTOR**2 * (a1 * b2 + a2 * b1) * (q1 * q2) ** 2
    bits = max(cert1.bits, cert2.bits)
    with working_precision(bits):
        prec = PrecisionConfig(mode="float", bits=bits)
        a = lift_point(z1, prec)
        b = lift_point(z2, prec)
        dist = mp.sqrt(norm_sq(vec_sub(a, b)))
        b1 = mp.sqrt(_as_working_mpf(cert1.beta_sq, bits))
        b2 = mp.sqrt(_as_working_mpf(cert2.beta_sq, bits))
        return dist > SEPARATION_FACTOR * (b1 + b2)


def robust_radius_sq(cert: Certificate):
    """The squared robustness radius 1/(400 gamma^2) of a point, or 0.

    When alpha < 3/100 at z, every point within 1/(20 gamma) of z converges
    to the same solution. The radius is 0 when alpha misses 3/100 or gamma
    is infinite; it is an exact Fraction in rational mode.
    """
    gamma_sq = cert.gamma_bound_sq
    if _is_infinite(gamma_sq) or not _lt_exact(cert.alpha_bound_sq, ROBUST_ALPHA_SQ):
        return 0
    if isinstance(gamma_sq, Fraction):
        return ROBUST_RADIUS_SQ / gamma_sq
    with working_precision(cert.bits):
        return fraction_to_mpf(ROBUST_RADIUS_SQ, cert.bits) / gamma_sq


def same_root(F, cert_x: Certificate, z_x: CVector, z_y: CVector, prec: PrecisionConfig) -> bool:
    """Certify that z_y is an approximate solution sharing z_x's solution.

    Requires the strong bound alpha < 3/100 at z_x; then z_y must lie
    inside z_x's robustness radius (robust_radius_sq), tested squared.
    """
    if not _lt_exact(cert_x.alpha_bound_sq, ROBUST_ALPHA_SQ):
        raise PreconditionFailed("same_root needs alpha < 3/100 at the anchor point")
    if tuple(z_x) == tuple(z_y):
        return True
    with working_precision(prec.bits):
        dsq = norm_sq(vec_sub(lift_point(z_x, prec), lift_point(z_y, prec)))
        return dsq < robust_radius_sq(cert_x)


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


def _imag_part_sq(z: CVector, exact: bool):
    total = Fraction(0) if exact else mp.mpf(0)
    for v in z:
        if isinstance(v, ExactComplex):
            total = total + v.im * v.im
        else:
            im = v.imag if hasattr(v, "imag") else 0
            total = total + im * im
    return total


def certify_real(F, cert: Certificate, z: CVector, prec: PrecisionConfig,
                 assume_real_map: bool = False) -> RealStatus:
    """Decide whether the associated solution is real.

    NOT_REAL when the imaginary displacement exceeds twice the Newton step
    (the solution lies within 2 beta, so it cannot be the real projection);
    REAL when alpha < 3/100 and the real projection lies inside the
    robustness radius; UNDECIDED otherwise. A point with exactly zero
    imaginary parts is REAL outright: a real map keeps its iterates real.
    """
    F = as_exp_system(F)
    if not assume_real_map and not real_map_check(F):
        raise NotRealMap(
            "system has non-real coefficients or link constants; "
            "pass assume_real_map=True only if conjugation symmetry holds by construction"
        )
    if not cert.certified_approximate:
        raise NotCertified("certify_real needs a certified approximate solution")
    with working_precision(prec.bits):
        zm = lift_point(z, prec)
        imag_sq = _imag_part_sq(zm, prec.is_exact)
        if imag_sq == 0:
            return RealStatus.REAL
        # ||z - pi_R(z)||^2 = sum Im(z_i)^2
        if imag_sq > 4 * cert.beta_sq:
            return RealStatus.NOT_REAL
        if imag_sq < robust_radius_sq(cert):
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
    once for all the tests.
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

    if options.distinct and certified:
        parent = {r.index: r.index for r in certified}

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
                ra, rb = certified[a], certified[b]
                za, zb = lifted[ra.index], lifted[rb.index]
                if not certify_distinct(F, ra.certificate, za, rb.certificate, zb):
                    union(ra.index, rb.index)
        for r in certified:
            r.distinct_set = find(r.index)

    report.real_map = real_map_check(F) or options.assume_real_map
    if options.real and report.real_map:
        for r in certified:
            r.real = certify_real(
                F, r.certificate, lifted[r.index], prec, assume_real_map=options.assume_real_map
            )
    return report
