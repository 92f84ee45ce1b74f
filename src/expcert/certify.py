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
first column is the Newton step and whose other columns are J^{-1}.
newton_step and refine's newton_refine use the same linearization without
the bound.

ALPHA_STAR is a rational number chosen strictly below the true threshold
(13 - 3*sqrt(17))/4, so a conservative comparison can only under-certify.
The stronger condition alpha < 3/100 buys a robustness radius of
1/(20*gamma) used by the same-root, distinctness and realness predicates.

All decisions compare squared quantities, and in floating mode the final
comparison converts the computed value exactly to a rational, so the
decision itself never rounds.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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
    ValidationError,
)
from .expsystems import ExpSystem, as_exp_system, gamma_bound_sq, value_and_jacobian
from .linalg import CVector, identity, inverse_column_bounds, norm_sq, solve_columns, vec_sub
from .scalars import (
    ExactComplex,
    MODE_RATIONAL,
    PrecisionConfig,
    fraction_to_mpf,
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

    Returns (z lifted, F(z), Newton step, column bounds or None). When
    inverse is set, the bounds are c_j >= sum_i |(J^{-1})_ij|^2, one per
    column, for the curvature bound. Step and bounds are both None when J is
    singular at the working precision.

    With links (m > 0, float mode only) the bounds come from a
    double-precision inverse of J (linalg.inverse_column_bounds), and the
    elimination solves J x = F(z) alone. Otherwise, or when that bound is
    declined, it solves J X = [F(z) | I] and the bounds are the squared
    column norms of the computed J^{-1}. Pivots depend on J alone, so the
    step is bit for bit the same on either route.

    Link-free systems stay on the elimination: in rational mode their bound
    is exact, and in float mode it matches the exact one to the working
    precision, which the double-precision bound, with a slack of order u
    times the condition of J, would not. Runs at the caller's working
    precision.
    """
    z = lift_point(z, prec)
    residual, J = value_and_jacobian(F, z, prec)  # raises in exact mode when m > 0
    columns = inverse_column_bounds(J) if inverse and F.m else None
    eliminate_inverse = inverse and columns is None
    rhs = tuple((v,) for v in residual)
    if eliminate_inverse:
        rhs = tuple(r + e for r, e in zip(rhs, identity(F.N, prec.is_exact)))
    try:
        X = solve_columns(J, rhs, prec.bits)
    except SingularMatrix:
        return z, residual, None, None
    if eliminate_inverse:
        columns = tuple(norm_sq(col) for col in tuple(zip(*X))[1:])
    return z, residual, tuple(row[0] for row in X), columns


def newton_step(F, z: CVector, prec: PrecisionConfig):
    """One Newton iteration; returns (new point, jacobian_invertible).

    On a singular Jacobian the point is returned unchanged with flag False.
    """
    F = as_exp_system(F)
    with working_precision(prec.bits):
        z, _, step, _ = _linearize(F, z, prec, inverse=False)
        if step is None:
            return z, False
        return tuple(a - b for a, b in zip(z, step)), True


def certify_solution(F, z: CVector, prec: PrecisionConfig) -> Certificate:
    """Full certification of one point against a square system."""
    F = as_exp_system(F)
    with working_precision(prec.bits):
        z, residual, step, columns = _linearize(F, z, prec, inverse=True)
        gamma_sq = math.inf if columns is None else gamma_bound_sq(F, z, columns, prec)
        if prec.is_exact and all(v.is_zero() for v in residual):
            return Certificate(
                beta_sq=Fraction(0),
                gamma_bound_sq=gamma_sq,
                alpha_bound_sq=Fraction(0),
                jacobian_invertible=columns is not None,
                exact_zero=True,
                certified_approximate=True,
                mode=prec.mode,
                bits=prec.bits,
            )
        if step is None:
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
        bsq = norm_sq(step)
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
    ||z1 - z2|| > 2 (beta1 + beta2) without taking square roots; floating
    mode evaluates the separation condition directly.
    """
    if not (cert1.certified_approximate and cert2.certified_approximate):
        raise NotCertified("certify_distinct needs two certified approximate solutions")
    if cert1.mode == MODE_RATIONAL and cert2.mode == MODE_RATIONAL:
        dsq = norm_sq(vec_sub(z1, z2))
        return dsq > 2 * SEPARATION_FACTOR**2 * (cert1.beta_sq + cert2.beta_sq)
    bits = max(cert1.bits, cert2.bits)
    with working_precision(bits):
        prec = PrecisionConfig(mode="float", bits=bits)
        a = lift_point(z1, prec)
        b = lift_point(z2, prec)
        dist = mp.sqrt(norm_sq(vec_sub(a, b)))
        b1 = mp.sqrt(_as_working_mpf(cert1.beta_sq, bits))
        b2 = mp.sqrt(_as_working_mpf(cert2.beta_sq, bits))
        return dist > SEPARATION_FACTOR * (b1 + b2)


def same_root(F, cert_x: Certificate, z_x: CVector, z_y: CVector, prec: PrecisionConfig) -> bool:
    """Certify that z_y is an approximate solution sharing z_x's solution.

    Requires the strong bound alpha < 3/100 at z_x; then any point within
    1/(20 gamma) of z_x converges to the same solution. Tested squared:
    ||x - y||^2 * gamma^2 < 1/400.
    """
    if not _lt_exact(cert_x.alpha_bound_sq, ROBUST_ALPHA_SQ):
        raise PreconditionFailed("same_root needs alpha < 3/100 at the anchor point")
    if tuple(z_x) == tuple(z_y):
        return True
    if _is_infinite(cert_x.gamma_bound_sq):
        return False
    with working_precision(prec.bits):
        a = lift_point(z_x, prec)
        b = lift_point(z_y, prec)
        dsq = norm_sq(vec_sub(a, b))
        return _lt_exact(dsq * cert_x.gamma_bound_sq, ROBUST_RADIUS_SQ)


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
        if _lt_exact(cert.alpha_bound_sq, ROBUST_ALPHA_SQ) and not _is_infinite(cert.gamma_bound_sq):
            if _lt_exact(imag_sq * cert.gamma_bound_sq, ROBUST_RADIUS_SQ):
                return RealStatus.REAL
        return RealStatus.UNDECIDED


@dataclass(frozen=True)
class BatchOptions:
    distinct: bool = True
    real: bool = True
    threads: int | None = None
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


def _thread_count(options: BatchOptions, njobs: int) -> int:
    if options.threads is not None:
        limit = options.threads
    else:
        env = os.environ.get("EXPCERT_THREADS")
        try:
            limit = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ValidationError(f"EXPCERT_THREADS must be an integer, got {env!r}") from None
    return max(1, min(limit, njobs))


def certify_batch(F, points, prec: PrecisionConfig, options: BatchOptions = BatchOptions()) -> BatchReport:
    """Certify a list of points, then group and test the certified ones.

    Per-point failures are recorded, never fatal. Certified points are
    partitioned into distinct-solution sets: two points that cannot be
    certified distinct share a set id (the smallest member index). Reports
    are assembled in input order regardless of scheduling.
    """
    F = as_exp_system(F)
    report = BatchReport(mode=prec.mode, bits=prec.bits)
    records = [PointRecord(index=i, point=tuple(p)) for i, p in enumerate(points)]
    report.records = records
    if not records:
        report.real_map = real_map_check(F)
        return report

    def work(rec: PointRecord):
        try:
            rec.certificate = certify_solution(F, rec.point, prec)
        except ExpcertError as exc:
            rec.error = f"{type(exc).__name__}: {exc}"

    nthreads = _thread_count(options, len(records))
    if nthreads == 1:
        for rec in records:
            work(rec)
    else:
        with working_precision(prec.bits):
            with ThreadPoolExecutor(max_workers=nthreads) as pool:
                list(pool.map(work, records))

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
                if not certify_distinct(F, ra.certificate, ra.point, rb.certificate, rb.point):
                    union(ra.index, rb.index)
        for r in certified:
            r.distinct_set = find(r.index)

    report.real_map = real_map_check(F) or options.assume_real_map
    if options.real and report.real_map:
        for r in certified:
            r.real = certify_real(
                F, r.certificate, r.point, prec, assume_real_map=options.assume_real_map
            )
    return report
