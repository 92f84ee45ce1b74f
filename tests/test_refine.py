"""Newton refinement and its residual tables."""

from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from expcert.expsystems import as_exp_system
from expcert.homotopy import taylor_truncate
from expcert.mechanisms import two_link_arm_exp, two_link_arm_poly
from expcert.polynomials import Polynomial, PolynomialSystem
from expcert.refine import ResidualTable, newton_iterate, newton_refine
from expcert.scalars import ExactComplex, PrecisionConfig, coord_to_exact, mpf_to_fraction
from expcert.sysio import parse_points, parse_system

from test_expsystems import linearization_cases

DATA = Path(__file__).resolve().parent.parent / "data"
RAT = PrecisionConfig("rational", 64)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def _sqrt2_system():
    return PolynomialSystem(
        (Polynomial.from_terms(1, [(ec(1), (2,)), (ec(-2), (0,))]),)
    )


def _is_dyadic(v: ExactComplex, bits: int) -> bool:
    """Whether both parts of v have a power of two of at most 2^bits as denominator."""
    return all(p.denominator & (p.denominator - 1) == 0 and p.denominator <= 2**bits
               for p in (v.re, v.im))


def test_two_steps_from_three_halves():
    """Two floating steps at 64 bits from 3/2 end within 2^-63 of the exact
    iterate 577/408, read exactly as a dyadic; the steps' squared lengths
    are those of the exact steps, 1/144 and 1/166464, to the rounding of
    the iterates."""
    S = _sqrt2_system()
    z, table = newton_refine(S, (ec(Fraction(3, 2)),), 2, RAT)
    (v,) = z
    assert _is_dyadic(v, 64) and v.im == 0
    assert abs(v.re - Fraction(577, 408)) <= Fraction(1, 2**63)
    assert table.singular_at is None
    ks = [k for k, _ in table.rows]
    assert ks == [0, 1, 2]
    for (_, bsq), exact in zip(table.rows, (Fraction(1, 144), Fraction(1, 166464))):
        assert abs(mpf_to_fraction(bsq) - exact) <= exact / 2**52


def test_residuals_square_each_step():
    """In the quadratic regime each recorded beta is about the previous squared."""
    S = _sqrt2_system()
    _, table = newton_refine(S, (ec(Fraction(3, 2)),), 4, RAT)
    prev = None
    for _, bsq in table.rows[:-1]:
        assert bsq > 0
        if prev is not None:
            # beta_{j+1} <= beta_j^2 (gamma for this system is about 0.7)
            assert bsq <= prev**2
        prev = bsq


def test_zero_steps_returns_start():
    S = _sqrt2_system()
    z0 = (ec(Fraction(3, 2)),)
    z, table = newton_refine(S, z0, 0, RAT)
    assert z == z0
    assert len(table.rows) == 1 and table.rows[0][0] == 0


def test_negative_steps_rejected():
    S = _sqrt2_system()
    with pytest.raises(ValueError):
        newton_refine(S, (ec(1),), -1, RAT)


def test_singular_start_recorded_not_raised():
    S = PolynomialSystem((Polynomial.from_terms(1, [(ec(1), (2,)), (ec(-1), (0,))]),))
    z, table = newton_refine(S, (ec(0),), 3, RAT)
    assert z == (ec(0),)
    assert table.singular_at == 0
    assert table.rows[-1][1] == 0


def test_refined_point_stays_put_once_converged():
    g, (X1, _) = two_link_arm_poly()
    prec = PrecisionConfig("rational", 256)
    z5, _ = newton_refine(g, X1, 5, prec)
    z6, _ = newton_refine(g, X1, 6, prec)
    # the residual at z5 bounds how far z6 can sit from it
    d = max((a - b).abs2() for a, b in zip(z5, z6))
    assert d < Fraction(1, 10**60)


def test_float_mode_table_tracks_precision():
    G, (Z1, _) = two_link_arm_exp()
    prec = PrecisionConfig("float", 224)
    z, table = newton_refine(G, Z1, 5, prec)
    vals = table.beta_values(224)
    assert len(vals) == 6
    with mp.workprec(224):
        floor = mp.mpf(2) ** (-200)
        # steps shrink monotonically until they hit the precision floor
        betas = [b for _, b in vals]
        for a, b in zip(betas, betas[1:]):
            assert b < a or a < floor


def test_beta_values_mixed_fractions():
    """A `certify --refine` table: mpf rows from the steps taken, and a
    Fraction row K, the certificate's beta^2."""
    S = _sqrt2_system()
    _, rows, _ = newton_iterate(S, (ec(Fraction(3, 2)),), 1, RAT)
    table = ResidualTable(rows=rows + ((1, Fraction(1, 166464)),))
    vals = table.beta_values(96)
    assert [k for k, _ in vals] == [0, 1]
    with mp.workprec(96):
        assert abs(vals[0][1] - mp.mpf(1) / 12) < mp.mpf(2) ** (-60)
        assert abs(vals[1][1] - mp.mpf(1) / 408) < mp.mpf(2) ** (-100)


@settings(max_examples=100, deadline=None)
@given(linearization_cases(), st.integers(0, 3), st.sampled_from([64, 96, 256]))
def test_a_rational_iterate_is_the_float_iterate_read_exactly(case, k, bits):
    """newton_iterate takes the same floating steps in both modes: at
    rational b its point is the point at float b read exactly, and its
    rows and singular_at are the float ones."""
    S, z = case
    point, rows, singular_at = newton_iterate(S, z, k, PrecisionConfig("rational", bits))
    fpoint, frows, fsingular_at = newton_iterate(S, z, k, PrecisionConfig("float", bits))
    assert point == tuple(coord_to_exact(v) for v in fpoint)
    assert all(isinstance(v, ExactComplex) for v in point)
    assert [(j, b._mpf_) for j, b in rows] == [(j, b._mpf_) for j, b in frows]
    assert singular_at == fsingular_at


def test_rational_iterates_keep_their_size():
    """Two rational steps at 64 bits from the 64-bit point of compliant's
    Taylor truncation 3,8,9,6,4,7 (its reference point refined once in
    float) keep every coordinate dyadic, with a denominator of at most
    2^80. An exact step there multiplied the size: its first step alone
    gave denominators of 2^1925 and more."""
    G = as_exp_system(parse_system((DATA / "compliant.sys").read_text()))
    T = taylor_truncate(G, (3, 8, 9, 6, 4, 7))
    ref = parse_points((DATA / "compliant.pts").read_text()).points[0]
    z = tuple(coord_to_exact(v) for v in newton_refine(T, ref, 1, PrecisionConfig("float", 64))[0])
    point, rows, singular_at = newton_iterate(T, z, 2, RAT)
    assert singular_at is None and len(rows) == 2
    assert all(_is_dyadic(v, 80) for v in point)
