"""Newton refinement and its residual tables."""

from fractions import Fraction

import mpmath as mp
import pytest

from expcert.mechanisms import two_link_arm_exp, two_link_arm_poly
from expcert.polynomials import Polynomial, PolynomialSystem
from expcert.refine import newton_refine
from expcert.scalars import ExactComplex, PrecisionConfig

RAT = PrecisionConfig("rational", 64)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def _sqrt2_system():
    return PolynomialSystem(
        (Polynomial.from_terms(1, [(ec(1), (2,)), (ec(-2), (0,))]),)
    )


def test_two_steps_from_three_halves():
    S = _sqrt2_system()
    z, table = newton_refine(S, (ec(Fraction(3, 2)),), 2, RAT)
    assert z == (ec(Fraction(577, 408)),)
    assert table.singular_at is None
    ks = [k for k, _ in table.rows]
    assert ks == [0, 1, 2]
    assert table.rows[0][1] == Fraction(1, 144)
    assert table.rows[1][1] == Fraction(1, 166464)


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
    z5, _ = newton_refine(g, X1, 5, RAT)
    z6, _ = newton_refine(g, X1, 6, RAT)
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
    S = _sqrt2_system()
    _, table = newton_refine(S, (ec(Fraction(3, 2)),), 1, RAT)
    vals = table.beta_values(96)
    assert vals[0][0] == 0
    with mp.workprec(96):
        assert abs(vals[0][1] - mp.mpf(1) / 12) < mp.mpf(2) ** (-80)
