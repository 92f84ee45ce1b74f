"""Polynomial-exponential systems: evaluation, Jacobians, derivative bounds.

The soundness checks compare certified bounds against closed-form k-th
derivatives of the built-in function kinds, which is the entire point of
the ODE-data machinery: the bound may be loose but must never be below the
truth.
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from expcert.certify import certify_solution
from expcert.errors import (
    ExactModeUnsupported,
    PreconditionFailed,
    ValidationError,
)
from expcert.expsystems import (
    ExpKind,
    ExpLink,
    ExpSystem,
    OdeBoundData,
    as_exp_system,
    builtin_bound_value,
    builtin_ode_data,
    evaluate_exp,
    gamma_bound_generic,
    gamma_bound_sq,
    jacobian_exp,
    link_bound_term,
    mu_exp_sq,
    ode_derivative_bound,
)
from expcert.linalg import invert
from expcert.mechanisms import compliant_linkage
from expcert.polynomials import Polynomial, PolynomialSystem
from expcert.scalars import ExactComplex, PrecisionConfig, exact_to_mpc

F96 = PrecisionConfig("float", 96)
F192 = PrecisionConfig("float", 192)
RAT = PrecisionConfig("rational", 64)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def poly(nv, *items):
    return Polynomial.from_terms(nv, items)


def simple_system():
    """n = 1 row x + y, one link y = sin x; N = 2."""
    P = PolynomialSystem((poly(2, (1, (1, 0)), (1, (0, 1))),))
    return ExpSystem(P, (ExpLink(ExpKind.SIN, ec(1), 1, 2),))


def test_shape_properties():
    F = simple_system()
    assert (F.n, F.m, F.N) == (1, 1, 2)
    assert not F.is_polynomial()
    assert as_exp_system(F) is F


def test_as_exp_system_wraps_polynomials():
    S = PolynomialSystem((poly(1, (1, (1,))),))
    F = as_exp_system(S)
    assert F.m == 0 and F.is_polynomial()
    with pytest.raises(TypeError):
        as_exp_system("nope")


@pytest.mark.parametrize(
    "src,dst",
    [(2, 2), (0, 2), (1, 1), (1, 3)],
)
def test_link_index_validation(src, dst):
    P = PolynomialSystem((poly(2, (1, (1, 0))),))
    with pytest.raises(ValidationError):
        ExpSystem(P, (ExpLink(ExpKind.SIN, ec(1), src, dst),))


def test_duplicate_link_target_rejected():
    P = PolynomialSystem((poly(3, (1, (1, 0, 0)),), poly(3, (1, (0, 1, 0)),)))
    links = (
        ExpLink(ExpKind.SIN, ec(1), 1, 3),
        ExpLink(ExpKind.COS, ec(1), 2, 3),
    )
    with pytest.raises(ValidationError):
        ExpSystem(P, links)


def test_evaluate_and_jacobian_hand_case():
    F = simple_system()
    with mp.workprec(96):
        z = (mp.mpc(0), mp.mpc(1))
        vals = evaluate_exp(F, z, F96)
        assert abs(vals[0] - 1) < 1e-25
        assert abs(vals[1] - 1) < 1e-25  # y - sin(0)
        J = jacobian_exp(F, z, F96)
        assert abs(J[0][0] - 1) < 1e-25 and abs(J[0][1] - 1) < 1e-25
        assert abs(J[1][0] + 1) < 1e-25  # -cos(0)
        assert abs(J[1][1] - 1) < 1e-25


def test_exact_mode_rejected_with_links():
    F = simple_system()
    with pytest.raises(ExactModeUnsupported):
        evaluate_exp(F, (ec(0), ec(0)), RAT)
    with pytest.raises(ExactModeUnsupported):
        gamma_bound_sq(F, (ec(0), ec(0)), None, RAT)
    with pytest.raises(ExactModeUnsupported):
        certify_solution(F, (ec(0), ec(0)), RAT)


def test_jacobian_matches_central_differences():
    """O(h^2) finite-difference agreement on the compliant system."""
    G, (B1, _) = compliant_linkage()
    prec = PrecisionConfig("float", 192)
    with mp.workprec(192):
        z = [mp.mpc(complex(float(c.re), float(c.im))) for c in B1]
        J = jacobian_exp(G, tuple(z), prec)
        h = mp.mpf(1) / 10**12
        worst = mp.mpf(0)
        for j in range(G.N):
            zp = list(z)
            zm = list(z)
            zp[j] = zp[j] + h
            zm[j] = zm[j] - h
            fp = evaluate_exp(G, tuple(zp), prec)
            fm = evaluate_exp(G, tuple(zm), prec)
            for i in range(G.N):
                fd = (fp[i] - fm[i]) / (2 * h)
                worst = max(worst, abs(fd - J[i][j]) / max(1, abs(J[i][j])))
        assert worst < mp.mpf(10) ** -20


def test_builtin_ode_data_orders():
    assert builtin_ode_data(ExpKind.EXP, ec(3)).r == 1
    for kind in (ExpKind.SIN, ExpKind.COS, ExpKind.SINH, ExpKind.COSH):
        data = builtin_ode_data(kind, ec(2))
        assert data.r == 2
        assert data.coeffs[0] == Fraction(4)  # |c|^2 exactly


def test_ode_data_validation():
    with pytest.raises(ValidationError):
        OdeBoundData(0, ())
    with pytest.raises(ValidationError):
        OdeBoundData(2, (Fraction(1),))


def test_ode_c_floor_at_one():
    with mp.workprec(64):
        assert builtin_ode_data(ExpKind.EXP, ec(Fraction(1, 2))).C == 1
        assert builtin_ode_data(ExpKind.EXP, ec(5)).C == 5


_DERIV_CYCLE = {
    ExpKind.EXP: lambda w, k: mp.exp(w),
    ExpKind.SIN: lambda w, k: (mp.sin(w), mp.cos(w), -mp.sin(w), -mp.cos(w))[k % 4],
    ExpKind.COS: lambda w, k: (mp.cos(w), -mp.sin(w), -mp.cos(w), mp.sin(w))[k % 4],
    ExpKind.SINH: lambda w, k: (mp.sinh(w), mp.cosh(w))[k % 2],
    ExpKind.COSH: lambda w, k: (mp.cosh(w), mp.sinh(w))[k % 2],
}

_SAMPLES = [mp.mpc(0), mp.mpc(1), mp.mpc(-2), mp.mpc("0.5", "1.5"),
            mp.mpc(0, -2), mp.mpc(3), mp.mpc("-1.25", "0.75")]


@pytest.mark.parametrize("kind", list(ExpKind))
@pytest.mark.parametrize("cval", [ec(1), ec(2), ec(Fraction(1, 3)), ec(1, 1)])
def test_derivative_bound_sound_for_builtins(kind, cval):
    """|d^k/dx^k g(c x)| <= certified bound, k <= 12, sampled x."""
    with mp.workprec(128):
        data = builtin_ode_data(kind, cval)
        c = exact_to_mpc(cval, 128)
        for x in _SAMPLES:
            B = builtin_bound_value(kind, cval, x)
            for k in range(13):
                truth = abs(c**k * _DERIV_CYCLE[kind](c * x, k))
                bound = ode_derivative_bound(data, B, k)
                assert truth <= bound * (1 + mp.mpf(10) ** -25), (kind, x, k)


def test_derivative_bound_sound_for_external_ode():
    """y = x sin x solves y'''' + 2 y'' + y = 0; its data must bound k <= 12."""
    data = OdeBoundData(4, (Fraction(1), Fraction(0), Fraction(2), Fraction(0)))
    with mp.workprec(128):
        y = [
            lambda x: x * mp.sin(x),
            lambda x: mp.sin(x) + x * mp.cos(x),
            lambda x: 2 * mp.cos(x) - x * mp.sin(x),
            lambda x: -3 * mp.sin(x) - x * mp.cos(x),
        ]

        def deriv(x, k):
            # closed cycle of period 4 on (a sin + b cos + x(c sin + d cos))
            if k < 4:
                return y[k](x)
            # d^k y = d^(k-4)(y'''') = d^(k-4)(-2y'' - y)
            return -2 * deriv(x, k - 2) - deriv(x, k - 4)

        for x in (mp.mpf(0), mp.mpf(1), mp.mpf(-2), mp.mpf("2.5")):
            B = max(abs(y[j](x)) for j in range(4))
            for k in range(13):
                truth = abs(deriv(x, k))
                bound = ode_derivative_bound(data, B, k)
                assert truth <= bound * (1 + mp.mpf(10) ** -25), (x, k)


def test_ode_derivative_bound_validation():
    data = builtin_ode_data(ExpKind.SIN, ec(1))
    with pytest.raises(PreconditionFailed):
        ode_derivative_bound(data, 1, -1)
    with pytest.raises(PreconditionFailed):
        ode_derivative_bound(data, -1, 2)


def test_link_bound_term_floor():
    with mp.workprec(96):
        link = ExpLink(ExpKind.SIN, ec(1), 1, 2)
        # at x = 0: max(1, |sin 0|/2, |cos 0|/2) = 1
        assert link_bound_term(link, mp.mpc(0)) == 1


def test_generic_bound_preconditions():
    data = builtin_ode_data(ExpKind.EXP, ec(1))
    with mp.workprec(96):
        with pytest.raises(PreconditionFailed):
            gamma_bound_generic(Fraction(1, 2), 2, Fraction(2), [(data, 1)])
        with pytest.raises(PreconditionFailed):
            gamma_bound_generic(Fraction(2), 2, Fraction(1, 2), [(data, 1)])
        with pytest.raises(PreconditionFailed):
            gamma_bound_generic(Fraction(2), 2, Fraction(2), [(data, -1)])


def test_generic_bound_monotone_in_b():
    data = builtin_ode_data(ExpKind.SIN, ec(2))
    with mp.workprec(96):
        lo = gamma_bound_generic(Fraction(2), 3, Fraction(2), [(data, 1)])
        hi = gamma_bound_generic(Fraction(2), 3, Fraction(2), [(data, 10)])
        assert hi > lo


rat = st.fractions(min_value=-8, max_value=8, max_denominator=16)


@st.composite
def square_rational_systems(draw):
    nv = draw(st.integers(1, 2))
    rows = []
    for _ in range(nv):
        items = []
        for _ in range(draw(st.integers(2, 3))):
            exps = tuple(draw(st.integers(0, 2)) for _ in range(nv))
            items.append((ExactComplex(draw(rat), draw(rat)), exps))
        rows.append(Polynomial.from_terms(nv, items))
    point = tuple(ExactComplex(draw(rat), draw(rat)) for _ in range(nv))
    return PolynomialSystem(tuple(rows)), point


@settings(max_examples=40, deadline=None)
@given(square_rational_systems())
def test_reduction_identity_for_linkfree_systems(case):
    """The float bound on m = 0 equals the exact polynomial bound."""
    S, z = case
    exact_sq = certify_solution(S, z, RAT).gamma_bound_sq
    if math.isinf(exact_sq):
        return
    with mp.workprec(192):
        got = mp.sqrt(certify_solution(S, z, F192).gamma_bound_sq)
        want = mp.sqrt(mp.mpf(exact_sq.numerator) / exact_sq.denominator)
        assert abs(got - want) <= want * mp.mpf(10) ** -40


def test_mu_matches_polynomial_route_exactly():
    S = PolynomialSystem((poly(1, (1, (2,)), (-2, (0,))),))
    F = as_exp_system(S)
    with mp.workprec(96):
        Jinv = invert(jacobian_exp(F, (ec(Fraction(3, 2)),), F96), 96)
        musq = mu_exp_sq(F, (ec(Fraction(3, 2)),), Jinv, F96)
        # polynomial route: mu^2 = max(1, 5 * 13/18) = 65/18
        assert abs(musq - mp.mpf(65) / 18) < mp.mpf(10) ** -25
