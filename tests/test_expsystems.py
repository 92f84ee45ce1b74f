"""Polynomial-exponential systems: evaluation, Jacobians, derivative bounds.

The soundness checks compare certified bounds against closed-form k-th
derivatives of the built-in function kinds, which is the entire point of
the ODE-data machinery: the bound may be loose but must never be below the
truth.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

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
    compile_system,
    gamma_bound_generic,
    gamma_bound_sq,
    link_bound_term,
    mu_exp_sq,
    ode_derivative_bound,
    value_and_jacobian,
)
from expcert.homotopy import taylor_truncate
from expcert.linalg import norm1_sq, norm_sq
from expcert.mechanisms import compliant_linkage
from expcert.polynomials import Polynomial, PolynomialSystem
from expcert.scalars import ExactComplex, PrecisionConfig, exact_to_mpc, lift_point, mpf_to_fraction
from expcert.sysio import parse_points, parse_system

from test_linalg import invert

DATA = Path(__file__).resolve().parent.parent / "data"

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
        vals, J = value_and_jacobian(F, z, F96)
        assert abs(vals[0] - 1) < 1e-25
        assert abs(vals[1] - 1) < 1e-25  # y - sin(0)
        assert abs(J[0][0] - 1) < 1e-25 and abs(J[0][1] - 1) < 1e-25
        assert abs(J[1][0] + 1) < 1e-25  # -cos(0)
        assert abs(J[1][1] - 1) < 1e-25


def test_exact_mode_rejected_with_links():
    F = simple_system()
    with pytest.raises(ExactModeUnsupported):
        value_and_jacobian(F, (ec(0), ec(0)), RAT)
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
        _, J = value_and_jacobian(G, tuple(z), prec)
        h = mp.mpf(1) / 10**12
        worst = mp.mpf(0)
        for j in range(G.N):
            zp = list(z)
            zm = list(z)
            zp[j] = zp[j] + h
            zm[j] = zm[j] - h
            fp, _ = value_and_jacobian(G, tuple(zp), prec)
            fm, _ = value_and_jacobian(G, tuple(zm), prec)
            for i in range(G.N):
                fd = (fp[i] - fm[i]) / (2 * h)
                worst = max(worst, abs(fd - J[i][j]) / max(1, abs(J[i][j])))
        assert worst < mp.mpf(10) ** -20


# ---------------------------------------------------------------------------
# The compiled program against exact references


def _program_cases():
    """(name, system, points): every data/* pair, then the arm and compliant
    Taylor truncations at their data points; each also gets two seeded
    rational points away from the roots."""
    cases = []
    for path in sorted(DATA.glob("*.sys")):
        F = parse_system(path.read_text())
        cases.append((path.stem, F, parse_points(path.with_suffix(".pts").read_text()).points))
    for stem, degrees in (("rr_dyad", (3, 3, 2, 2)), ("compliant", (2, 3, 2, 3, 2, 3))):
        _, F, points = next(c for c in cases if c[0] == stem)
        cases.append((f"{stem}-truncated", as_exp_system(taylor_truncate(F, degrees)), points))
    rng = random.Random(2011)
    out = []
    for name, F, points in cases:
        extra = tuple(
            tuple(ec(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(F.N))
            for _ in range(2)
        )
        out.append((name, F, tuple(points) + extra))
    return out


_PROGRAM_CASES = {name: (F, points) for name, F, points in _program_cases()}
_LINK_FREE = [name for name, (F, _) in _PROGRAM_CASES.items() if F.m == 0]


@pytest.mark.parametrize("name", _LINK_FREE)
def test_program_is_exact_in_rational_mode(name):
    F, points = _PROGRAM_CASES[name]
    for z in points:
        values, J = value_and_jacobian(F, z, RAT)
        assert values == tuple(p.evaluate(z) for p in F.P.polys)
        assert J == tuple(tuple(p.derivative(j).evaluate(z) for j in range(F.N)) for p in F.P.polys)


@pytest.mark.parametrize("name", list(_PROGRAM_CASES))
def test_float_program_multiplies_each_monomial_out_first(name):
    """Polynomial entries are c * (x^a * y^b), summed from 0 in term order.

    That is the order certification has always used, so certificates stay
    bit for bit what they were; the double-precision program keeps the
    tracker's c * x^a * y^b instead (test_homotopy pins that one).
    """
    F, points = _PROGRAM_CASES[name]
    with mp.workprec(96):
        for z in points:
            zl = lift_point(z, F96)
            values, J = value_and_jacobian(F, zl, F96)

            def monomial_first(p):
                total = mp.mpc(0)
                for c, mono in p.terms:
                    mv = mono.value_at(zl)
                    c = exact_to_mpc(c, 96)
                    total = total + (c if mv is None else c * mv)
                return total._mpc_

            for i, p in enumerate(F.P.polys):
                assert values[i]._mpc_ == monomial_first(p), (name, i)
                assert [v._mpc_ for v in J[i]] == [
                    monomial_first(p.derivative(j)) for j in range(F.N)
                ], (name, i)


def _term_scale(p: Polynomial, z):
    """Sum of |c| |z|^rho over the terms: the scale of a summation's rounding."""
    total = mp.mpf(0)
    for c, mono in p.terms:
        t = abs(exact_to_mpc(c, mp.mp.prec))
        for v, e in zip(z, mono.exponents):
            t *= abs(v) ** e
        total += t
    return total


@pytest.mark.parametrize("bits", [96, 256, 1024])
@pytest.mark.parametrize("name", list(_PROGRAM_CASES))
def test_program_matches_exact_values_in_float_mode(name, bits):
    """Every value and Jacobian entry within 2^(8 - bits) of the exact one.

    The error is relative to the term sum of each entry (for a link row,
    to the size of g, g' and g'' at the argument), because at the data
    points the residuals cancel to far below their terms. Polynomial rows
    are compared with Polynomial.evaluate and Polynomial.derivative(j) at
    the exact dyadic value of the lifted point, link rows with mpmath at
    4x the precision.
    """
    F, points = _PROGRAM_CASES[name]
    prec = PrecisionConfig("float", bits)
    tol = mp.mpf(2) ** (8 - bits)
    for z in points:
        zl = lift_point(z, prec)
        values, J = value_and_jacobian(F, zl, prec)
        zx = tuple(ExactComplex(mpf_to_fraction(v.real), mpf_to_fraction(v.imag)) for v in zl)
        with mp.workprec(4 * bits):
            zh = [exact_to_mpc(v, mp.mp.prec) for v in zx]

            def close(got, want, scale):
                assert abs(got - want) <= tol * scale, (name, bits, got, want)

            for i, p in enumerate(F.P.polys):
                close(values[i], exact_to_mpc(p.evaluate(zx), mp.mp.prec), _term_scale(p, zh))
                for j in range(F.N):
                    d = p.derivative(j)
                    close(J[i][j], exact_to_mpc(d.evaluate(zx), mp.mp.prec), _term_scale(d, zh))
            for k, link in enumerate(F.links):
                i, s, d = F.n + k, link.src - 1, link.dst - 1
                c = exact_to_mpc(link.c, mp.mp.prec)
                w = c * zh[s]
                g = [_DERIV_CYCLE[link.kind](w, r) for r in range(3)]
                size = (1 + abs(w)) * (abs(g[0]) + abs(g[1]) + abs(g[2]))
                close(values[i], zh[d] - g[0], abs(zh[d]) + size)
                for j in range(F.N):
                    want = -c * g[1] if j == s else (1 if j == d else 0)
                    close(J[i][j], want, abs(c) * size if j == s else 0)


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
        Jinv = invert(value_and_jacobian(F, (ec(Fraction(3, 2)),), F96)[1], 96)
        columns = tuple(norm_sq(col) for col in zip(*Jinv))
        musq = mu_exp_sq(F, norm1_sq((ec(Fraction(3, 2)),)), columns, F96)
        # polynomial route: mu^2 = max(1, 5 * 13/18) = 65/18
        assert abs(musq - mp.mpf(65) / 18) < mp.mpf(10) ** -25


def test_equal_systems_share_one_compiled_program():
    """The memoized hash keeps the cache keyed by equality, not identity."""
    text = (DATA / "compliant.sys").read_text()
    F, G = (as_exp_system(parse_system(text)) for _ in range(2))
    assert F is not G and F == G and hash(F) == hash(G)
    assert hash(F) == hash((F.P, F.links)) and hash(F.P) == hash((F.P.polys,))
    compile_system.cache_clear()
    assert compile_system(F, F96) is compile_system(G, F96)
    info = compile_system.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    H = taylor_truncate(F, (2,) * F.m)
    assert H != F.P and compile_system(H) is compile_system(taylor_truncate(G, (2,) * G.m))
