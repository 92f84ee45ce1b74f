"""Polynomials, systems, and the polynomial curvature bound.

The bound is read from certify_solution's exact certificate, the one entry
point that factors the Jacobian and feeds its inverse to the bound. The
dominance test at the bottom is the load-bearing one: it checks, in
exact rational arithmetic, that the computed squared curvature bound
dominates every directional sample of the true higher-derivative quantity
it is meant to majorize. Degree <= 5 keeps the sampled supremum finite and
the comparison free of any rounding.
"""

import math
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from expcert.certify import certify_solution
from expcert.errors import DimensionMismatch, ValidationError
from expcert.expsystems import exact_core, value_and_jacobian
from expcert.linalg import norm_sq
from expcert.mechanisms import two_link_arm_exp
from expcert.polynomials import (
    Monomial,
    Polynomial,
    PolynomialSystem,
    bw_norm_sq,
    pmul,
)
from expcert.scalars import ExactComplex, PrecisionConfig, lift_point

from test_linalg import solve_vector

rat = st.fractions(min_value=-20, max_value=20, max_denominator=32)
RAT = PrecisionConfig("rational", 64)


def exact_value_and_jacobian(S: PolynomialSystem, z):
    """F(z) and Df(z) of a polynomial system at an exact point, from
    Polynomial.evaluate and derivative: the reference for the integer
    program."""
    return (tuple(p.evaluate(z) for p in S.polys),
            tuple(tuple(p.derivative(j).evaluate(z) for j in range(S.nv)) for p in S.polys))


def delta_sq_entries(degrees, n1sq) -> list:
    """Squared diagonal entries d_i * n1sq^(d_i - 1) of the scaling matrix of
    the curvature bound: the reference for its row terms."""
    return [d * n1sq ** (d - 1) if d else 0 * n1sq for d in degrees]


def variable(nv: int, j: int) -> Polynomial:
    exps = [0] * nv
    exps[j] = 1
    return Polynomial.from_terms(nv, [(ExactComplex.of(1), tuple(exps))])


def constant(nv: int, c) -> Polynomial:
    return Polynomial.from_terms(nv, [(ExactComplex.of(c), (0,) * nv)])


def padd(p: Polynomial, q: Polynomial) -> Polynomial:
    return Polynomial.from_terms(p.nv, [(c, m) for c, m in p.terms] + [(c, m) for c, m in q.terms])


def ppow(p: Polynomial, k: int) -> Polynomial:
    out = constant(p.nv, 1)
    for _ in range(k):
        out = pmul(out, p)
    return out


def compose(poly: Polynomial, subs, nfree: int) -> Polynomial:
    """poly with variable v replaced by the polynomial subs[v], over nfree
    variables, polynomial by polynomial: the reference for the slice
    restriction (homotopy._restrict)."""
    acc = Polynomial.from_terms(nfree, [])
    for coeff, mono in poly.terms:
        term = constant(nfree, coeff)
        for v, e in enumerate(mono.exponents):
            if e:
                term = pmul(term, ppow(subs[v], e))
        acc = padd(acc, term)
    return acc


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def poly(nv, *items):
    return Polynomial.from_terms(nv, [(ec(c) if not isinstance(c, ExactComplex) else c, e) for c, e in items])


def test_monomial_validation():
    assert Monomial((1, 2)).total_degree == 3
    with pytest.raises(Exception):
        Monomial((-1,))


def test_from_terms_merges_and_prunes():
    p = poly(1, (1, (2,)), (2, (2,)), (5, (0,)), (-5, (0,)))
    assert len(p.terms) == 1
    assert p.terms[0][0] == ec(3)
    assert p.degree == 2


def test_zero_polynomial():
    p = poly(2)
    assert p.is_zero() and p.degree == 0
    assert p.evaluate((ec(1), ec(1))) == ec(0)


def test_graded_lex_order():
    p = poly(2, (1, (0, 2)), (1, (1, 0)), (1, (2, 0)), (1, (0, 0)))
    degrees = [m.exponents for _, m in p.terms]
    assert degrees == [(2, 0), (0, 2), (1, 0), (0, 0)]


def test_evaluate_exact():
    p = poly(2, (2, (1, 1)), (-3, (0, 0)))
    assert p.evaluate((ec(Fraction(1, 2)), ec(4))) == ec(1)


def test_derivative_hand_case():
    p = poly(1, (1, (3,)), (-1, (1,)))  # x^3 - x
    dp = p.derivative(0)
    assert dp == poly(1, (3, (2,)), (-1, (0,)))


def _mul(p: Polynomial, q: Polynomial) -> Polynomial:
    items = []
    for cp, mp_ in p.terms:
        for cq, mq in q.terms:
            items.append((cp * cq, tuple(a + b for a, b in zip(mp_.exponents, mq.exponents))))
    return Polynomial.from_terms(p.nv, items)


@st.composite
def small_polys(draw, nv=2, max_deg=3):
    items = []
    for _ in range(draw(st.integers(1, 4))):
        exps = tuple(draw(st.integers(0, max_deg)) for _ in range(nv))
        items.append((ExactComplex(draw(rat), draw(rat)), exps))
    return Polynomial.from_terms(nv, items)


@settings(max_examples=50, deadline=None)
@given(small_polys(), small_polys())
def test_derivative_satisfies_product_rule(p, q):
    lhs = _mul(p, q).derivative(0)
    rhs = Polynomial.from_terms(
        2, list(_mul(p.derivative(0), q).terms) + list(_mul(p, q.derivative(0)).terms)
    )
    assert lhs == rhs


def test_variable_and_constant_builders():
    x = variable(2, 0)
    assert x.evaluate((ec(7), ec(0))) == ec(7)
    c = constant(2, ec(5))
    assert c.degree == 0 and c.evaluate((ec(1), ec(2))) == ec(5)


def test_system_shape_and_jacobian():
    x, y = variable(2, 0), variable(2, 1)
    S = PolynomialSystem((_mul(x, x), _mul(x, y)))
    assert S.n == 2 and S.nv == 2 and S.degrees == (2, 2)
    pt = (ec(3), ec(5))
    values, J = exact_value_and_jacobian(S, pt)
    assert J == ((ec(6), ec(0)), (ec(5), ec(3)))
    assert values == (ec(9), ec(15))


def test_jacobian_dimension_check():
    S = PolynomialSystem((variable(2, 0),))
    with pytest.raises(DimensionMismatch):
        exact_core(S, (ec(1),), RAT)
    F96 = PrecisionConfig("float", 96)
    with pytest.raises(DimensionMismatch):
        value_and_jacobian(S, lift_point((ec(1),), F96), F96)
    G, (Z1, _) = two_link_arm_exp()  # the linked core checks the size too
    with pytest.raises(DimensionMismatch):
        exact_core(G, Z1[:5], F96)


@pytest.mark.parametrize(
    "items,expected",
    [
        ([(1, (2,)), (-2, (0,))], Fraction(5)),  # x^2 - 2: weights 1 and 1
        ([(1, (1, 1))], Fraction(1, 2)),  # xy in degree 2: weight 1/2
        ([(1, (2, 0))], Fraction(1)),
        ([(3, (1, 0)), (2, (0, 1)), (-1, (0, 0))], Fraction(14)),  # linear row
    ],
)
def test_bw_norm_hand_values(items, expected):
    nv = len(items[0][1])
    assert bw_norm_sq(poly(nv, *items)) == expected


def test_bw_norm_of_system_sums_rows():
    p1 = poly(1, (1, (2,)), (-2, (0,)))
    p2 = poly(1, (1, (1,)))
    assert bw_norm_sq(PolynomialSystem((p1, p2))) == Fraction(6)


def test_delta_entries():
    assert delta_sq_entries((3, 2, 1, 0), Fraction(5)) == [75, 10, 1, 0]


def test_gamma_bound_hand_value():
    # x^2 - 2 at x = 3/2: ||f||^2 = 5, Jinv = 1/3, Delta^2 = 2 * (1 + 9/4),
    # mu^2 = 5 * (13/2) / 9 = 65/18, bound = mu^2 * 8 / (4 * 13/4).
    S = PolynomialSystem((poly(1, (1, (2,)), (-2, (0,))),))
    got = certify_solution(S, (ec(Fraction(3, 2)),), RAT).gamma_bound_sq
    assert got == Fraction(65, 18) * 8 / 13


def test_gamma_bound_singular_jacobian():
    # x^2 at 0: an exact zero whose Jacobian is singular; the bound is infinite.
    S = PolynomialSystem((poly(1, (1, (2,))),))
    cert = certify_solution(S, (ec(0),), RAT)
    assert math.isinf(cert.gamma_bound_sq) and not cert.jacobian_invertible


def test_gamma_bound_nonsquare_rejected():
    S = PolynomialSystem((variable(2, 0),))
    with pytest.raises(ValidationError):
        certify_solution(S, (ec(1), ec(1)), RAT)


def _directional(p: Polynomial, u) -> Polynomial:
    items = []
    for j, uj in enumerate(u):
        for c, m in p.derivative(j).terms:
            items.append((c * uj, m.exponents))
    return Polynomial.from_terms(p.nv, items)


def _random_system(rng: random.Random, nv: int) -> PolynomialSystem:
    rows = []
    for _ in range(nv):
        items = []
        for _ in range(rng.randint(2, 4)):
            exps = tuple(rng.randint(0, 3) for _ in range(nv))
            if sum(exps) > 5:
                continue
            coeff = ExactComplex(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            )
            items.append((coeff, exps))
        rows.append(Polynomial.from_terms(nv, items))
    return PolynomialSystem(tuple(rows))


def test_gamma_bound_dominates_directional_samples():
    """Exact dominance over the finite directional supremum, 200 systems.

    For degree d <= 5 only derivative orders k = 2..d are nonzero, so the
    true curvature quantity is a finite supremum. Every directional sample
    gives the rigorous lower bound
        gamma^(k-1) >= ||Df(x)^-1 D^k f(x)[u,..,u]|| / (k! ||u||^k),
    compared here in squared, power-cleared, fully rational form.
    """
    rng = random.Random(52)
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 2000:
        attempts += 1
        nv = rng.choice((1, 1, 2))
        S = _random_system(rng, nv)
        if any(p.is_zero() for p in S.polys):
            continue
        x = tuple(ec(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(nv))
        bound_sq = certify_solution(S, x, RAT).gamma_bound_sq
        if math.isinf(bound_sq):
            continue
        _, J = exact_value_and_jacobian(S, x)
        for _ in range(3):
            u = tuple(ec(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(nv))
            if all(c.is_zero() for c in u):
                continue
            usq = norm_sq(u)
            rows = [_directional(p, u) for p in S.polys]
            for k in range(2, max(S.degrees) + 1):
                rows = [_directional(p, u) for p in rows]
                gk = tuple(p.evaluate(x) for p in rows)
                w = solve_vector(J, gk)
                lhs = bound_sq ** (k - 1) * Fraction(factorial(k)) ** 2 * usq**k
                assert lhs >= norm_sq(w), (S, x, u, k)
        checked += 1
    assert checked == 200
