"""Polynomial-exponential systems: evaluation, Jacobians, derivative bounds.

The soundness checks compare exact_core's link envelope terms against
closed-form k-th derivatives of the built-in function kinds: the bound may
be loose but must never be below the truth.
"""

import cmath
import collections
import copy
import math
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import from_man_exp, fzero, mpc_cos, mpc_cos_sin, mpc_sin

from expcert import expsystems
from expcert.certify import certify_batch, certify_solution
from expcert.errors import ExactModeUnsupported, SingularMatrix, ValidationError
from expcert.expsystems import (
    CompiledSystem,
    ExpKind,
    ExpLink,
    ExpSystem,
    as_exp_system,
    compile_system,
    exact_core,
    fraction_free_rows,
    integer_gamma_bound_sq,
    _program_by_equality,
    value_and_jacobian,
)
from expcert.homotopy import taylor_truncate
from expcert.linalg import norm_sq, solve_columns, solve_fraction_free
from expcert.mechanisms import compliant_linkage
from expcert.polynomials import Polynomial, PolynomialSystem, bw_norm_sq
from expcert.refine import newton_refine
from expcert.scalars import (
    ExactComplex,
    PrecisionConfig,
    exact_to_mpc,
    fraction_to_mpf,
    lift_point,
    mpf_to_fraction,
)
from expcert.sysio import parse_points, parse_system, serialize_system

from test_linalg import _dense_solve_columns, _integer_rows, identity, invert, norm1_sq
from test_polynomials import (
    constant,
    delta_sq_entries,
    exact_value_and_jacobian,
    padd,
    ppow,
    variable,
)

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
    assert as_exp_system(F) is F


def test_as_exp_system_wraps_polynomials():
    S = PolynomialSystem((poly(1, (1, (1,))),))
    F = as_exp_system(S)
    assert F.m == 0
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
        certify_solution(F, (ec(0), ec(0)), RAT)
    with pytest.raises(ExactModeUnsupported):
        newton_refine(F, (ec(0), ec(0)), 1, RAT)


def test_value_and_jacobian_refuses_a_rational_precision(monkeypatch):
    """A rational prec is refused with a ValidationError before any program
    is compiled; the same point at a float prec evaluates."""
    F = parse_system((DATA / "rr_dyad_poly.sys").read_text(encoding="utf-8"))
    ones = tuple(ec(1) for _ in range(F.N))

    def compiled(*_args, **_kwargs):
        raise AssertionError("a program was compiled for a rational precision")

    with monkeypatch.context() as patch:
        patch.setattr(expsystems, "compile_system", compiled)
        with pytest.raises(ValidationError, match="takes a float precision"):
            value_and_jacobian(F, ones, RAT)
    values, J = value_and_jacobian(F, ones, F96)
    assert len(values) == len(J) == F.N


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
    """The integer program's N_r / (L_r d^D_r) and M_rj / (L_r d^(D_r - 1))
    are the exact values and Jacobian entries at z = X / d."""
    F, points = _PROGRAM_CASES[name]
    for z in points:
        core = exact_core(F, z, RAT)
        want_values, want_J = exact_value_and_jacobian(F.P, z)
        assert tuple(ExactComplex(Fraction(v.real, q), Fraction(v.imag, q))
                     for v, q in zip(core.values, core.value_scales)) == want_values
        assert tuple(tuple(ExactComplex(Fraction(v.real, q), Fraction(v.imag, q)) for v in row)
                     for row, q in zip(core.rows, core.row_scales)) == want_J


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


# Each link kind as (g, g' up to sign, sign), named in mpmath.
_LINK_REFERENCE = {
    ExpKind.EXP: ("exp", "exp", 1.0),
    ExpKind.SIN: ("sin", "cos", 1.0),
    ExpKind.COS: ("cos", "sin", -1.0),
    ExpKind.SINH: ("sinh", "cosh", 1.0),
    ExpKind.COSH: ("cosh", "sinh", 1.0),
}


def _linked(n, *links):
    """n rows z_1 + ... + z_N - r - 1 in N = n + len(links) variables, and the
    links, each (kind, c, src, dst)."""
    N = n + len(links)
    rows = tuple(poly(N, *[(1, tuple(int(j == i) for j in range(N))) for i in range(N)],
                      (-r - 1, (0,) * N)) for r in range(n))
    return ExpSystem(PolynomialSystem(rows), tuple(ExpLink(k, c, s, d) for k, c, s, d in links))


_LINK_CASES = [(name, F) for name, (F, _) in _PROGRAM_CASES.items() if F.m] + [
    ("two-c-one-source", _linked(1, (ExpKind.SIN, ec(1), 1, 2), (ExpKind.SIN, ec(2), 1, 3),
                                 (ExpKind.COS, ec(2), 1, 4), (ExpKind.COS, ec(0, 1), 1, 5))),
    ("sinh-cosh", _linked(2, (ExpKind.SINH, ec(1), 1, 3), (ExpKind.COSH, ec(1), 1, 4),
                          (ExpKind.COSH, ec(-1, 2), 2, 5))),
    ("exp-pair", _linked(2, (ExpKind.EXP, ec(1), 1, 3), (ExpKind.EXP, ec(1), 1, 4),
                         (ExpKind.EXP, ec(0, 1), 2, 5))),
    ("third", _linked(1, (ExpKind.SIN, ec(Fraction(1, 3)), 1, 2),
                      (ExpKind.COS, ec(Fraction(1, 3)), 1, 3),
                      (ExpKind.EXP, ec(Fraction(1, 3), Fraction(-1, 3)), 1, 4))),
]
# Source values with a zero real part, imaginary part or both, and huge and tiny ones.
_LINK_ARGUMENTS = [(0, 0), (0.75, 0), (0, -0.75), (1.25, -0.5), (2**100, 0), (0, 2**-100),
                   (2**90, -(2**90)), (-(2**-90), 2**-95)]


@pytest.mark.parametrize("bits", [96, 256, 1024])
@pytest.mark.parametrize("name", [name for name, _ in _LINK_CASES])
def test_mpc_link_rows_equal_a_per_link_reference(name, bits):
    """Each link row's value and source entry, as raw parts, equal
    z_dst - g(c z_src) and -c * sign * g'(c z_src) from one mpmath call per
    link and function, under the working precision.

    The program is generated outside the working precision, as the solve
    does before it forks its pool: a -c * sign folded into the source while
    it is generated would round c = 1/3 at 53 bits.
    """
    F = dict(_LINK_CASES)[name]
    prec = PrecisionConfig("float", bits)
    with mp.workprec(bits):
        program = CompiledSystem(F, prec)
    program._evaluate_fn
    with mp.workprec(bits):
        for re, im in _LINK_ARGUMENTS:
            z = [mp.mpc(0.5, 0.25 * i) for i in range(F.N)]
            for link in F.links:
                z[link.src - 1] = mp.mpc(re, im) * link.src
            values, entries = program.evaluate(z)
            got = dict(zip(program.pattern, entries))
            for k, link in enumerate(F.links):
                g, dg, sign = _LINK_REFERENCE[link.kind]
                s, d = link.src - 1, link.dst - 1
                c = exact_to_mpc(link.c, bits)
                w = c * z[s]
                assert values[F.n + k]._mpc_ == (z[d] - getattr(mp, g)(w))._mpc_, (k, re, im)
                want = -c * sign * getattr(mp, dg)(w)
                assert got[F.n + k, s]._mpc_ == want._mpc_, (k, re, im)


_MPF_PARTS = st.one_of(
    st.just(fzero),
    st.builds(from_man_exp, st.integers(-(2**200), 2**200), st.integers(-600, 100)),
)


@settings(max_examples=300, deadline=None)
@given(_MPF_PARTS, _MPF_PARTS, st.sampled_from([53, 96, 256, 1024]),
       st.sampled_from(["n", "f", "c", "d", "u"]))
def test_mpc_cos_sin_is_mpc_cos_and_mpc_sin(a, b, prec, rnd):
    """The program takes sin and cos of one argument from one mpc_cos_sin,
    which in mpmath 1.3.0 forms each part as mpc_cos and mpc_sin do; an
    mpmath that changes this fails here."""
    c, s = mpc_cos_sin((a, b), prec, rnd)
    assert c == mpc_cos((a, b), prec, rnd)
    assert s == mpc_sin((a, b), prec, rnd)


def _transcendental_calls(fn):
    """The mpmath mpc-level and cmath transcendental functions fn calls, counted by name."""
    names = {"exp", "sin", "cos", "sinh", "cosh", "cos_sin"}
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith("libmpc.py"):
            name = frame.f_code.co_name
            if name.startswith("mpc_") and name[4:] in names:
                calls[name] += 1
        elif event == "c_call" and getattr(arg, "__self__", None) is cmath:
            calls[f"cmath.{arg.__name__}"] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_one_compliant_evaluation_calls_cos_sin_once_per_argument():
    """compliant links sin and cos of each of three angles: one mpc_cos_sin
    per angle in mpc, one cmath.sin and one cmath.cos per angle in doubles."""
    F, points = _PROGRAM_CASES["compliant"]
    z = lift_point(points[0], F96)
    compile_system(F, F96).evaluate(z)
    with mp.workprec(96):
        calls = _transcendental_calls(lambda: compile_system(F, F96).evaluate(z))
    assert calls == {"mpc_cos_sin": 3}
    zd = [complex(v) for v in z]
    compile_system(F).evaluate(zd)
    assert _transcendental_calls(lambda: compile_system(F).evaluate(zd)) == {
        "cmath.sin": 3, "cmath.cos": 3}


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
    """The derivative bound of a link y = g(c x) is the envelope term that
    exact_core gives it: (|c|^k |g^(k)(c x)| / k!)^(1/(k-1)) <= the term
    for k = 2..12, at each sampled source x of a one-link system. That is
    the higher-derivative part of gamma the term stands for."""
    P = PolynomialSystem((poly(2, (1, (1, 0)), (1, (0, 1))),))
    F = ExpSystem(P, (ExpLink(kind, cval, 1, 2),))
    with mp.workprec(128):
        c = exact_to_mpc(cval, 128)
        for x in _SAMPLES:
            (term,) = exact_core(F, (x, mp.mpc(0)), F96).envelope
            term = mp.make_mpf(term)
            for k in range(2, 13):
                truth = (abs(c) ** k * abs(_DERIV_CYCLE[kind](c * x, k)) / math.factorial(k)) ** (
                    mp.mpf(1) / (k - 1))
                assert truth <= term * (1 + mp.mpf(10) ** -25), (kind, x, k)


def mpc_link_bound_term(link: ExpLink, xval):
    """Envelope term for one link at the current source value, in mpc at
    the working precision: the reference for the upper ends that
    expsystems.exact_core takes from its enclosures.

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


def mpc_bounds_sq(F: ExpSystem, z, prec: PrecisionConfig):
    """(beta^2, gamma^2) of a system with or without links in mpc, or None
    when J is singular at the working precision: F(z) and J in mpc, one
    elimination of J X = [F(z) | I], mu^2 from the squared column norms of
    the computed J^{-1} and the link envelope terms of mpc_link_bound_term.
    The soft route certify took for float points before every float
    certificate came from exact values, kept as the reference those
    certificates are compared with."""
    with mp.workprec(prec.bits):
        z = lift_point(z, prec)
        residual, J = value_and_jacobian(F, z, prec)
        rhs = tuple((v,) + e for v, e in zip(residual, identity(F.N, False)))
        try:
            X = tuple(zip(*solve_columns(J, rhs, prec.bits)))
        except SingularMatrix:
            return None
        n1sq = norm1_sq(z)
        psq = fraction_to_mpf(bw_norm_sq(F.P), prec.bits)
        scales = [d * psq for d in delta_sq_entries(F.P.degrees, n1sq)] + [1] * F.m
        mu_sq = sum(c * norm_sq(col) for c, col in zip(scales, X[1:]))
        mu_sq = max(mu_sq, mp.mpf(1))
        total = mp.sqrt(mp.mpf(F.P.max_degree)) ** 3 / (2 * mp.sqrt(n1sq))
        for link in F.links:
            total = total + mpc_link_bound_term(link, z[link.src - 1])
        return norm_sq(X[0]), mu_sq * total * total


@st.composite
def linked_cases(draw):
    """x + y_1 + ... + y_5 - 1 in (x, y_1..y_5), with one link of each
    kind, y_k = g_k(c_k x) for rational complex c_k, at a point of random
    96-bit complex coordinates."""
    rng = draw(st.randoms(use_true_random=False))
    links = []
    for k, kind in enumerate(ExpKind):
        c = ExactComplex(Fraction(rng.randint(-12, 12), rng.choice([1, 3, 4])),
                         Fraction(rng.randint(-12, 12), rng.choice([1, 5, 8])))
        links.append(ExpLink(kind, c, 1, k + 2))
    N = 1 + len(links)
    rows = [poly(N, *[(1, tuple(int(j == i) for j in range(N))) for i in range(N)], (-1, (0,) * N))]
    F = ExpSystem(PolynomialSystem(tuple(rows)), tuple(links))
    with mp.workprec(96):
        z = tuple(mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(N))
    return F, z


@settings(max_examples=40, deadline=None)
@given(linked_cases(), st.sampled_from([96, 256]))
def test_linked_rows_enclose_the_link_rows(case, bits):
    """F0 and J0 differ from F(z) and Df(z), evaluated in mpc at 4 * bits,
    by no more than the radii exact_core reports, for every link kind, and
    each envelope term is no smaller than mpc_link_bound_term's."""
    F, z = case
    core = exact_core(F, z, PrecisionConfig("float", bits))
    wp = 4 * bits
    with mp.workprec(wp):
        values, J = value_and_jacobian(F, z, PrecisionConfig("float", wp))
        gap_f = sum(abs(v - _exact_over(a, q)) ** 2 for v, a, q in zip(values, core.values, core.value_scales))
        gap_j = sum(abs(v - _exact_over(a, q)) ** 2
                    for vrow, arow, q in zip(J, core.rows, core.row_scales) for v, a in zip(vrow, arow))
        slack = mp.mpf(2) ** (-3 * bits)  # the mpc evaluation's own rounding
        assert gap_f <= mp.make_mpf(core.delta_sq) + slack
        assert gap_j <= mp.make_mpf(core.jacobian_sq) + slack
        for link, term in zip(F.links, core.envelope):
            assert mpc_link_bound_term(link, z[link.src - 1]) <= mp.make_mpf(term)


def _exact_over(a, q):
    return mp.mpc(mp.mpf(a.real) / q, mp.mpf(a.imag) / q)


def test_link_bound_term_floor():
    """At x = 0, max(1, |sin 0|/2, |cos 0|/2) = 1: the enclosures of sin 0 and
    cos 0 are exact, so the exact core's upper end is 1 too."""
    F = simple_system()
    with mp.workprec(96):
        assert mpc_link_bound_term(F.links[0], mp.mpc(0)) == 1
        assert exact_core(F, (mp.mpc(0), mp.mpc(0)), F96).envelope == [mp.mpf(1)._mpf_]


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


# Fermat numbers 2^(2^k) + 1 are pairwise coprime; the last has 257 bits.
_COPRIME = tuple(2 ** 2**k + 1 for k in range(9))


@st.composite
def linearization_cases(draw):
    """A square link-free system and a Gaussian-rational point.

    The point's parts have dyadic denominators up to 2^80, or pairwise
    coprime ones (one Fermat number per part); a quarter of the coordinates
    are zero, and half the points are real. Half the systems are shifted so
    that the point is an exact root, and some have a Jacobian row that is
    zero: a constant row, or (x_1 - z_1)^2, whose derivatives vanish at z.
    """
    S, _ = draw(square_rational_systems())
    nv = S.nv
    dyadic, real = draw(st.booleans()), draw(st.booleans())
    coprime = draw(st.permutations(_COPRIME))

    def part(k):
        q = 2 ** draw(st.integers(0, 80)) if dyadic else coprime[k]
        return Fraction(draw(st.integers(-4 * q, 4 * q)), q)

    z = tuple(
        ExactComplex() if draw(st.integers(0, 3)) == 0
        else ExactComplex(part(2 * j), Fraction(0) if real else part(2 * j + 1))
        for j in range(nv)
    )
    rows = list(S.polys)
    if draw(st.booleans()):
        rows = [padd(p, constant(nv, -p.evaluate(z))) for p in rows]
    i, zero_row = draw(st.integers(0, nv - 1)), draw(st.sampled_from([None, "constant", "square"]))
    if zero_row == "constant":
        rows[i] = constant(nv, draw(rat))
    elif zero_row == "square":
        rows[i] = ppow(padd(variable(nv, 0), constant(nv, -z[0])), 2)
    return PolynomialSystem(tuple(rows)), z


def _entries(rows):
    return [[(type(v), v.real, v.imag) for v in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(linearization_cases(), st.booleans())
@example((PolynomialSystem((poly(1, (1, (2,)), (1, (0,))),)), (ec(0, Fraction(1, 2**1100)),)), True)
def test_integer_rows_are_the_reduced_fraction_rows(case, inverse):
    """fraction_free_rows gives, integer for integer, the rows and scales
    that the reference gives for the Fraction values of [J | F(z) (| I)]."""
    S, z = case
    F, J = exact_value_and_jacobian(S, z)
    B = tuple((v,) + (e if inverse else ()) for v, e in zip(F, identity(S.nv, exact=True)))
    want_rows, want_scales = _integer_rows(J, B)
    core = exact_core(S, z, RAT)
    rows, scales = fraction_free_rows(core, inverse)
    assert Fraction(*core.n1) == norm1_sq(z)
    assert scales == want_scales
    assert _entries(rows) == _entries(want_rows)
    assert (not any(core.values)) == all(v.is_zero() for v in F)


def fraction_mu_gamma_sq(S: PolynomialSystem, z, columns):
    """mu^2 and the link-free gamma^2 in Fractions, from the column norms of
    Df(z)^{-1}: the reference for expsystems.integer_gamma_bound_sq."""
    n1sq = norm1_sq(z)
    psq = bw_norm_sq(S)
    total = sum(dsq * psq * c for dsq, c in zip(delta_sq_entries(S.degrees, n1sq), columns))
    mu_sq = total if total > 1 else Fraction(1)
    return mu_sq, mu_sq * S.max_degree**3 / (4 * n1sq)


def _ratio(draw, big):
    q = draw(st.sampled_from([1, 3, 2**40, _COPRIME[5]]))
    return Fraction(draw(st.integers(-big * q, big * q)), q)


@st.composite
def mixed_degree_cases(draw):
    """Rows of degrees 1 to 4 with one of them linear, at a point with
    non-trivial denominators, so that q^(2(D - d_j)) is never 1 for every row."""
    nv = draw(st.integers(2, 3))
    rows = []
    for i in range(nv):
        d = 1 if i == 0 else draw(st.integers(2, 4))
        lead = [0] * nv
        lead[i] = d
        items = [(ExactComplex(_ratio(draw, 3) or 1, _ratio(draw, 3)), tuple(lead))]
        for _ in range(draw(st.integers(0, 2))):
            exps = tuple(draw(st.integers(0, 1)) for _ in range(nv))
            items.append((ExactComplex(_ratio(draw, 3), _ratio(draw, 3)), exps))
        rows.append(Polynomial.from_terms(nv, items))
    z = tuple(ExactComplex(_ratio(draw, 4), _ratio(draw, 4)) for _ in range(nv))
    return PolynomialSystem(tuple(rows)), z


@st.composite
def floored_mu_cases(draw):
    """a x^d with d >= 2 at |x| >= 4: mu^2 = (1 + |x|^2)^(d - 1) / (d |x|^(2d - 2))
    is below 1, and the bound takes mu^2 = 1."""
    d = draw(st.integers(2, 4))
    a = ExactComplex(_ratio(draw, 5) or 1, _ratio(draw, 5))
    x = ExactComplex(draw(st.sampled_from([4, -5, Fraction(37, 7)])), _ratio(draw, 1))
    return PolynomialSystem((Polynomial.from_terms(1, [(a, (d,))]),)), (x,)


@settings(max_examples=150, deadline=None)
@given(st.one_of(linearization_cases(), mixed_degree_cases(), floored_mu_cases()))
@example((PolynomialSystem((poly(1, (1, (2,))),)), (ec(2),)))  # mu^2 = 5/8, floored
@example((PolynomialSystem((poly(1, (1, (2,)), (-4, (0,))),)), (ec(2),)))  # an exact root
@example((PolynomialSystem((poly(2, (1, (2, 0)), (ec(0, 1), (0, 1))),
                            poly(2, (ec(1, 2), (1, 1)), (-3, (0, 0))))),
          (ec(Fraction(1, 3), Fraction(2, 7)), ec(Fraction(-5, 11), 1))))  # a complex last pivot
def test_integer_mu_and_gamma_equal_the_fraction_route(case):
    """mu^2 and gamma^2 from the exact core and the integer column sums equal,
    as Fractions, those of the dense Fraction solve of J X = [F(z) | I]."""
    S, z = case
    F = as_exp_system(S)
    core = exact_core(F, z, RAT)
    rows, scales = fraction_free_rows(core, True)
    n1 = core.n1
    try:
        sums, dd = solve_fraction_free(rows, scales).norm_sq_parts()
    except SingularMatrix:
        return
    values, J = exact_value_and_jacobian(S, z)
    B = tuple((v,) + e for v, e in zip(values, identity(S.nv, exact=True)))
    X = tuple(zip(*_dense_solve_columns(J, B)))
    mu_sq, gamma_sq = fraction_mu_gamma_sq(S, z, [norm_sq(col) for col in X[1:]])
    got = integer_gamma_bound_sq(F, n1, sums[1:], dd)
    (A, q2), D = n1, S.max_degree
    assert got == gamma_sq and got * 4 * A / (D**3 * q2) == mu_sq
    assert certify_solution(F, z, RAT).gamma_bound_sq == gamma_sq


def test_mu_matches_polynomial_route_exactly():
    S = PolynomialSystem((poly(1, (1, (2,)), (-2, (0,))),))
    z = (ec(Fraction(3, 2)),)
    Jinv = invert(exact_value_and_jacobian(S, z)[1])
    columns = tuple(norm_sq(col) for col in zip(*Jinv))
    musq, _ = fraction_mu_gamma_sq(S, z, columns)
    # polynomial route: mu^2 = max(1, 5 * 13/18) = 65/18
    assert musq == Fraction(65, 18)


def test_equal_systems_share_one_compiled_program():
    """The memoized hash keeps the cache keyed by equality, not identity."""
    text = (DATA / "compliant.sys").read_text()
    F, G = (as_exp_system(parse_system(text)) for _ in range(2))
    assert F is not G and F == G and hash(F) == hash(G)
    assert hash(F) == hash((F.P, F.links)) and hash(F.P) == hash((F.P.polys,))
    _program_by_equality.cache_clear()
    assert compile_system(F, F96) is compile_system(G, F96)
    info = _program_by_equality.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert compile_system(F, F96) is compile_system(G, F96)  # each instance's own memo
    assert _program_by_equality.cache_info() == info
    H = taylor_truncate(F, (2,) * F.m)
    assert H != F.P and compile_system(H) is compile_system(taylor_truncate(G, (2,) * G.m))


def _count_system_comparisons(monkeypatch) -> dict:
    """Count the field-wise __eq__ calls of ExpSystem and PolynomialSystem."""
    counts = {}
    for cls in (ExpSystem, PolynomialSystem):
        def counting(self, other, original=cls.__eq__, name=cls.__name__):
            counts[name] = counts.get(name, 0) + 1
            return original(self, other)
        monkeypatch.setattr(cls, "__eq__", counting)
    return counts


def test_a_reparsed_system_walks_the_program_cache_once(monkeypatch):
    """Certifying a batch on a re-parsed compliant truncation compares the
    new system with the cached equal one once per precision, not once per
    program lookup."""
    G = as_exp_system(parse_system((DATA / "compliant.sys").read_text()))
    text = serialize_system(as_exp_system(taylor_truncate(G, (2,) * G.m)))
    points = parse_points((DATA / "compliant.pts").read_text()).points
    points = points + points[:1]
    precisions = (RAT, F96)
    for prec in precisions:
        certify_batch(parse_system(text), points, prec)
    F = parse_system(text)
    counts = _count_system_comparisons(monkeypatch)
    for prec in precisions:
        assert all(r.certificate for r in certify_batch(F, points, prec).records)
    assert set(counts) <= {"ExpSystem", "PolynomialSystem"}
    assert max(counts.values(), default=0) <= len(precisions)


def test_a_system_with_programs_pickles_and_copies():
    """Generated functions do not pickle: a pickled or deep-copied system
    leaves its programs behind, and takes the equal system's from the cache."""
    F = as_exp_system(parse_system((DATA / "rr_dyad_poly.sys").read_text()))
    program = compile_system(F, RAT)
    program.evaluate((0,) * (F.N + 1))  # generates the function
    for clone in (pickle.loads(pickle.dumps(F)), copy.deepcopy(F), copy.copy(F)):
        assert clone == F and clone is not F
        assert compile_system(clone, RAT) is program
    assert not vars(pickle.loads(pickle.dumps(F)))["_programs"]


def test_a_hashed_system_pickles_and_copies_without_its_hash():
    """String hashes are salted per interpreter, so the hash memo stays
    behind: a pickled or deep-copied system hashes afresh, as an equal
    system parsed in the receiving interpreter would."""
    text = (DATA / "rr_dyad.sys").read_text()
    F = as_exp_system(parse_system(text))
    hash(F)
    assert vars(F)["_memo"] and vars(F.P)["_memo"]
    for G in (pickle.loads(pickle.dumps(F)), copy.deepcopy(F)):
        assert not vars(G).get("_memo") and not vars(G.P).get("_memo")
        fresh = as_exp_system(parse_system(text))
        assert G == fresh and hash(G) == hash(fresh)


def test_systems_of_one_structure_share_compiled_code():
    """Generated source holds names only, so two systems that differ only
    in their coefficients run one code object, each with its own values."""
    a, b = (
        compile_system(PolynomialSystem((Polynomial.from_terms(1, [(ec(c), (2,)), (ec(d), (0,))]),)))
        for c, d in ((2, -1), (3, -5))
    )
    assert a is not b and a._value_fn.__code__ is b._value_fn.__code__
    assert (a.value([1.0]), b.value([1.0])) == ([1 + 0j], [-2 + 0j])
