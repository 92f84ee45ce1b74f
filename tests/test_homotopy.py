"""Deformation pipeline: truncation, product starts, path tracking, solve.

Everything random here flows from an explicit seed, so structural facts
(slice counts, factor selections, ledgers) are asserted exactly.
"""

import cmath
import functools
import hashlib
import itertools
import math
import multiprocessing
import os
import random
import signal
import struct
import threading
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from expcert import homotopy
from expcert.errors import DimensionMismatch, ValidationError
from expcert.expsystems import (
    CompiledSystem,
    ExpKind,
    ExpLink,
    ExpSystem,
    as_exp_system,
    compile_system,
    define_function,
    value_and_jacobian,
)
from expcert.homotopy import (
    HomotopyConfig,
    PathStatus,
    _elimination_lines,
    _NativeSingular,
    _step_program,
    _allowed_nus,
    _draw_factors,
    _total_degree_system,
    linear_product_start,
    solve_by_deformation,
    taylor_truncate,
    track_path,
)
from expcert.mechanisms import compliant_linkage, two_link_arm_exp
from expcert.polynomials import Polynomial, PolynomialSystem, pscale
from expcert.scalars import ExactComplex
from expcert.sysio import parse_system

from test_polynomials import compose, constant, padd, variable

DATA = Path(__file__).resolve().parent.parent / "data"

EC = ExactComplex.of


def one_link(kind, c=1, head_terms=None):
    """An n=1, m=1 system: one polynomial row plus one link y2 = g(c*x1)."""
    head = Polynomial.from_terms(2, head_terms or [(EC(1), (2, 0)), (EC(1), (0, 1)), (EC(-2), (0, 0))])
    return ExpSystem(PolynomialSystem((head,)), (ExpLink(kind, EC(c), 1, 2),))


def coeff_map(p: Polynomial) -> dict:
    return {m.exponents: c for c, m in p.terms}


def test_truncate_sin_degree_three():
    Fp = taylor_truncate(one_link(ExpKind.SIN), (3,))
    assert Fp.n == 2 and Fp.nv == 2
    assert coeff_map(Fp.polys[1]) == {
        (0, 1): EC(1),
        (1, 0): EC(-1),
        (3, 0): EC(Fraction(1, 6)),
    }


def test_truncate_cos_degree_two():
    Fp = taylor_truncate(one_link(ExpKind.COS), (2,))
    assert coeff_map(Fp.polys[1]) == {
        (0, 1): EC(1),
        (0, 0): EC(-1),
        (2, 0): EC(Fraction(1, 2)),
    }


def test_truncate_exp_degree_one_with_scale():
    Fp = taylor_truncate(one_link(ExpKind.EXP, c=2), (1,))
    assert coeff_map(Fp.polys[1]) == {(0, 1): EC(1), (0, 0): EC(-1), (1, 0): EC(-2)}


def test_truncate_hyperbolic_signs_do_not_alternate():
    Fs = taylor_truncate(one_link(ExpKind.SINH), (3,))
    Fc = taylor_truncate(one_link(ExpKind.COSH), (4,))
    assert coeff_map(Fs.polys[1]) == {
        (0, 1): EC(1),
        (1, 0): EC(-1),
        (3, 0): EC(Fraction(-1, 6)),
    }
    assert coeff_map(Fc.polys[1]) == {
        (0, 1): EC(1),
        (0, 0): EC(-1),
        (2, 0): EC(Fraction(-1, 2)),
        (4, 0): EC(Fraction(-1, 24)),
    }


def test_truncate_even_degree_adds_nothing_for_sin():
    F = one_link(ExpKind.SIN)
    assert taylor_truncate(F, (4,)).polys[1] == taylor_truncate(F, (3,)).polys[1]


def test_truncate_validation():
    F = one_link(ExpKind.SIN)
    with pytest.raises(DimensionMismatch):
        taylor_truncate(F, (3, 3))
    with pytest.raises(ValidationError):
        taylor_truncate(F, (0,))


@settings(max_examples=60)
@given(
    st.sampled_from(list(ExpKind)),
    st.integers(min_value=1, max_value=9),
    st.fractions(min_value=-3, max_value=3, max_denominator=20).filter(bool),
)
def test_truncated_row_vanishes_at_origin_value(kind, degree, c):
    """The truncated link row is satisfied exactly by x = 0, y = g(0)."""
    Fp = taylor_truncate(one_link(kind, c=c), (degree,))
    g0 = EC(0) if kind in (ExpKind.SIN, ExpKind.SINH) else EC(1)
    assert Fp.polys[1].evaluate((EC(0), g0)).is_zero()


def test_product_start_single_link_slice_count():
    Fp = taylor_truncate(one_link(ExpKind.SIN), (3,))
    link = one_link(ExpKind.SIN).links
    selections, product = linear_product_start(Fp, link, (3,), seed=7)
    assert len(selections) == 3
    assert list(selections) == [(1,), (2,), (3,)]
    # first slice keeps the y-bearing factor, later ones pin x only
    (factors,) = _draw_factors(link, (3,), seed=7)
    assert not factors[0].a.is_zero()
    assert all(f.a.is_zero() for f in factors[1:])
    # the product row has the same x-degree as the truncated row, degree 1 in y
    pm = coeff_map(product.polys[1])
    assert max(e[0] for e in pm) == 3
    assert max(e[1] for e in pm) == 1


def test_product_covers_truncated_support():
    Fp = taylor_truncate(one_link(ExpKind.SIN), (3,))
    link = one_link(ExpKind.SIN).links
    _, product = linear_product_start(Fp, link, (3,), seed=7)
    support = set(coeff_map(product.polys[1]))
    for e in coeff_map(Fp.polys[1]):
        assert e in support


def test_shared_source_selections_are_pruned():
    links = (
        ExpLink(ExpKind.SIN, EC(1), 1, 2),
        ExpLink(ExpKind.COS, EC(1), 1, 3),
    )
    assert _allowed_nus(links, (3, 2)) == ((1, 1), (1, 2), (2, 1), (3, 1))
    # distinct sources keep the full grid
    far = (
        ExpLink(ExpKind.SIN, EC(1), 1, 3),
        ExpLink(ExpKind.COS, EC(1), 2, 4),
    )
    assert len(_allowed_nus(far, (3, 2))) == 6


def test_pruned_selections_are_actually_empty():
    """Both factors >= 2 pin the shared source to two different values."""
    links = (
        ExpLink(ExpKind.SIN, EC(1), 1, 2),
        ExpLink(ExpKind.COS, EC(1), 1, 3),
    )
    factors = _draw_factors(links, (3, 2), seed=11)
    for j1 in range(1, 3):
        for j2 in range(1, 2):
            assert factors[0][j1].b != factors[1][j2].b


def test_factor_draws_are_seed_determined():
    links = one_link(ExpKind.SIN).links
    Fp = taylor_truncate(one_link(ExpKind.SIN), (3,))
    a = linear_product_start(Fp, links, (3,), seed=9)
    b = linear_product_start(Fp, links, (3,), seed=9)
    c = linear_product_start(Fp, links, (3,), seed=10)
    assert a == b
    assert a[1] != c[1]


def _univariate(*coef_exps):
    return PolynomialSystem(
        (Polynomial.from_terms(1, [(EC(c), (e,)) for c, e in coef_exps]),)
    )


def test_track_path_reaches_shifted_root():
    start = _univariate((1, 2), (-1, 0))  # x^2 - 1
    target = _univariate((1, 2), (-2, 0))  # x^2 - 2
    res = track_path(start, target, (1.0,), HomotopyConfig(seed=3))
    assert res.status is PathStatus.ENDPOINT
    assert abs(res.point[0] - math.sqrt(2)) < 1e-6
    res2 = track_path(start, target, (-1.0,), HomotopyConfig(seed=3))
    assert abs(res2.point[0] + math.sqrt(2)) < 1e-6


def test_predictor_is_second_order():
    """Heun's local error falls by about 8 when h halves; Euler's by 4.

    On x^2 - 1 -> x^2 - 4 the path is known in closed form:
    z(t)^2 = (4(1 - t) + gamma t) / ((1 - t) + gamma t). From the exact
    point at t = 0.5 the prediction to t - h is compared with z(t - h).
    """
    start = _univariate((1, 2), (-1, 0))  # x^2 - 1
    target = _univariate((1, 2), (-4, 0))  # x^2 - 4
    step = _step_program(compile_system(start), compile_system(target))
    gamma = homotopy._gamma_for_seed(3)

    def exact(t):
        return cmath.sqrt((4 * (1 - t) + gamma * t) / ((1 - t) + gamma * t))

    t = 0.5
    z = [exact(t)]
    v = step(z, t, True, gamma)
    errors = []
    for h in (2e-2, 1e-2):
        (pred,) = homotopy._predict(step, gamma, z, v, t, h)
        want = exact(t - h)
        assert abs(pred - want) < abs(pred + want)  # the same branch
        errors.append(abs(pred - want))
    assert 6.0 <= errors[0] / errors[1] <= 10.0


def test_track_path_flags_divergence(monkeypatch):
    start = _univariate((1, 2), (-1, 0))
    target = _univariate((Fraction(1, 10**8), 2), (-1, 0))  # roots at +-1e4
    monkeypatch.setattr(homotopy, "_BLOWUP", 1e2)
    res = track_path(start, target, (1.0,), HomotopyConfig(seed=3))
    assert res.status is PathStatus.DIVERGED
    assert res.point is None


def test_track_path_ends_a_path_to_infinity_in_the_endgame_zone():
    """x^2 - 1 -> x - 2 has one root; the path from -1 runs off like 1/t.

    Without the growth test the path grinds down to dt_min, and the stall
    rescue lands it on the other path's root, 2, after 132 steps.
    """
    start = _univariate((1, 2), (-1, 0))
    target = _univariate((1, 1), (-2, 0))
    res = track_path(start, target, (-1.0,), HomotopyConfig(seed=3))
    assert (res.status, res.reason) == (PathStatus.DIVERGED, "growing toward infinity")
    assert res.steps < 132
    res = track_path(start, target, (1.0,), HomotopyConfig(seed=3))
    assert res.status is PathStatus.ENDPOINT and abs(res.point[0] - 2) < 1e-12


@pytest.mark.parametrize("z0", [1.0, -1.0])
def test_track_path_keeps_a_far_root_reached_slowly(z0):
    """The roots of x^2 / 10^6 - 1 lie 1000 times farther out than the
    start's, but the path grows about 300-fold inside the zone, short of
    the ratio the growth test asks for."""
    start = _univariate((1, 2), (-1, 0))
    target = _univariate((Fraction(1, 10**6), 2), (-1, 0))
    res = track_path(start, target, (z0,), HomotopyConfig(seed=3))
    assert (res.status, res.reason) == (PathStatus.ENDPOINT, "")
    assert abs(res.point[0] - 1000 * z0) < 1e-6


def test_nan_newton_step_ends_the_path_diverged(monkeypatch):
    """complex ** on huge parts gives nan without raising; a nan corrector
    step ends the path at once, as an OverflowError does."""
    assert cmath.isnan(complex(1e200, -3e199) ** 2)
    nan = complex(math.nan, math.nan)
    with pytest.raises(OverflowError):
        homotopy._correct(lambda z, t, tangent, G: ([nan], math.nan, math.nan), 1j, [1j], 0.5)
    program = homotopy._step_program

    def poisoned(cs, ct):
        step = program(cs, ct)

        def wrapped(z, t, tangent, G):
            if not tangent and t < 0.5:
                return [nan], math.nan, math.nan
            return step(z, t, tangent, G)

        return wrapped

    monkeypatch.setattr(homotopy, "_step_program", poisoned)
    start = _univariate((1, 2), (-1, 0))
    target = _univariate((1, 2), (-2, 0))
    res = track_path(start, target, (1.0,), HomotopyConfig(seed=3))
    assert (res.status, res.reason) == (PathStatus.DIVERGED, "evaluation overflow")
    assert res.steps < 20


def _compliant_slices(count):
    """The first `count` nonempty restricted slice systems of compliant at
    degrees 2,2,2,2,2,2, seed 0."""
    G, _ = compliant_linkage()
    Fp = taylor_truncate(G, (2,) * 6)
    factors = _draw_factors(G.links, homotopy._link_x_degrees(Fp, G.links), 0)
    selections, _ = linear_product_start(Fp, G.links, (2,) * 6, 0)
    out = []
    for nu in selections:
        restricted = homotopy._restrict(Fp.polys[: G.n], nu, factors, G.links, G.N)
        if restricted is not None and restricted[0].n:
            out.append(restricted[0])
        if len(out) == count:
            return out
    raise AssertionError("too few nonempty slices")


def _composed_restriction(head, nu, factors, links, N):
    """The slice restriction substituting polynomial by polynomial (compose):
    the reference for homotopy._restrict."""
    pinned, affine = homotopy._slice_maps(nu, factors, links)
    free = [v for v in range(N) if v not in pinned and v not in affine]
    pos = {v: i for i, v in enumerate(free)}
    nfree = len(free)
    subs = {v: variable(nfree, pos[v]) for v in free}
    for v, c in pinned.items():
        subs[v] = constant(nfree, c)
    for v, (c0, c1, s) in affine.items():
        base = constant(nfree, pinned[s]) if s in pinned else variable(nfree, pos[s])
        subs[v] = padd(constant(nfree, c0), pscale(base, c1))
    rows = []
    for p in head:
        q = compose(p, subs, nfree)
        if q.degree == 0:
            return None
        rows.append(q)
    return PolynomialSystem(tuple(rows)), free, pinned, affine


@pytest.mark.parametrize("name", ["arm", "compliant"])
def test_restriction_equals_the_polynomial_composition(name):
    """Every selection at seeds 0-3: the same rows, free variables and maps,
    or None for the same slices."""
    G, _ = two_link_arm_exp() if name == "arm" else compliant_linkage()
    degrees = (3, 3, 2, 2) if name == "arm" else (2,) * 6
    Fp = taylor_truncate(G, degrees)
    head, counts, skipped = Fp.polys[: G.n], homotopy._link_x_degrees(Fp, G.links), 0
    for seed in range(4):
        factors = _draw_factors(G.links, counts, seed)
        selections, _ = linear_product_start(Fp, G.links, degrees, seed)
        for nu in selections:
            want = _composed_restriction(head, nu, factors, G.links, G.N)
            assert homotopy._restrict(head, nu, factors, G.links, G.N) == want, (seed, nu)
            skipped += want is None
    assert 0 < skipped < 4 * len(selections)


@pytest.mark.parametrize("index", range(4))
def test_balanced_slice_program_is_an_exact_power_of_two_scaling(index):
    S = _compliant_slices(4)[index]
    B = homotopy._balance(S)
    exps = []
    for p, q in zip(S.polys, B.polys):
        assert [m for _, m in p.terms] == [m for _, m in q.terms]
        c, a = q.terms[0][0], p.terms[0][0]
        ratio = c.re / a.re if a.re else c.im / a.im
        k = ratio.numerator.bit_length() - ratio.denominator.bit_length()
        assert ratio == Fraction(2) ** k
        exps.append(k)
        assert all(c == ratio * a for (a, _), (c, _) in zip(p.terms, q.terms))
        top = max(max(abs(c.re), abs(c.im)) for c, _ in q.terms)
        assert 1 <= top < 2
    assert max(exps) < 0  # compliant's slice rows have parts of 250 and more
    cs, cb = compile_system(S), compile_system(B)
    assert cs.pattern == cb.pattern
    rng = random.Random(index)
    for _ in range(20):
        z = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(cs.size)]
        (fs, js), (fb, jb) = cs.evaluate(z), cb.evaluate(z)
        assert fb == [math.ldexp(1.0, exps[r]) * v for r, v in enumerate(fs)]
        assert jb == [math.ldexp(1.0, exps[r]) * v for (r, _), v in zip(cs.pattern, js)]


def test_track_path_fails_toward_singular_root():
    start = _univariate((1, 2), (-1, 0))
    target = _univariate((1, 2))  # double root at 0
    res = track_path(start, target, (1.0,), HomotopyConfig(seed=3))
    assert res.status is PathStatus.FAILED


def test_solve_linkfree_total_degree():
    S = _univariate((1, 2), (-2, 0))
    out = solve_by_deformation(S, (), HomotopyConfig(seed=0))
    assert len(out.candidates) == 2
    roots = sorted(z[0].real for z in out.candidates)
    assert abs(float(roots[0]) + math.sqrt(2)) < 1e-12
    assert abs(float(roots[1]) - math.sqrt(2)) < 1e-12
    st0 = out.ledger.stages[0]
    assert st0.name == "total-degree" and st0.tracked == 2


@pytest.mark.parametrize("bits", [63, 96.5])
def test_config_bits_follow_the_precision_rule(bits):
    """A bad precision fails when the config is made, not in polishing."""
    with pytest.raises(ValidationError, match="precision must be an integer"):
        HomotopyConfig(seed=0, bits=bits)


def test_solve_rejects_degree_list_without_links():
    S = _univariate((1, 2), (-2, 0))
    with pytest.raises(DimensionMismatch):
        solve_by_deformation(S, (3,), HomotopyConfig(seed=0))


def test_solve_rejects_constant_row():
    S = _univariate((2, 0))
    with pytest.raises(ValidationError):
        solve_by_deformation(S, (), HomotopyConfig(seed=0))


def test_nonsquare_polynomial_part_rejected():
    p = Polynomial.from_terms(2, [(EC(1), (1, 1))])
    with pytest.raises(ValidationError):
        as_exp_system(PolynomialSystem((p,)))


def test_solve_run_is_replayable():
    S = _univariate((1, 3), (-1, 0))  # cube roots of unity
    cfg = HomotopyConfig(seed=4)
    a = solve_by_deformation(S, (), cfg)
    b = solve_by_deformation(S, (), cfg)
    assert a.ledger.render() == b.ledger.render()
    assert a.candidates == b.candidates
    assert len(a.candidates) == 3


def test_solve_two_link_arm_finds_all_six():
    """Full pipeline on the arm system: 16 slices, 6 candidates."""
    G, _ = two_link_arm_exp()
    cfg = HomotopyConfig(seed=12)
    out = solve_by_deformation(G, (3, 3, 2, 2), cfg)
    assert len(out.candidates) == 6
    text = out.ledger.render()
    assert "slices: 16 factor selections after pruning" in text
    assert text.startswith("solve run ledger\nformat: 1\nseed: 12\n")
    assert "truncation degrees: 3 3 2 2" in text
    assert text.rstrip().endswith("candidates: 6")
    # Any change to the tracker's arithmetic shows up here first.
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d814bb788204cdfa96a376565c8f03d21cef01e74d1ab72805070ee3695b0e45"
    )
    names = [s.name for s in out.ledger.stages]
    assert names == ["slice-continuation", "product-to-truncated", "truncated-to-target"]
    # every path is counted under its reason, which the ledger leaves out
    for st_ in out.ledger.stages:
        for status in PathStatus:
            by_reason = sum(n for (s, _), n in st_.reasons.items() if s is status)
            assert by_reason == st_.count(status)
    assert out.ledger.stages[1].reasons[PathStatus.DIVERGED, "growing toward infinity"] == 5
    assert "growing" not in text
    # every candidate closes the target system at native accuracy
    from expcert.scalars import PrecisionConfig

    prec = PrecisionConfig("float", 192)
    for z in out.candidates:
        vals, _ = value_and_jacobian(G, z, prec)
        assert max(abs(complex(v)) for v in vals) < 1e-20


# ---------------------------------------------------------------------------
# The fused double-precision program against a per-entry reference


def _ref_terms(p: Polynomial):
    return tuple(
        (complex(c), tuple((i, e) for i, e in enumerate(m.exponents) if e))
        for c, m in p.terms
    )


def _ref_eval(terms, z) -> complex:
    total = 0j
    for c, pairs in terms:
        v = c
        for i, e in pairs:
            v *= z[i] ** e
        total += v
    return total


# The reference's own link tables, independent of the program's.
_NFUNC = {
    ExpKind.EXP: cmath.exp,
    ExpKind.SIN: cmath.sin,
    ExpKind.COS: cmath.cos,
    ExpKind.SINH: cmath.sinh,
    ExpKind.COSH: cmath.cosh,
}
_NDERIV = {
    ExpKind.EXP: (cmath.exp, 1.0),
    ExpKind.SIN: (cmath.cos, 1.0),
    ExpKind.COS: (cmath.sin, -1.0),
    ExpKind.SINH: (cmath.cosh, 1.0),
    ExpKind.COSH: (cmath.sinh, 1.0),
}


class _Reference:
    """One term-list evaluation per value row and per Jacobian entry."""

    def __init__(self, system):
        F = as_exp_system(system)
        self.size = F.N
        self.rows = [_ref_terms(p) for p in F.P.polys]
        self.drows = [[_ref_terms(p.derivative(j)) for j in range(F.N)] for p in F.P.polys]
        self.links = [
            (_NFUNC[l.kind], *_NDERIV[l.kind], complex(l.c), l.src - 1, l.dst - 1)
            for l in F.links
        ]

    def value(self, z):
        out = [_ref_eval(t, z) for t in self.rows]
        for fn, _dfn, _sign, c, s, d in self.links:
            out.append(z[d] - fn(c * z[s]))
        return out

    def jac(self, z):
        mat = [[_ref_eval(t, z) for t in drow] for drow in self.drows]
        for _fn, dfn, sign, c, s, d in self.links:
            row = [0j] * self.size
            row[s] = -c * sign * dfn(c * z[s])
            row[d] = 1.0 + 0j
            mat.append(row)
        return mat


def _ref_pencil(rs, rt, gamma, z, t, tangent):
    fs, ft = rs.value(z), rt.value(z)
    g = gamma * t
    jac = [
        [(1.0 - t) * b + g * a for a, b in zip(ra, rb)]
        for ra, rb in zip(rs.jac(z), rt.jac(z))
    ]
    if tangent:
        rhs = [gamma * a - b for a, b in zip(fs, ft)]
    else:
        rhs = [(1.0 - t) * b + g * a for a, b in zip(fs, ft)]
    return [row + [v] for row, v in zip(jac, rhs)]


def _bits(values):
    return [struct.pack("<dd", v.real, v.imag) for v in values]


def _dense(cp: CompiledSystem, jac):
    M = [[0j] * cp.size for _ in range(cp.size)]
    for (r, j), v in zip(cp.pattern, jac):
        M[r][j] = v
    return M


def _parity_systems():
    """(name, start, target) pairs covering every kind of tracked system."""
    arm, _ = two_link_arm_exp()
    comp = as_exp_system(parse_system((DATA / "compliant.sys").read_text()))
    out = []
    for name, F, degrees in (("arm", arm, (3, 3, 2, 2)), ("compliant", comp, (2, 3, 2, 3, 2, 3))):
        Fp = taylor_truncate(F, degrees)
        _, product = linear_product_start(Fp, F.links, degrees, seed=5)
        total = _total_degree_system(Fp.degrees, Fp.nv)
        out += [
            (f"{name}/truncated-to-target", Fp, F),
            (f"{name}/product-to-truncated", product, Fp),
            (f"{name}/total-degree-to-truncated", total, Fp),
        ]
    return out


def _random_point(rng, size, scale=2.0):
    def part():
        u = rng.random()
        if u < 0.1:
            return 0.0
        if u < 0.2:
            return -0.0
        return rng.uniform(-scale, scale)

    return [complex(part(), part()) for _ in range(size)]


def _ref_norm(values) -> float:
    """||v|| with abs(v) ** 2 accumulated left to right, as sum() does on 3.11."""
    total = 0.0
    for v in values:
        total += abs(v) ** 2
    return math.sqrt(total)


def _ref_step(rs, rt, gamma, z, t, tangent):
    """The loops step replaces: pencil, elimination, update, norms."""
    x = _loop_solve_native(_ref_pencil(rs, rt, gamma, z, t, tangent))
    if tangent:
        return x
    y = [a - b for a, b in zip(z, x)]
    return y, _ref_norm(x), _ref_norm(y)


def _step_outcome(fn):
    """Bits of a step's results, or the type of what it raised."""
    try:
        out = fn()
    except Exception as exc:  # noqa: BLE001 - the raised type is the outcome
        return "raised", type(exc).__name__
    if isinstance(out, list):
        return "tangent", _bits(out)
    y, nx, ny = out
    return "corrected", _bits(y), struct.pack("<dd", nx, ny)


@pytest.mark.parametrize("case", range(6))
def test_fused_program_matches_reference_bit_for_bit(case):
    name, start, target = _parity_systems()[case]
    rng = random.Random(f"fused:{name}")
    gamma = complex(-0.6, 0.8)
    cs, ct = CompiledSystem(start), CompiledSystem(target)
    rs, rt = _Reference(start), _Reference(target)
    step = _step_program(cs, ct)
    for k in range(25):
        z = _random_point(rng, cs.size)
        t = 1.0 if k == 0 else rng.random()
        for cp, ref in ((cs, rs), (ct, rt)):
            values, jac = cp.evaluate(z)
            assert _bits(values) == _bits(ref.value(z))
            assert _bits(cp.value(z)) == _bits(ref.value(z))
            assert [_bits(r) for r in _dense(cp, jac)] == [_bits(r) for r in ref.jac(z)]
        for tangent in (True, False):
            got = _step_outcome(lambda: step(list(z), t, tangent, gamma))
            want = _step_outcome(lambda: _ref_step(rs, rt, gamma, z, t, tangent))
            assert got == want, (name, k, tangent)


def _raises_overflow(fn):
    try:
        fn()
    except OverflowError:
        return True
    return False


@pytest.mark.parametrize("case", range(6))
def test_fused_program_overflows_where_reference_does(case):
    """Complex ** overflow is what turns a runaway path into DIVERGED."""
    name, start, target = _parity_systems()[case]
    rng = random.Random(f"overflow:{name}")
    cs, ct = CompiledSystem(start), CompiledSystem(target)
    rs, rt = _Reference(start), _Reference(target)
    gamma = complex(0.6, -0.8)
    step = _step_program(cs, ct)
    raised = 0
    # z ** 2 overflows to inf (and raises) at 1e200 + 1j, but to nan (and
    # does not raise) at 1e200 - 3e199j: both must behave as in the reference.
    for i, big in itertools.product(range(cs.size), (complex(1e200, 1.0), complex(1e200, -3e199))):
        z = _random_point(rng, cs.size)
        z[i] = big
        for cp, ref in ((cs, rs), (ct, rt)):
            want = _raises_overflow(lambda: (ref.value(z), ref.jac(z)))
            assert _raises_overflow(lambda: cp.evaluate(z)) == want, (name, i)
            raised += want
        for tangent in (True, False):
            want = _step_outcome(lambda: _ref_step(rs, rt, gamma, z, 0.5, tangent))
            assert _step_outcome(lambda: step(z, 0.5, tangent, gamma)) == want, (name, i)
    assert raised > 0
    # An infinite coordinate makes z ** 1 raise (z ** 2 gives nan), which a
    # plain product with z would not. Link rows hand infinities to cmath,
    # which raises ValueError instead, so only link-free systems take part.
    raised = 0
    for cp, ref in ((cs, rs), (ct, rt)):
        if cp.links:
            continue
        for i in range(cp.size):
            z = _random_point(rng, cp.size)
            z[i] = complex(math.inf, 0.0)
            want = _raises_overflow(lambda: (ref.value(z), ref.jac(z)))
            assert _raises_overflow(lambda: cp.evaluate(z)) == want, (name, i)
            raised += want
    assert raised > 0


def test_program_with_a_5000_term_row_compiles_and_matches_reference():
    """One statement per term: a long row never becomes one nested expression."""
    rng = random.Random(5000)
    monos = [e for e in itertools.product(range(31), repeat=3) if sum(e) <= 30][:5000]
    long_row = Polynomial.from_terms(
        3, [(EC(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))), e) for e in monos]
    )
    rest = [
        Polynomial.from_terms(3, [(EC(1), e), (EC(-1), (0, 0, 0))]) for e in ((0, 2, 0), (1, 0, 1))
    ]
    S = PolynomialSystem((long_row, *rest))
    assert len(long_row.terms) == 5000
    cp, ref = CompiledSystem(S), _Reference(S)
    for _ in range(3):
        z = _random_point(rng, 3, scale=1.1)
        values, jac = cp.evaluate(z)
        assert _bits(values) == _bits(ref.value(z))
        assert _bits(cp.value(z)) == _bits(ref.value(z))
        assert [_bits(r) for r in _dense(cp, jac)] == [_bits(r) for r in ref.jac(z)]


def test_generated_code_holds_no_input_values():
    """Coefficients, gamma and link functions are bound objects, never source text."""
    arm, _ = two_link_arm_exp()
    Fp = taylor_truncate(arm, (3, 3, 2, 2))
    cs, ct = CompiledSystem(Fp), CompiledSystem(arm)
    step = _step_program(cs, ct)
    codes = [cs._evaluate_fn.__code__, ct._value_fn.__code__, step.__code__]
    codes += [_elimination(n).__code__ for n in (1, 6, 12)]
    allowed = (1.0, 0j, 1e-250)
    for code in codes:
        for const in code.co_consts:
            assert const is None or type(const) is int or const in allowed, (code.co_name, const)


def _source_lines(fn) -> int:
    return max(line for *_, line in fn.__code__.co_lines() if line is not None)


def test_generated_elimination_grows_quadratically():
    lines = {n: _source_lines(_elimination(n)) for n in (10, 20, 40)}
    assert lines[20] < 4.5 * lines[10] and lines[40] < 4.5 * lines[20], lines


# ---------------------------------------------------------------------------
# The generated elimination against the loop it replaces


@functools.cache
def _elimination(n: int):
    """The elimination every step inlines, alone: solves [A | b] held in M."""
    lines = _elimination_lines(n) + ["return [" + ", ".join(f"x{i}" for i in range(n)) + "]"]
    return define_function("eliminate", "M", lines, {"_NativeSingular": _NativeSingular})


def _loop_solve_native(M):
    """Solve the augmented system [A | b] in place, partial pivoting, in doubles."""
    n = len(M)
    for col in range(n):
        piv, best = col, abs(M[col][col])
        for r in range(col + 1, n):
            a = abs(M[r][col])
            if a > best:
                piv, best = r, a
        if best < 1e-250:
            raise _NativeSingular
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
        Mc = M[col]
        inv = 1.0 / Mc[col]
        for r in range(col + 1, n):
            Mr = M[r]
            f = Mr[col] * inv
            if f:
                for k in range(col + 1, n + 1):
                    Mr[k] -= f * Mc[k]
    x = [0j] * n
    for i in range(n - 1, -1, -1):
        Mi = M[i]
        s = Mi[n]
        for k in range(i + 1, n):
            s -= Mi[k] * x[k]
        x[i] = s / Mi[i]
    return x


_PARTS = {
    # equal magnitudes in a column tie the pivot search
    "ties": st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0]),
    "general": st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
    ),
    # non-finite parts, parts below the singularity threshold and parts
    # whose modulus overflows abs()
    "wild": st.one_of(
        st.sampled_from(
            [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e-260, 1.5e308, -1.5e308]
        ),
        st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
    ),
}


@st.composite
def _augmented_systems(draw):
    """n x (n + 1) rows [A | b], the one shape the tracker eliminates."""
    n = draw(st.integers(min_value=1, max_value=12))
    part = _PARTS[draw(st.sampled_from(sorted(_PARTS)))]
    flat = draw(st.lists(part, min_size=2 * n * (n + 1), max_size=2 * n * (n + 1)))
    it = iter(flat)
    M = [[complex(next(it), next(it)) for _ in range(n + 1)] for _ in range(n)]
    singular = draw(st.sampled_from(["no", "zero column", "repeated row", "tiny column"]))
    j = draw(st.integers(min_value=0, max_value=n - 1))
    i = draw(st.integers(min_value=0, max_value=n - 1))
    if singular == "zero column":
        for row in M:
            row[j] = draw(st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0)]))
    elif singular == "repeated row" and i != j:
        M[i] = list(M[j])
    elif singular == "tiny column":
        for row in M:
            row[j] *= 1e-255
    return M


def _outcome(solve, M):
    try:
        return "solved", [struct.pack("<dd", v.real, v.imag) for v in solve(M)]
    except Exception as exc:  # noqa: BLE001 - the raised type is the outcome
        return "raised", type(exc).__name__


@settings(max_examples=400, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_augmented_systems())
def test_generated_elimination_matches_loop_bit_for_bit(M):
    """Shrinking is off: a failing draw is reported as drawn, since shrinking
    n x (n + 1) draws took minutes per failure."""
    want = _outcome(_loop_solve_native, [list(row) for row in M])
    got = _outcome(lambda M: _elimination(len(M))(M), [list(row) for row in M])
    assert got == want


# ---------------------------------------------------------------------------
# The structured elimination against the loop it replaces


def _structured(n: int, cells, names=None):
    """The step's elimination alone on the pattern `cells`: reads [A | b] from
    M, whose entries outside `cells` must be 0j, and falls back on M itself."""
    unpack = [f"e{r}_{k} = M[{r}][{k}]" for r, k in sorted(cells)]
    unpack += [f"e{r}_{n} = M[{r}][{n}]" for r in range(n)]
    lines = unpack + homotopy._structured_elimination_lines(n, cells, "M")
    lines.append("return [" + ", ".join(f"x{i}" for i in range(n)) + "]")
    return define_function("eliminate", "M", lines, dict(names or homotopy._ELIMINATION_NAMES))


@st.composite
def _patterned_systems(draw):
    """A random pattern and [A | b] with exact 0j outside it, the shape the
    step eliminates: values as _augmented_systems draws them."""
    n = draw(st.integers(min_value=1, max_value=10))
    density = draw(st.sampled_from([0.15, 0.3, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = {(r, k) for r in range(n) for k in range(n) if rng.random() < density}
    if draw(st.booleans()):  # a permuted diagonal inside the pattern keeps it often regular
        cells |= set(enumerate(rng.sample(range(n), n)))
    part = _PARTS[draw(st.sampled_from(sorted(_PARTS)))]
    M = [[0j] * n + [complex(draw(part), draw(part))] for _ in range(n)]
    for r, k in sorted(cells):
        M[r][k] = complex(draw(part), draw(part))
    zero = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
    j = draw(st.integers(min_value=0, max_value=n - 1))
    singular = draw(st.sampled_from(["no", "zero column", "zero row", "tiny column", "repeat"]))
    first = min(cells, default=(0, 0))
    for r, k in sorted(cells):
        if singular == "zero column" and k == j or singular == "zero row" and r == j:
            M[r][k] = draw(zero)
        elif singular == "tiny column" and k == j:
            M[r][k] *= 1e-255
        elif singular == "repeat":
            M[r][k] = M[first[0]][first[1]]  # ties in every pivot search
    return n, frozenset(cells), M


# Signed zeros the loop makes and a skipped operation would not: 0j * x1
# subtracted in back substitution turns x0's real part from -0.0 to +0.0,
# and a zero multiplier, skipped by `if f:`, would have turned row 1's
# right-hand side from -0.0 to +0.0.
_ZERO_TERM = (2, frozenset({(0, 0), (1, 1)}), [[1 + 0j, 0j, complex(-0.0, -1.0)],
                                               [0j, 1 + 0j, -1 + 0j]])
_ZERO_MULTIPLIER = (2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
                    [[1 + 0j, 0j, -1 + 0j], [0j, 1 + 0j, complex(-0.0, -1.0)]])


@settings(max_examples=400, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(_ZERO_TERM)
@example(_ZERO_MULTIPLIER)
@given(_patterned_systems())
def test_structured_elimination_matches_loop_bit_for_bit(case):
    """Bits of x, or the raised type, are the dense loop's for any pattern and
    any values, non-finite ones and ties included. Shrinking is off, as for
    the dense elimination."""
    n, cells, M = case
    want = _outcome(_loop_solve_native, [list(row) for row in M])
    got = _outcome(_structured(n, cells), [list(row) for row in M])
    assert got == want, sorted(cells)


def test_structured_elimination_falls_back_to_the_dense_result():
    """A non-finite pivot, a pivot below 1e-250, a non-finite solution and a
    modulus that overflows abs() each return (or raise) what the dense loop
    gives on the original M."""
    fallbacks = []

    def recording(n):
        fallbacks.append(n)
        return homotopy._dense_elimination(n)

    inf, nan = math.inf, math.nan
    cases = {
        "plain": ({(0, 0), (0, 1), (1, 0), (1, 1)}, [[2, 1, 1], [1, 3, 2]], False),
        "infinite pivot": ({(0, 0), (0, 1), (1, 0), (1, 1)}, [[inf, 1, 1], [1, 1, 1]], True),
        "nan pivot": ({(0, 0), (1, 0), (1, 1)}, [[nan, 0, 1], [1, 1, 1]], True),
        "tiny pivot": ({(0, 0), (1, 1)}, [[1e-260, 0, 1], [0, 1, 1]], True),
        "overflowing solution": ({(0, 0), (1, 1)}, [[1e-200, 0, 1e200], [0, 1, 1]], True),
        "nan multiplier": ({(0, 0), (1, 0), (1, 1), (0, 2), (2, 2)},
                           [[1, 0, 1, 1], [nan, 1, 0, 1], [0, 0, 1, 1]], True),
        "overflowing modulus": ({(0, 0), (1, 0), (1, 1)}, [[1, 0, 1], [1.5e308 + 1.5e308j, 1, 1]], True),
    }
    names = dict(homotopy._ELIMINATION_NAMES, _dense=recording)
    for name, (cells, rows, falls_back) in cases.items():
        M = [[complex(v) for v in row] for row in rows]
        fallbacks.clear()
        got = _outcome(_structured(len(M), cells, names), [list(row) for row in M])
        assert got == _outcome(_loop_solve_native, [list(row) for row in M]), name
        assert fallbacks == ([len(M)] if falls_back else []), name


def _update_statements(lines) -> int:
    return sum(" -= f * " in line for line in lines)


def test_structured_elimination_updates_only_what_can_be_nonzero():
    """The arm's product-stage pair eliminates with fewer row updates than the
    dense loop runs when no multiplier is zero, and a permuted diagonal
    needs none."""
    arm, _ = two_link_arm_exp()
    Fp = taylor_truncate(arm, (3, 3, 2, 2))
    _, product = linear_product_start(Fp, arm.links, (3, 3, 2, 2), seed=0)
    cs, ct = CompiledSystem(product), CompiledSystem(Fp)
    n, cells = cs.size, set(cs.pattern) | set(ct.pattern)
    dense = sum((n - 1 - c) * (n - c) for c in range(n))
    structured = _update_statements(homotopy._structured_elimination_lines(n, cells, "M"))
    assert (n, len(cells)) == (6, 12) and structured < dense, (structured, dense)
    for n in (1, 5, 12):
        perm = random.Random(n).sample(range(n), n)
        lines = homotopy._structured_elimination_lines(n, set(enumerate(perm)), "M")
        assert _update_statements(lines) == 0, perm


def test_pencil_adds_zero_for_a_one_sided_entry():
    """An entry in one pattern only is s * 0j + g * a (or s * b + g * 0j), not a
    bare product: the added zero turns a -0.0 part into +0.0, and the step's
    results carry that difference."""
    start = _total_degree_system((2, 2), 2)  # x^2 - 1, y^2 - 1
    target = PolynomialSystem(
        (
            Polynomial.from_terms(2, [(EC(1), (0, 1)), (EC(-2), (0, 0))]),  # y - 2
            Polynomial.from_terms(2, [(EC(1), (1, 1)), (EC(-1), (0, 0))]),  # x*y - 1
        )
    )
    cs, ct = CompiledSystem(start), CompiledSystem(target)
    assert (0, 0) in cs.pattern and (0, 0) not in ct.pattern
    rs, rt = _Reference(start), _Reference(target)
    parts = (0.0, -0.0, 1.5, -1.5)
    step = _step_program(cs, ct)
    for gamma in (complex(0.6, 0.8), complex(-0.6, -0.8), complex(-1.0, 0.0)):
        for xr, xi, yr, yi in itertools.product(parts, repeat=4):
            z = [complex(xr, xi), complex(yr, yi)]
            for t in (1.0, 0.5, 0.0):
                for tangent in (True, False):
                    got = _step_outcome(lambda: step(z, t, tangent, gamma))
                    want = _step_outcome(lambda: _ref_step(rs, rt, gamma, z, t, tangent))
                    assert got == want, (z, t, gamma, tangent)


# ---------------------------------------------------------------------------
# The generated step against the composition of the loops it replaces


@functools.cache
def _step_cases():
    """(name, step, start reference, target reference) for every tracked pair,
    plus two small pairs whose steps often go singular or overflow."""
    quad = (
        _univariate((1, 2), (-1, 0)),  # x^2 - 1
        _univariate((1, 2), (-2, 0)),  # x^2 - 2
    )
    two = (
        _total_degree_system((2, 2), 2),
        PolynomialSystem(
            (
                Polynomial.from_terms(2, [(EC(1), (0, 1)), (EC(-2), (0, 0))]),
                Polynomial.from_terms(2, [(EC(1), (1, 1)), (EC(-1), (0, 0))]),
            )
        ),
    )
    pairs = [("quadratic", *quad), ("two", *two)] + _parity_systems()
    return [
        (name, _step_program(CompiledSystem(s), CompiledSystem(t)), _Reference(s), _Reference(t))
        for name, s, t in pairs
    ]


# Parts like _random_point's, with +-0.0, and wild ones that add parts whose
# powers or whose steps overflow (1e-200 against a squared term makes x
# about 1e200).
_STEP_PARTS = {
    "plain": st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False),
    ),
    "wild": st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-200, -1e-200, 1e-130, 1e130, 1e160, -1e160]),
        st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False),
    ),
}


@st.composite
def _step_inputs(draw):
    case = draw(st.integers(min_value=0, max_value=len(_step_cases()) - 1))
    part = _STEP_PARTS[draw(st.sampled_from(sorted(_STEP_PARTS)))]
    z = [complex(draw(part), draw(part)) for _ in range(_step_cases()[case][2].size)]
    t = draw(st.one_of(st.sampled_from([1.0, 0.5, 0.0]), st.floats(min_value=0, max_value=1)))
    gamma = cmath.exp(1j * draw(st.floats(min_value=-math.pi, max_value=math.pi)))
    return case, z, t, gamma, draw(st.booleans())


_SINGULAR = (0, [0j], 1.0, complex(0.6, 0.8))  # H_z = 0 at x = 0, t = 1
_OVERFLOW = (0, [complex(1e-200, 0.0)], 1.0, complex(0.6, 0.8))  # x about 5e199


def test_step_examples_are_singular_and_overflowing():
    """The explicit examples below reach the raises they are there for."""
    for (case, z, t, gamma), tangent, want in (
        (_SINGULAR, True, "_NativeSingular"),
        (_SINGULAR, False, "_NativeSingular"),
        (_OVERFLOW, False, "OverflowError"),
    ):
        step = _step_cases()[case][1]
        assert _step_outcome(lambda: step(z, t, tangent, gamma)) == ("raised", want)
    case, z, t, gamma = _OVERFLOW
    (x,) = _step_cases()[case][1](z, t, True, gamma)
    assert abs(x) > 1e199


@settings(max_examples=300, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example((*_SINGULAR, True))
@example((*_SINGULAR, False))
@example((*_OVERFLOW, True))
@example((*_OVERFLOW, False))
@given(_step_inputs())
def test_step_matches_reference_composition(inputs):
    """step(z, t, tangent, G) is the loops' pencil, elimination, z - x and norms,
    bit for bit or by the type it raises. Shrinking is off, as for the
    elimination."""
    case, z, t, gamma, tangent = inputs
    name, step, rs, rt = _step_cases()[case]
    got = _step_outcome(lambda: step(list(z), t, tangent, gamma))
    want = _step_outcome(lambda: _ref_step(rs, rt, gamma, z, t, tangent))
    assert got == want, name


def _t0_outcome(fn):
    """(z - x, bits of both norms), or the type of what fn raised."""
    try:
        y, nx, ny = fn()
    except Exception as exc:  # noqa: BLE001 - the raised type is the outcome
        return type(exc).__name__, None
    return y, struct.pack("<dd", nx, ny)


def _target_newton(rt, z):
    """z - x for J_t(z) x = F_t(z), by the loops, with both norms."""
    x = _loop_solve_native([row + [v] for row, v in zip(rt.jac(z), rt.value(z))])
    y = [a - b for a, b in zip(z, x)]
    return y, _ref_norm(x), _ref_norm(y)


def test_step_at_t0_is_the_targets_newton_step():
    """The final sharpening and the stall rescue are step(z, 0.0, False, G).

    At t = 0, s = 1 and g = 0, so the pencil is the target's [J | F] up to
    the sign of a zero part: coordinates are equal by ==, norms bit for bit,
    and a raise is of the same type. The start body still runs, so step may
    also raise OverflowError where the start system's own evaluation does.
    """
    rng = random.Random("t0")
    parts = (0.0, -0.0, 1.5, -1.5)
    solved = excused = 0
    for name, step, rs, rt in _step_cases()[1:]:  # `two`, then the parity pairs
        points = [_random_point(rng, rs.size) for _ in range(20)]
        if name == "two":
            points += [[complex(a, b), complex(c, d)] for a, b, c, d in
                       itertools.product(parts, repeat=4)]
        # A start power z_i ** 3 overflows at 1e110 where the target's
        # squares, and the norms, do not.
        for i, big in itertools.product(range(rs.size), (1e110, 1e160)):
            z = _random_point(rng, rs.size)
            z[i] = complex(big, 1.0)
            points.append(z)
        for gamma in (complex(0.6, 0.8), complex(-0.6, -0.8), complex(-1.0, 0.0)):
            for z in points:
                got = _t0_outcome(lambda: step(list(z), 0.0, False, gamma))
                want = _t0_outcome(lambda: _target_newton(rt, z))
                if got != want and got == ("OverflowError", None) and want[1] is not None:
                    assert _raises_overflow(lambda: (rs.value(z), rs.jac(z))), (name, z)
                    excused += 1
                    continue
                assert got == want, (name, z, gamma)
                solved += got[1] is not None
    assert solved > 0 and excused > 0


def test_tangent_is_evaluated_once_per_accepted_point(monkeypatch):
    """A rejected step retries with the tangent of the same (z, t).

    Each attempt evaluates one new tangent, Heun's second one at the Euler
    point; the tangent at the accepted point is added once per point. So
    there are more tangent calls than attempts and at most two per attempt,
    and no (z, t) pair is evaluated twice in a row.
    """
    calls = []
    program = homotopy._step_program

    def recording(cs, ct):
        step = program(cs, ct)

        def wrapped(z, t, tangent, G):
            if tangent:
                calls.append((tuple(z), t))
            return step(z, t, tangent, G)

        return wrapped

    monkeypatch.setattr(homotopy, "_step_program", recording)
    # Pool workers would record in their own copy of `calls`.
    monkeypatch.setattr(homotopy, "_worker_count", lambda: 1)
    G, _ = two_link_arm_exp()
    out = solve_by_deformation(G, (3, 3, 2, 2), HomotopyConfig(seed=12))
    assert len(out.candidates) == 6
    steps = sum(steps for st_ in out.ledger.stages for _, _, steps in st_.outcomes)
    assert steps < len(calls) <= 2 * steps
    assert all(a != b for a, b in zip(calls, calls[1:]))


# ---------------------------------------------------------------------------
# Tracking in forked workers


def _fingerprint(out):
    """The ledger and the candidates' raw mpc bits of one solve."""
    return out.ledger.render(), [tuple(v._mpc_ for v in z) for z in out.candidates]


def _linkfree_pair():
    """x^2 + y - 3 = 0, x*y + 2*y^2 - 1 = 0: four total-degree paths."""
    return PolynomialSystem(
        (
            Polynomial.from_terms(2, [(EC(1), (2, 0)), (EC(1), (0, 1)), (EC(-3), (0, 0))]),
            Polynomial.from_terms(2, [(EC(1), (1, 1)), (EC(2), (0, 2)), (EC(-1), (0, 0))]),
        )
    )


_POOLED_SOLVES = {
    "arm": lambda: (two_link_arm_exp()[0], (3, 3, 2, 2), 12),
    "compliant": lambda: (compliant_linkage()[0], (2, 2, 2, 2, 2, 2), 0),
    "link-free": lambda: (_linkfree_pair(), (), 5),
}


def _solve_case(name):
    F, degrees, seed = _POOLED_SOLVES[name]()
    return solve_by_deformation(F, degrees, HomotopyConfig(seed=seed))


@pytest.mark.parametrize("name", sorted(_POOLED_SOLVES))
def test_ledger_and_candidates_do_not_depend_on_the_worker_count(monkeypatch, name):
    prints = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(homotopy, "_worker_count", lambda: workers)
        prints.append(_fingerprint(_solve_case(name)))
    assert prints[0][1]
    assert prints[1] == prints[0] and prints[2] == prints[0]


def _fingerprint_case(name):
    assert multiprocessing.current_process().daemon
    return _fingerprint(_solve_case(name))


def test_solve_in_a_daemonic_process_tracks_serially(monkeypatch):
    """A daemonic process may not start children, so asking for two
    workers there must take the serial route and give the same result."""
    monkeypatch.setattr(homotopy, "_worker_count", lambda: 1)
    serial = _fingerprint(_solve_case("arm"))
    monkeypatch.setattr(homotopy, "_worker_count", lambda: 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_fingerprint_case, ("arm",)).get(timeout=300) == serial


def test_solve_beside_another_thread_tracks_serially(monkeypatch):
    """Fork copies only the calling thread, so no worker is forked while
    another thread runs."""
    expected = _fingerprint(_solve_case("link-free"))

    def no_fork():
        raise AssertionError("a worker was forked beside a running thread")

    monkeypatch.setattr(homotopy, "_worker_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _fingerprint(_solve_case("link-free")) == expected
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers a test's solves fork, as the parent sees them."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _assert_reaped(pids, count):
    """count workers were forked, and each one is gone: waitpid no longer
    knows it as a child of this process."""
    assert len(pids) == count
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test that blocks: SIGALRM raises TimeoutError after 120 s."""

    def expire(signum, frame):
        raise TimeoutError("the solve did not return within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_no_worker_outlives_a_solve(monkeypatch, forked):
    monkeypatch.setattr(homotopy, "_worker_count", lambda: 2)
    assert len(_solve_case("arm").candidates) == 6
    _assert_reaped(forked, 2)


@pytest.mark.parametrize("k", [1, 3])
def test_a_raising_task_reaches_the_caller_and_leaves_no_worker(monkeypatch, forked, k):
    """One start of the arm's stage k raises in its worker: a slice task
    (k = 1) or a path task (k = 3). The exception reaches the caller with
    its type, and every worker is reaped before it does."""
    track = homotopy.track_path
    seed = homotopy._stage_config(HomotopyConfig(seed=12), k).seed
    starts = []

    def recording(Fstart, Ftarget, z0, cfg):
        if cfg.seed == seed:
            starts.append((Ftarget, tuple(z0)))
        return track(Fstart, Ftarget, z0, cfg)

    monkeypatch.setattr(homotopy, "track_path", recording)
    monkeypatch.setattr(homotopy, "_worker_count", lambda: 1)
    _solve_case("arm")
    doomed = starts[len(starts) // 2]

    def failing(Fstart, Ftarget, z0, cfg):
        if cfg.seed == seed and (Ftarget, tuple(z0)) == doomed:
            raise ZeroDivisionError("injected")
        return track(Fstart, Ftarget, z0, cfg)

    monkeypatch.setattr(homotopy, "track_path", failing)
    monkeypatch.setattr(homotopy, "_worker_count", lambda: 2)
    with pytest.raises(ZeroDivisionError, match="injected"):
        _solve_case("arm")
    _assert_reaped(forked, 2)


def test_a_dying_worker_fails_the_solve_and_leaves_no_worker(monkeypatch, forked, deadline):
    """A worker that exits in the middle of the arm's third slice task ends
    the solve with an error that names its exit status; the other worker
    is reaped."""
    parent, track, slices = os.getpid(), homotopy.track_path, []
    seed = homotopy._stage_config(HomotopyConfig(seed=12), 1).seed

    def dying(Fstart, Ftarget, z0, cfg):
        if cfg.seed == seed:
            slices.append(Ftarget)
            if len(set(slices)) == 3:
                assert os.getpid() != parent, "the task ran in the solving process"
                os._exit(3)
        return track(Fstart, Ftarget, z0, cfg)

    monkeypatch.setattr(homotopy, "track_path", dying)
    monkeypatch.setattr(homotopy, "_worker_count", lambda: 2)
    with pytest.raises(ChildProcessError, match="exit status 3"):
        _solve_case("arm")
    _assert_reaped(forked, 2)


def test_an_interrupted_solve_leaves_no_worker(monkeypatch, forked, deadline):
    """KeyboardInterrupt in the solving process, raised as it reads the
    fifth slice endpoint, kills and reaps the workers before it propagates."""
    dedup, reads = homotopy._dedup_native, itertools.count()

    def interrupted():
        keep = dedup()

        def interrupting(point):
            if next(reads) == 4:
                raise KeyboardInterrupt
            return keep(point)

        return interrupting

    monkeypatch.setattr(homotopy, "_dedup_native", interrupted)
    monkeypatch.setattr(homotopy, "_worker_count", lambda: 2)
    with pytest.raises(KeyboardInterrupt):
        _solve_case("arm")
    _assert_reaped(forked, 2)


def _first_starts(name):
    """The serial fingerprint of a pooled case, and the first start point
    each stage seed tracks, by stage seed."""
    track, firsts = homotopy.track_path, {}

    def recording(Fstart, Ftarget, z0, cfg):
        firsts.setdefault(cfg.seed, tuple(z0))
        return track(Fstart, Ftarget, z0, cfg)

    homotopy.track_path = recording
    try:
        serial = _fingerprint(_solve_case(name))
    finally:
        homotopy.track_path = track
    return serial, firsts


@pytest.mark.parametrize("name", ["arm", "link-free"])
def test_results_completing_out_of_order_give_the_serial_solve(monkeypatch, name):
    """The first start of every stage sleeps in its worker, so tasks queued
    after it finish first; the parent still reads results in task order."""
    monkeypatch.setattr(homotopy, "_worker_count", lambda: 1)
    serial, firsts = _first_starts(name)
    track = homotopy.track_path

    def slow_first(Fstart, Ftarget, z0, cfg):
        if firsts.get(cfg.seed) == tuple(z0):
            time.sleep(0.2)
        return track(Fstart, Ftarget, z0, cfg)

    monkeypatch.setattr(homotopy, "track_path", slow_first)
    monkeypatch.setattr(homotopy, "_worker_count", lambda: 2)
    assert _fingerprint(_solve_case(name)) == serial


def test_singular_refinement_notes_follow_the_kept_endpoints(monkeypatch):
    """Three final endpoints of the arm report a singular refinement: the
    first (step 2), the second (step 0), and a copy of the second that the
    last endpoint path is bent onto, 1e-12 away (step 1), which the native
    deduplication drops. Only the two kept ones are noted, in path order,
    at one worker and at two."""
    target_seed = homotopy._stage_config(HomotopyConfig(seed=12), 3).seed
    track = homotopy.track_path
    ends = []

    def recording(Fstart, Ftarget, z0, cfg):
        res = track(Fstart, Ftarget, z0, cfg)
        if cfg.seed == target_seed and res.status is PathStatus.ENDPOINT:
            ends.append((tuple(z0), res))
        return res

    monkeypatch.setattr(homotopy, "_worker_count", lambda: 1)
    monkeypatch.setattr(homotopy, "track_path", recording)
    _solve_case("arm")
    (_, first), (_, second), (bent, last) = ends[0], ends[1], ends[-1]
    copy = tuple(v + 1e-12 for v in second.point)
    steps = {first.point: 2, second.point: 0, copy: 1}

    def bending(Fstart, Ftarget, z0, cfg):
        if cfg.seed == target_seed and tuple(z0) == bent:
            return replace(last, point=copy)
        return track(Fstart, Ftarget, z0, cfg)

    polish = homotopy._polish

    def singular(F, point, bits):
        *out, singular_at = polish(F, point, bits)
        return (*out, steps.get(tuple(point), singular_at))

    monkeypatch.setattr(homotopy, "track_path", bending)
    monkeypatch.setattr(homotopy, "_polish", singular)
    prints = []
    for workers in (1, 2):
        monkeypatch.setattr(homotopy, "_worker_count", lambda: workers)
        out = _solve_case("arm")
        stage = out.ledger.stages[-1]
        assert stage.kept == stage.count(PathStatus.ENDPOINT) - 1
        notes = [n for n in out.ledger.notes if n.startswith("candidate refinement")]
        assert notes == [
            f"candidate refinement hit a singular Jacobian at step {k}" for k in (2, 0)
        ]
        prints.append(_fingerprint(out))
    assert prints[1] == prints[0]
