"""Alpha-theory certificates: thresholds, verdicts, distinctness, realness.

The first test pins the certification threshold to an integer inequality;
everything downstream silently depends on that constant being on the safe
side of the exact algebraic number it approximates.
"""

import importlib
import json
import math
import os
import pkgutil
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

import expcert
from expcert import certify as certify_module, linalg
from expcert.certify import (
    ALPHA_STAR,
    ALPHA_STAR_SQ,
    ROBUST_ALPHA_SQ,
    BatchOptions,
    Certificate,
    RealStatus,
    certify_batch,
    certify_distinct,
    certify_real,
    certify_solution,
    decide_certified,
    newton_step,
    real_map_check,
    same_root,
)
from expcert.errors import NotCertified, NotRealMap, PreconditionFailed
from expcert.expsystems import CompiledSystem, as_exp_system
from expcert.mechanisms import (
    two_link_arm_euler,
    two_link_arm_exp,
    two_link_arm_poly,
)
from expcert.polynomials import Polynomial, PolynomialSystem
from expcert.refine import newton_refine
from expcert.scalars import ExactComplex, PrecisionConfig
from expcert.sysio import parse_points, parse_system, report_to_dict

RAT = PrecisionConfig("rational", 64)
F96 = PrecisionConfig("float", 96)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def poly1(*items):
    return PolynomialSystem((Polynomial.from_terms(1, items),))


def test_threshold_is_strictly_below_the_algebraic_constant():
    """ALPHA_STAR < (13 - 3 sqrt(17))/4, verified in integers.

    The inequality rearranges to (13 - 4 a)^2 > 153 for a = ALPHA_STAR,
    which clears to one integer comparison. A threshold on the wrong side
    would certify points the underlying theorem does not cover.
    """
    a = ALPHA_STAR
    lhs = (13 - 4 * a) ** 2
    assert lhs > 153
    # the same fact, fully cleared of denominators
    num = 13 * 10**7 - 4 * 1576707
    assert num == 123693172
    assert num**2 > 153 * 10**14
    # the constant is as tight as 7 digits allow: one ulp up crosses the line
    over = Fraction(1576708, 10**7)
    assert (13 - 4 * over) ** 2 < 153


def test_decide_certified_boundary():
    assert decide_certified(ALPHA_STAR_SQ / 4, Fraction(1) - Fraction(1, 10**30))
    assert not decide_certified(ALPHA_STAR_SQ, Fraction(1))
    assert not decide_certified(Fraction(1), math.inf)


@given(
    st.fractions(min_value=0, max_value=2, max_denominator=10**6),
    st.fractions(min_value=0, max_value=2, max_denominator=10**6),
    st.fractions(min_value=0, max_value=1, max_denominator=100),
    st.fractions(min_value=0, max_value=1, max_denominator=100),
)
def test_decide_certified_monotone(bsq, gsq, sb, sg):
    """Shrinking beta or gamma can only keep or gain certification."""
    if decide_certified(bsq, gsq):
        assert decide_certified(bsq * sb, gsq * sg)


def test_certify_hand_case_rational():
    S = poly1((ec(1), (2,)), (ec(-2), (0,)))  # x^2 - 2
    cert = certify_solution(S, (ec(Fraction(3, 2)),), RAT)
    assert cert.beta_sq == Fraction(1, 144)
    assert cert.gamma_bound_sq == Fraction(20, 9)
    assert cert.alpha_bound_sq == Fraction(20, 1296)
    assert cert.certified_approximate
    assert cert.jacobian_invertible and not cert.exact_zero
    assert cert.mode == "rational"


def test_certify_exact_zero():
    S = poly1((ec(1), (2,)), (ec(-4), (0,)))
    cert = certify_solution(S, (ec(2),), RAT)
    assert cert.exact_zero and cert.certified_approximate
    assert cert.beta_sq == 0 and cert.alpha_bound_sq == 0


def test_certify_exact_zero_with_singular_jacobian():
    """A point that hits the system exactly is certified even at a singularity."""
    S = poly1((ec(1), (2,)))
    cert = certify_solution(S, (ec(0),), RAT)
    assert cert.exact_zero and not cert.jacobian_invertible
    assert cert.certified_approximate and cert.beta_sq == 0


def test_certify_singular_jacobian_off_zero():
    S = poly1((ec(1), (2,)), (ec(-1), (0,)))  # x^2 - 1
    cert = certify_solution(S, (ec(0),), RAT)
    assert not cert.jacobian_invertible and not cert.exact_zero
    assert not cert.certified_approximate
    assert math.isinf(cert.alpha_bound_sq)


def test_newton_step_hand_case():
    S = poly1((ec(1), (2,)), (ec(-2), (0,)))
    z, ok = newton_step(S, (ec(Fraction(3, 2)),), RAT)
    assert ok and z == (ec(Fraction(17, 12)),)


def test_beta_sq_matches_step():
    S = poly1((ec(1), (2,)), (ec(-2), (0,)))
    _, table = newton_refine(S, (ec(Fraction(3, 2)),), 0, RAT)
    assert table.rows[0][1] == Fraction(1, 144)


def _count_linearizations(monkeypatch) -> dict:
    """Count eliminations and program evaluations during one call.

    Eliminations are linalg.solve_columns calls, wherever the package has
    bound it; it is the package's only linear solve.
    Evaluations are calls of CompiledSystem.evaluate, the one evaluator of
    F and Df.
    """
    original = linalg.solve_columns
    original_evaluate = CompiledSystem.evaluate
    counts = {"eliminations": 0, "evaluations": 0}

    def counting(*args, **kwargs):
        counts["eliminations"] += 1
        return original(*args, **kwargs)

    def counting_evaluate(self, z):
        counts["evaluations"] += 1
        return original_evaluate(self, z)

    for info in pkgutil.iter_modules(expcert.__path__):
        module = importlib.import_module(f"expcert.{info.name}")
        for name, obj in list(vars(module).items()):
            if obj is original:
                monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(CompiledSystem, "evaluate", counting_evaluate)
    return counts


def _elimination_cases():
    g, (X1, _) = two_link_arm_poly()
    G, (Z1, _) = two_link_arm_exp()
    return {
        "rational": (g, X1, RAT),
        "float": (G, Z1, F96),
        "exact-zero": (poly1((ec(1), (2,)), (ec(-1), (0,))), (ec(1),), RAT),
        "exact-zero-singular": (poly1((ec(1), (2,))), (ec(0),), RAT),
        "singular": (poly1((ec(1), (2,)), (ec(-1), (0,))), (ec(0),), RAT),
    }


@pytest.mark.parametrize("case", list(_elimination_cases()))
def test_certify_solution_eliminates_once(monkeypatch, case):
    """One evaluation and one factorization per point give beta and gamma's J^-1."""
    F, z, prec = _elimination_cases()[case]
    counts = _count_linearizations(monkeypatch)
    cert = certify_solution(F, z, prec)
    assert counts == {"eliminations": 1, "evaluations": 1}
    assert cert.jacobian_invertible == (case not in ("singular", "exact-zero-singular"))


@pytest.mark.parametrize("k", range(4))
def test_newton_refine_eliminates_once_per_iterate(monkeypatch, k):
    S = poly1((ec(1), (2,)), (ec(-2), (0,)))
    counts = _count_linearizations(monkeypatch)
    _, table = newton_refine(S, (ec(Fraction(3, 2)),), k, RAT)
    assert len(table.rows) == k + 1
    assert counts == {"eliminations": k + 1, "evaluations": k + 1}


def test_newton_step_eliminates_once(monkeypatch):
    S = poly1((ec(1), (2,)), (ec(-2), (0,)))
    counts = _count_linearizations(monkeypatch)
    newton_step(S, (ec(Fraction(3, 2)),), RAT)
    assert counts == {"eliminations": 1, "evaluations": 1}


def test_float_certification_of_transcendental_system():
    G, (Z1, Z2) = two_link_arm_exp()
    c1 = certify_solution(G, Z1, F96)
    c2 = certify_solution(G, Z2, F96)
    assert c1.certified_approximate and c2.certified_approximate
    for c in (c1, c2):
        assert c.mode == "float" and c.bits == 96
        assert mp.sqrt(c.alpha_bound_sq) < float(ALPHA_STAR)


DATA = Path(__file__).resolve().parent.parent / "data"


def _certify_both_routes(monkeypatch, F, points, prec):
    """Certificates from the double-precision mu bound and from the [F | I] route.

    The reference route is the one certify takes when
    inverse_column_bounds declines. Also returns, per call of
    inverse_column_bounds, whether it accepted.
    """
    original = certify_module.inverse_column_bounds
    accepted = []

    def spy(J):
        out = original(J)
        accepted.append(out is not None)
        return out

    monkeypatch.setattr(certify_module, "inverse_column_bounds", spy)
    new = [certify_solution(F, z, prec) for z in points]
    monkeypatch.setattr(certify_module, "inverse_column_bounds", lambda J: None)
    ref = [certify_solution(F, z, prec) for z in points]
    monkeypatch.undo()
    return new, ref, accepted


@pytest.mark.parametrize("bits", [96, 256, 1024])
@pytest.mark.parametrize("stem", sorted(p.stem for p in DATA.glob("*.sys")))
def test_double_precision_mu_matches_the_elimination_route(monkeypatch, stem, bits):
    """Same verdict and beta, and alpha at most 1e-9 relative above the reference.

    Linked systems take the double-precision bound at every shipped point;
    link-free ones never call it, so their certificates are the reference's.
    """
    F = as_exp_system(parse_system((DATA / f"{stem}.sys").read_text()))
    points = parse_points((DATA / f"{stem}.pts").read_text()).points
    prec = PrecisionConfig("float", bits)
    new, ref, accepted = _certify_both_routes(monkeypatch, F, points, prec)
    assert accepted == ([True] * len(points) if F.m else [])
    for a, b in zip(new, ref):
        assert a.certified_approximate == b.certified_approximate
        assert a.beta_sq._mpf_ == b.beta_sq._mpf_
        if not F.m:
            assert a == b
            continue
        with mp.workprec(bits):
            assert b.alpha_bound_sq <= a.alpha_bound_sq
            assert a.alpha_bound_sq <= b.alpha_bound_sq * (1 + mp.mpf(10) ** -9) ** 2


def test_rational_certificates_never_take_the_double_precision_bound(monkeypatch):
    g, points = two_link_arm_poly()
    new, ref, accepted = _certify_both_routes(monkeypatch, g, points, RAT)
    assert accepted == [] and new == ref


def test_certify_distinct_reference_points():
    g, (X1, X2) = two_link_arm_poly()
    c1 = certify_solution(g, X1, RAT)
    c2 = certify_solution(g, X2, RAT)
    assert certify_distinct(g, c1, X1, c2, X2)
    assert certify_distinct(g, c2, X2, c1, X1)  # symmetric
    assert not certify_distinct(g, c1, X1, c1, X1)


def test_certify_distinct_requires_certificates():
    S = poly1((ec(1), (2,)), (ec(-1), (0,)))
    bad = certify_solution(S, (ec(0),), RAT)
    assert not bad.certified_approximate
    with pytest.raises(NotCertified):
        certify_distinct(S, bad, (ec(0),), bad, (ec(0),))


def test_same_root_accepts_nearby_iterate():
    g, (X1, _) = two_link_arm_poly()
    r2, _ = newton_refine(g, X1, 2, RAT)
    r3, _ = newton_refine(g, X1, 3, RAT)
    cert = certify_solution(g, r2, RAT)
    assert cert.alpha_bound_sq < ROBUST_ALPHA_SQ
    assert same_root(g, cert, r2, r3, RAT)
    assert same_root(g, cert, r2, r2, RAT)


def test_same_root_needs_robust_alpha():
    g, (X1, _) = two_link_arm_poly()
    cert = certify_solution(g, X1, RAT)  # alpha ~ 0.0736 > 0.03
    with pytest.raises(PreconditionFailed):
        same_root(g, cert, X1, X1, RAT)


def test_same_root_rejects_distant_point():
    g, (X1, X2) = two_link_arm_poly()
    refined, _ = newton_refine(g, X1, 2, RAT)
    cert = certify_solution(g, refined, RAT)
    assert not same_root(g, cert, refined, X2, RAT)


def test_real_map_check():
    g, _ = two_link_arm_poly()
    G, _ = two_link_arm_exp()
    Gp, _ = two_link_arm_euler()
    assert real_map_check(g)
    assert real_map_check(G)
    assert not real_map_check(Gp)


def test_certify_real_statuses():
    g, (X1, _) = two_link_arm_poly()
    cert = certify_solution(g, X1, RAT)
    assert certify_real(g, cert, X1, RAT) is RealStatus.REAL

    # x^2 + 1 at a point near i: certified, but the solution is not real.
    S = poly1((ec(1), (2,)), (ec(1), (0,)))
    z = (ExactComplex(Fraction(0), Fraction(1001, 1000)),)
    cert2 = certify_solution(S, z, RAT)
    assert cert2.certified_approximate
    assert certify_real(S, cert2, z, RAT) is RealStatus.NOT_REAL


def test_certify_real_requires_real_map():
    Gp, (W1, _) = two_link_arm_euler()
    cert = certify_solution(Gp, W1, F96)
    with pytest.raises(NotRealMap):
        certify_real(Gp, cert, W1, F96)
    # with the symmetry asserted by the caller the check runs; the reference
    # point has genuinely complex coordinates, so it lands on the far side
    status = certify_real(Gp, cert, W1, F96, assume_real_map=True)
    assert status is RealStatus.NOT_REAL


def test_certify_real_requires_certificate():
    S = poly1((ec(1), (2,)), (ec(-1), (0,)))
    bad = certify_solution(S, (ec(0),), RAT)
    with pytest.raises(NotCertified):
        certify_real(S, bad, (ec(0),), RAT)


def test_batch_counts_and_order():
    g, (X1, X2) = two_link_arm_poly()
    rep = certify_batch(g, [X1, X2, X1], RAT, BatchOptions(distinct=True, real=True))
    assert [r.index for r in rep.records] == [0, 1, 2]
    c = rep.counts
    assert c["total"] == 3 and c["certified"] == 3
    assert c["distinct"] == 2  # X1 appears twice
    assert c["real"] == 3
    sets = [r.distinct_set for r in rep.records]
    assert sets[0] == sets[2] != sets[1]


def test_batch_thread_count_does_not_change_output():
    """Identical serialized reports with 1, 2, and 3 worker threads."""
    g, (X1, X2) = two_link_arm_poly()
    pts = [X1, X2, X1, X2]
    outs = []
    for n in ("1", "2", "3"):
        os.environ["EXPCERT_THREADS"] = n
        try:
            rep = certify_batch(g, pts, RAT, BatchOptions(distinct=True, real=True))
            outs.append(json.dumps(report_to_dict(rep), sort_keys=True))
        finally:
            del os.environ["EXPCERT_THREADS"]
    assert outs[0] == outs[1] == outs[2]


def test_certificate_is_frozen():
    cert = Certificate(
        beta_sq=Fraction(0),
        gamma_bound_sq=Fraction(1),
        alpha_bound_sq=Fraction(0),
        jacobian_invertible=True,
        exact_zero=True,
        certified_approximate=True,
        mode="rational",
        bits=64,
    )
    with pytest.raises(Exception):
        cert.certified_approximate = False
