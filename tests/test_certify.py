"""Alpha-theory certificates: thresholds, verdicts, distinctness, realness.

The first test pins the certification threshold to an integer inequality;
everything downstream silently depends on that constant being on the safe
side of the exact algebraic number it approximates.
"""

import functools
import hashlib
import importlib
import json
import math
import pkgutil
import random
import threading
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from mpmath import iv

import expcert
from expcert import certify as certify_module, cli, linalg, scalars
from expcert.certify import (
    ALPHA_STAR,
    ALPHA_STAR_SQ,
    ROBUST_ALPHA_SQ,
    ROBUST_RADIUS_SQ,
    BatchOptions,
    Certificate,
    RealStatus,
    certify_batch,
    certify_distinct,
    certify_real,
    certify_solution,
    decide_certified,
    real_map_check,
    robust_radius_sq,
    same_root,
)
from expcert.errors import NotCertified, NotRealMap, PreconditionFailed, ValidationError
from expcert.expsystems import (
    CompiledSystem,
    ExpKind,
    ExpLink,
    ExpSystem,
    as_exp_system,
    value_and_jacobian,
)
from expcert.homotopy import taylor_truncate
from expcert.linalg import norm_sq
from expcert.mechanisms import (
    two_link_arm_euler,
    two_link_arm_exp,
    two_link_arm_poly,
)
from expcert.polynomials import Polynomial, PolynomialSystem
from expcert.refine import newton_iterate, newton_refine
from expcert.scalars import (
    ExactComplex,
    PrecisionConfig,
    coord_to_exact,
    fraction_to_mpf,
    lift_point,
    mpf_to_fraction,
)
from expcert.sysio import parse_points, parse_system, serialize_points, serialize_system
from test_expsystems import fraction_mu_gamma_sq, linearization_cases, mpc_bounds_sq
from test_linalg import _dense_solve_columns, identity
from test_polynomials import exact_value_and_jacobian

RAT = PrecisionConfig("rational", 64)
F96 = PrecisionConfig("float", 96)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def poly1(*items):
    return PolynomialSystem((Polynomial.from_terms(1, items),))


def _sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


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
    assert certify_solution(S, (Fraction(3, 2),), RAT) == cert  # bare rational coordinates
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
    """One step from 3/2 on x^2 - 2 lands on 17/12 rounded to 64 bits, read
    exactly, and records the step's squared length 1/144 rounded."""
    S = poly1((ec(1), (2,)), (ec(-2), (0,)))
    z, rows, singular_at = newton_iterate(S, (ec(Fraction(3, 2)),), 1, RAT)
    (v,) = z
    assert singular_at is None and v.im == 0 and v.re.denominator == 2**63
    assert abs(v.re - Fraction(17, 12)) <= Fraction(1, 2**64)
    ((k, bsq),) = rows
    assert k == 0 and abs(mpf_to_fraction(bsq) - Fraction(1, 144)) <= Fraction(1, 144 * 2**62)


def test_beta_sq_matches_step():
    """The step length of newton_refine is the certificate's exact beta^2
    to the working precision."""
    S = poly1((ec(1), (2,)), (ec(-2), (0,)))
    z = (ec(Fraction(3, 2)),)
    _, table = newton_refine(S, z, 0, RAT)
    beta_sq = certify_solution(S, z, RAT).beta_sq
    assert beta_sq == Fraction(1, 144)
    assert abs(mpf_to_fraction(table.rows[0][1]) - beta_sq) <= beta_sq / 2**62


def _count_linearizations(monkeypatch) -> dict:
    """Count eliminations and program evaluations during one call.

    The package takes every Newton step, in both modes, with
    linalg.solve_columns; it certifies a link-free point with
    linalg.solve_fraction_free; and it certifies a linked system from the
    double-precision inverse of linalg.inverse_column_bounds. An
    elimination is a call of any of them, wherever the package has bound
    it. Evaluations are calls of CompiledSystem.evaluate, the one evaluator
    of F and Df; for every certificate that is the integer program behind
    exact_core.
    """
    original_evaluate = CompiledSystem.evaluate
    counts = {"eliminations": 0, "evaluations": 0}

    def counting(solve):
        def wrapper(*args, **kwargs):
            counts["eliminations"] += 1
            return solve(*args, **kwargs)
        return wrapper

    def counting_evaluate(self, z):
        counts["evaluations"] += 1
        return original_evaluate(self, z)

    solvers = (linalg.solve_columns, linalg.solve_fraction_free, linalg.inverse_column_bounds)
    wrappers = {id(f): counting(f) for f in solvers}
    for info in pkgutil.iter_modules(expcert.__path__):
        module = importlib.import_module(f"expcert.{info.name}")
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                monkeypatch.setattr(module, name, wrappers[id(obj)])
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
        "float-link-free": (g, X1, F96),
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


@pytest.mark.parametrize("k", range(4), ids=lambda k: f"K={k}")
def test_refined_certify_linearizes_k_times_plus_the_certificate(tmp_path, k):
    """`certify --refine K` takes K Newton steps per point and then
    certifies it: K + 1 linearizations per point, the last the
    certificate's, on a linked float system and on rational rr_dyad_poly."""
    for stem, mode in (("rr_dyad", "float"), ("rr_dyad_poly", "rational")):
        with pytest.MonkeyPatch.context() as patch:
            counts = _count_linearizations(patch)
            report = _certify_report(tmp_path, DATA / f"{stem}.sys", DATA / f"{stem}.pts",
                                     "--mode", mode, "--refine", str(k), "--distinct", "--real")
        total = report["counts"]["total"]
        assert total == 2
        assert counts == {"eliminations": (k + 1) * total, "evaluations": (k + 1) * total}


def test_newton_step_eliminates_once(monkeypatch):
    S = poly1((ec(1), (2,)), (ec(-2), (0,)))
    counts = _count_linearizations(monkeypatch)
    newton_iterate(S, (ec(Fraction(3, 2)),), 1, RAT)
    assert counts == {"eliminations": 1, "evaluations": 1}


def test_float_batch_lifts_each_point_once(monkeypatch):
    """certify_batch lifts each exact coordinate once, and the distinct and
    real tests of every certified pair and point take the lifted points."""
    G, (Z1, Z2) = two_link_arm_exp()
    points = [Z1, Z2, Z1, Z2]
    lifted = []
    original = scalars.lift

    def counting(v, prec):
        lifted.append(v)
        return original(v, prec)

    monkeypatch.setattr(scalars, "lift", counting)
    report = certify_batch(G, points, F96, BatchOptions(distinct=True, real=True))
    assert report.counts["certified"] == len(points) and report.counts["distinct"] == 2
    assert report.counts["real"] + report.counts["not_real"] + report.counts["undecided"] == 4
    assert len(lifted) == sum(len(z) for z in points)


@pytest.mark.parametrize("stem", ["rr_dyad", "rr_dyad_poly"])
def test_batch_reads_each_certified_point_once_for_the_pairwise_tests(monkeypatch, stem):
    """certify_batch reads each certified point's exact (q, X) once, and its
    distinct sets and real statuses are those that certify_distinct on
    every pair and certify_real on every point give."""
    F = parse_system((DATA / f"{stem}.sys").read_text(encoding="utf-8"))
    found = parse_points((DATA / f"{stem}.pts").read_text(encoding="utf-8")).points
    points = [*found, *found[:2]]
    reads = []
    original = certify_module._exact_point

    def counting(z, p):
        reads.append(z)
        return original(z, p)

    monkeypatch.setattr(certify_module, "_exact_point", counting)
    report = certify_batch(F, points, F96, BatchOptions(distinct=True, real=True))
    certified = [r for r in report.records if r.certificate.certified_approximate]
    assert len(certified) == len(points) and len(reads) == len(points)
    monkeypatch.undo()
    zs = [lift_point(r.point, F96) for r in certified]
    for a, ra in enumerate(certified):
        assert ra.real is certify_real(F, ra.certificate, zs[a], F96)
        for b in range(a + 1, len(certified)):
            rb = certified[b]
            apart = certify_distinct(F, ra.certificate, zs[a], rb.certificate, zs[b])
            assert apart == (ra.distinct_set != rb.distinct_set)


def test_float_certification_of_transcendental_system():
    G, (Z1, Z2) = two_link_arm_exp()
    c1 = certify_solution(G, Z1, F96)
    c2 = certify_solution(G, Z2, F96)
    assert c1.certified_approximate and c2.certified_approximate
    for c in (c1, c2):
        assert c.mode == "float" and c.bits == 96
        assert mp.sqrt(c.alpha_bound_sq) < float(ALPHA_STAR)


DATA = Path(__file__).resolve().parent.parent / "data"


def _spy_inverse_bounds(monkeypatch) -> list:
    """Record, per call of certify's inverse_column_bounds, whether it accepted."""
    original = certify_module.inverse_column_bounds
    accepted = []

    def spy(*args):
        out = original(*args)
        accepted.append(out is not None)
        return out

    monkeypatch.setattr(certify_module, "inverse_column_bounds", spy)
    return accepted


@pytest.mark.parametrize("bits", [96, 256, 1024])
@pytest.mark.parametrize("stem", sorted(p.stem for p in DATA.glob("*.sys")))
def test_double_precision_mu_matches_the_elimination_route(monkeypatch, stem, bits):
    """Same verdicts as the mpc elimination route (mpc_bounds_sq), and alpha
    at most 1e-9 relative below and 1e-6 above it.

    Linked systems certify on the exact core, whose double-precision bound
    accepts at every shipped point, and whose alpha bounds the true alpha
    from above; link-free ones are certified exactly at the point's dyadic
    value and never call it.
    """
    F = as_exp_system(parse_system((DATA / f"{stem}.sys").read_text()))
    points = parse_points((DATA / f"{stem}.pts").read_text()).points
    prec = PrecisionConfig("float", bits)
    accepted = _spy_inverse_bounds(monkeypatch)
    certs = [certify_solution(F, z, prec) for z in points]
    assert accepted == ([True] * len(points) if F.m else [])
    for cert, z in zip(certs, points):
        beta_sq, gamma_sq = mpc_bounds_sq(F, z, prec)
        assert cert.certified_approximate == decide_certified(
            mpf_to_fraction(beta_sq), mpf_to_fraction(gamma_sq))
        with mp.workprec(bits):
            ref = beta_sq * gamma_sq
            low, high = ref * (1 - mp.mpf(10) ** -9) ** 2, ref * (1 + mp.mpf(10) ** -6) ** 2
            assert mpf_to_fraction(low) <= cert.alpha_bound_sq <= mpf_to_fraction(high)


def test_rational_certificates_never_take_the_double_precision_bound(monkeypatch):
    g, points = two_link_arm_poly()
    accepted = _spy_inverse_bounds(monkeypatch)
    certs = [certify_solution(g, z, RAT) for z in points]
    assert accepted == [] and all(c.certified_approximate for c in certs)


def _assert_the_rational_certificate(F, z, bits: int):
    """certify_solution of z in float mode at bits is, field by field, the
    rational certificate of the dyadic point z lifted to bits: the same
    Fractions for beta^2, gamma^2 and alpha^2, and the same verdict. The
    one difference is that float mode has no exact zeros: at a dyadic root
    beta^2 is 0 as well, but a singular J leaves alpha infinite and the
    point uncertified there."""
    prec = PrecisionConfig("float", bits)
    dyadic = tuple(coord_to_exact(v) for v in lift_point(z, prec))
    got, want = certify_solution(F, z, prec), certify_solution(F, dyadic, RAT)
    assert (got.mode, got.bits, got.exact_zero) == ("float", bits, False)
    assert (got.beta_sq, got.gamma_bound_sq, got.jacobian_invertible) == (
        want.beta_sq, want.gamma_bound_sq, want.jacobian_invertible)
    if want.exact_zero and not want.jacobian_invertible:
        assert math.isinf(got.alpha_bound_sq) and not got.certified_approximate
    else:
        assert (got.alpha_bound_sq, got.certified_approximate) == (
            want.alpha_bound_sq, want.certified_approximate)


@settings(max_examples=100, deadline=None)
@given(linearization_cases(), st.sampled_from([96, 256, 1024]))
@example((poly1((ec(1), (2,)), (ec(1), (0,))), (ec(0, Fraction(1, 2**1100)),)), 96)  # J = 2^-1099 i
def test_a_link_free_float_certificate_is_the_rational_one(case, bits):
    S, z = case
    _assert_the_rational_certificate(as_exp_system(S), z, bits)


@pytest.mark.parametrize("bits", [96, 256, 1024])
def test_rr_dyad_poly_float_certificates_are_the_rational_ones(bits):
    """Every data point, refined 0-3 times at bits, down to the rounding floor."""
    F = as_exp_system(parse_system((DATA / "rr_dyad_poly.sys").read_text()))
    prec = PrecisionConfig("float", bits)
    for z in parse_points((DATA / "rr_dyad_poly.pts").read_text()).points:
        for k in range(4):
            _assert_the_rational_certificate(F, newton_refine(F, z, k, prec)[0], bits)


@pytest.mark.parametrize("bits", [96, 256])
def test_an_ill_conditioned_link_free_system_certifies_in_float_mode(bits):
    """x + y = 2 and x + (1 + e) y = 2 + e with e = 1/(2.5 10^9), whose
    Jacobian has condition number about 10^10, near its root (1, 1). The
    double-precision inverse bound declines that Jacobian (its residual
    bound is near 10^10 u, far above 2^-26); the exact link-free route
    certifies the point at any precision."""
    q = 2_500_000_000
    e = Fraction(1, q)
    S = PolynomialSystem((
        Polynomial.from_terms(2, [(1, (1, 0)), (1, (0, 1)), (-2, (0, 0))]),
        Polynomial.from_terms(2, [(1, (1, 0)), (1 + e, (0, 1)), (-2 - e, (0, 0))]),
    ))
    assert linalg.inverse_column_bounds([[1, 1], [q, q + 1]], [1, q]) is None
    z = (ec(1 + Fraction(1, 10**20)), ec(1 - Fraction(1, 10**20)))
    cert = certify_solution(S, z, PrecisionConfig("float", bits))
    assert cert.certified_approximate and cert.jacobian_invertible


def test_a_declined_linked_jacobian_is_reported_as_singular():
    """The same two rows with y = exp(x) linked on, at (1, 1, e): J has
    determinant e = 1/(2.5 10^9), so it is invertible, but the
    double-precision inverse bound declines it, and a linked point has no
    other route. The point is not certified, alpha is infinite and
    jacobian_invertible is False, with nothing raised: certify_batch
    records it as an uncertified point, not as an error."""
    e = Fraction(1, 2_500_000_000)
    F = ExpSystem(PolynomialSystem((
        Polynomial.from_terms(3, [(1, (1, 0, 0)), (1, (0, 1, 0)), (-2, (0, 0, 0))]),
        Polynomial.from_terms(3, [(1, (1, 0, 0)), (1 + e, (0, 1, 0)), (-2 - e, (0, 0, 0))]),
    )), (ExpLink(ExpKind.EXP, ec(1), 1, 3),))
    with mp.workprec(96):
        z = (mp.mpc(1), mp.mpc(1), mp.mpc(mp.e))
    cert = certify_solution(F, z, F96)
    assert not cert.certified_approximate and not cert.jacobian_invertible
    assert math.isinf(cert.alpha_bound_sq) and cert.beta_sq == 0
    (record,) = certify_batch(F, [z], F96).records
    assert record.error is None and record.certificate == cert


def _certify_report(tmp_path, system, points, *flags) -> dict:
    """The JSON report of `expcert certify` on the system and points files."""
    out = tmp_path / "report.json"
    code = cli.main(["certify", "--system", str(system), "--points", str(points),
                     *flags, "--output", str(out)])
    assert code in (0, 1)
    return json.loads(out.read_text())


def _write_case(tmp_path, F, points):
    """F and points written as files; returns their paths."""
    system, pts = tmp_path / "case.sys", tmp_path / "case.pts"
    system.write_text(serialize_system(F))
    pts.write_text(serialize_points(points, "rational"))
    return system, pts


def test_refined_row_k_is_the_certificate_beta(tmp_path):
    """Rows 0..K-1 of a refined point's residual trail are the Newton steps
    taken, and row K is the beta of its certificate, in linked float,
    link-free float and rational mode alike: every data/* pair in float
    mode at 96 and 256 bits, and rr_dyad_poly in rational mode, at K = 1
    and 3."""
    seen = set()
    for k in (1, 3):
        for path in sorted(DATA.glob("*.sys")):
            runs = [("float", "96"), ("float", "256")]
            if path.stem == "rr_dyad_poly":
                runs.append(("rational", "96"))
            for mode, bits in runs:
                name = f"{path.stem}-{mode}-{bits}-r{k}"
                report = _certify_report(tmp_path, path, path.with_suffix(".pts"), "--mode", mode,
                                         "--precision", bits, "--refine", str(k), "--distinct")
                for p in report["points"]:
                    trail = p["residuals"]
                    assert "singular_at" not in trail and "error" not in p, name
                    assert [row[0] for row in trail["rows"]] == list(range(k + 1)), name
                    assert trail["rows"][k][1] == p["beta"], name
                seen.add((mode, report["system"]["m"] > 0))
    assert seen == {("float", True), ("float", False), ("rational", False)}


def test_refined_row_k_reads_zero_at_a_singular_or_declined_jacobian(tmp_path):
    """A point that a step takes onto a singular J (x^2 + 1 from 1 to 0),
    or whose linked J the double-precision bound declines, has a
    certificate with jacobian_invertible False and a row K of zero. A point
    that starts on a singular J stops there, with singular_at 0 and no row
    K, as newton_refine records it."""
    S = poly1((ec(1), (2,)), (ec(1), (0,)))
    for mode in ("rational", "float"):
        report = _certify_report(tmp_path, *_write_case(tmp_path, S, [(ec(1),), (ec(0),)]),
                                 "--mode", mode, "--refine", "1")
        onto, start = report["points"]
        assert not onto["jacobian_invertible"] and not start["jacobian_invertible"]
        assert onto["residuals"] == {"rows": [[0, "1.00000e+00"], [1, "0.00000e+00"]]}
        assert start["residuals"] == {"rows": [[0, "0.00000e+00"]], "singular_at": 0}

    e = Fraction(1, 2_500_000_000)  # as in the declined-J test above
    F = ExpSystem(PolynomialSystem((
        Polynomial.from_terms(3, [(1, (1, 0, 0)), (1, (0, 1, 0)), (-2, (0, 0, 0))]),
        Polynomial.from_terms(3, [(1, (1, 0, 0)), (1 + e, (0, 1, 0)), (-2 - e, (0, 0, 0))]),
    )), (ExpLink(ExpKind.EXP, ec(1), 1, 3),))
    with mp.workprec(96):
        z = (ec(1), ec(1), ExactComplex(mpf_to_fraction(+mp.e), Fraction(0)))
    for k in (1, 2):
        report = _certify_report(tmp_path, *_write_case(tmp_path, F, [z]), "--refine", str(k))
        (p,) = report["points"]
        assert not p["jacobian_invertible"] and p["beta"] == "0.00000e+00"
        rows = p["residuals"]["rows"]
        assert len(rows) == k + 1 and rows[k] == [k, "0.00000e+00"]
        assert "singular_at" not in p["residuals"]


def test_refined_row_k_is_omitted_when_the_certificate_raised(tmp_path, monkeypatch):
    """A point whose certificate raised keeps its K Newton steps, gets no
    row K, and carries the error; the other points are unaffected."""
    original = certify_module.certify_solution
    calls = []

    def failing_second(F, z, prec):
        calls.append(z)
        if len(calls) == 2:
            raise ValidationError("refused for the test")
        return original(F, z, prec)

    monkeypatch.setattr(certify_module, "certify_solution", failing_second)
    report = _certify_report(tmp_path, DATA / "rr_dyad.sys", DATA / "rr_dyad.pts", "--refine", "2")
    first, second = report["points"]
    assert second["error"] == "ValidationError: refused for the test"
    assert "beta" not in second
    assert [row[0] for row in second["residuals"]["rows"]] == [0, 1]
    assert first["residuals"]["rows"][2][1] == first["beta"]


TIGHT_STEMS = ("compliant", "compliant_alt", "rr_dyad", "rr_dyad_euler", "rr_dyad_poly")
F320 = PrecisionConfig("float", 320)


@functools.lru_cache(maxsize=None)
def _planted(stem: str):
    """(system, [(root, gamma)]) with each reference point refined to a
    320-bit root zeta and gamma the curvature bound there."""
    F = as_exp_system(parse_system((DATA / f"{stem}.sys").read_text()))
    roots = []
    for ref in parse_points((DATA / f"{stem}.pts").read_text()).points:
        root = newton_refine(F, ref, 8, F320)[0]
        with mp.workprec(320):
            roots.append((root, mp.sqrt(certify_solution(F, root, F320).gamma_bound_sq)))
    return F, roots


def _tight_points(stem: str, rng: random.Random, count: int):
    """count (root, point) pairs: a root of _planted and a point moved off it
    along a random complex direction by 10^-6 to 10^-2 of alpha* / gamma."""
    F, roots = _planted(stem)
    out = []
    with mp.workprec(320):
        for k in range(count):
            root, gamma = roots[k % len(roots)]
            d = [mp.mpc(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in root]
            norm = mp.sqrt(sum(abs(v) ** 2 for v in d))
            scale = mp.mpf(float(ALPHA_STAR)) / gamma * mp.mpf(10) ** rng.uniform(-6, -2) / norm
            out.append((root, tuple(v + scale * c for v, c in zip(root, d))))
    return F, out


@pytest.mark.parametrize("stem", TIGHT_STEMS)
def test_certified_beta_bounds_the_distance_to_the_root(stem):
    """Alpha theory puts the root within 2 beta of a certified point. Tight
    points refined 1-3 times at 96 bits sit at the rounding floor, where a
    beta taken from F(z) evaluated in mpc follows the rounding of the
    residual: on these points it was up to 7.5 times too small on
    compliant and 3.4 times on compliant_alt. The exact core's is not, and
    neither is the link-free rr_dyad_poly's, taken exactly."""
    F, cases = _tight_points(stem, random.Random(stem), 8)
    for root, z0 in cases:
        for k in (1, 2, 3):
            z = newton_refine(F, z0, k, F96)[0]
            cert = certify_solution(F, z, F96)
            assert cert.certified_approximate
            with mp.workprec(320):
                assert mpf_to_fraction(norm_sq(_sub(z, root))) <= 4 * cert.beta_sq


def test_a_point_with_a_vanishing_coordinate_part_fails_fast():
    """A part of 1e-30000 would make the integers of a float certificate
    about 10^5 bits long, with links (the exact core) or without (the exact
    link-free route): certify_batch records the refusal as the point's
    error at once, and certifies the other points."""
    poly = as_exp_system(parse_system((DATA / "rr_dyad_poly.sys").read_text()))
    cases = [two_link_arm_exp(), (poly, parse_points((DATA / "rr_dyad_poly.pts").read_text()).points)]
    for F, (Z1, Z2) in cases:
        tiny = (ExactComplex(Z1[0].re, Fraction(1, 10**30000)),) + tuple(Z1[1:])
        report = certify_batch(F, [Z1, tiny, Z2], F96, BatchOptions(distinct=True, real=False))
        assert report.records[1].certificate is None
        assert "exact core" in report.records[1].error
        assert report.counts["certified"] == 2 and report.counts["distinct"] == 2


@pytest.mark.parametrize("x", [10**30, -10**30])
def test_an_exp_link_value_out_of_range_is_refused(x):
    """exp(1e30) and exp(-1e30), about 2^(+-1.4e30), have midpoints whose
    integers no machine holds: x + y = 1 with y = exp(x) at (x, 0) is
    refused with an error that names the link, not an OverflowError."""
    F = ExpSystem(PolynomialSystem((Polynomial.from_terms(2, [(1, (1, 0)), (1, (0, 1)), (-1, (0, 0))]),)),
                  (ExpLink(ExpKind.EXP, ec(1), 1, 2),))
    report = certify_batch(F, [(ec(x), ec(0))], F96)
    assert report.records[0].error.startswith("ValidationError: link exp 1 2 ")


@pytest.mark.parametrize("imag", [10**9, 10**30])
def test_a_point_with_a_huge_link_value_fails_fast(imag):
    """An imaginary part of 1e9 or 1e30 on the arm's first angle makes its
    sin and cos about e^imag: enclosing them exactly would take integers of
    about 1.4 imag bits. certify_batch records the refusal, which names the
    link, as the point's error at once, and certifies the other points."""
    G, (Z1, Z2) = two_link_arm_exp()
    huge = (ExactComplex(Z1[0].re, Fraction(imag)),) + tuple(Z1[1:])
    start = time.perf_counter()
    report = certify_batch(G, [Z1, huge, Z2], F96, BatchOptions(distinct=True, real=False))
    assert time.perf_counter() - start < 1
    assert report.records[1].certificate is None
    assert report.records[1].error.startswith("ValidationError: link sin 1 3 ")
    assert report.counts["certified"] == 2 and report.counts["distinct"] == 2


def _iv_scalar(c: ExactComplex):
    return iv.mpc(iv.mpf(c.re.numerator) / c.re.denominator,
                  iv.mpf(c.im.numerator) / c.im.denominator)


def _iv_link_functions(kind: ExpKind, w):
    """(g(w), g'(w)) in interval arithmetic; sinh and cosh from exp."""
    if kind is ExpKind.EXP:
        e = iv.exp(w)
        return e, e
    if kind is ExpKind.SIN:
        return iv.sin(w), iv.cos(w)
    if kind is ExpKind.COS:
        return iv.cos(w), -iv.sin(w)
    ep, em = iv.exp(w), iv.exp(-w)
    sinh, cosh = (ep - em) / 2, (ep + em) / 2
    return (sinh, cosh) if kind is ExpKind.SINH else (cosh, sinh)


def _iv_polynomial(p, X):
    total = iv.mpc(0)
    for c, mono in p.terms:
        term = _iv_scalar(c)
        for x, e in zip(X, mono.exponents):
            if e:
                term = term * x**e
        total = total + term
    return total


def _iv_system(F, X, jacobian: bool):
    """F(X), or Df(X), over a box X of complex intervals."""
    if not jacobian:
        rows = [_iv_polynomial(p, X) for p in F.P.polys]
        for link in F.links:
            g, _ = _iv_link_functions(link.kind, _iv_scalar(link.c) * X[link.src - 1])
            rows.append(X[link.dst - 1] - g)
        return rows
    rows = [[_iv_polynomial(p.derivative(j), X) for j in range(F.N)] for p in F.P.polys]
    for link in F.links:
        c = _iv_scalar(link.c)
        _, dg = _iv_link_functions(link.kind, c * X[link.src - 1])
        row = [iv.mpc(0)] * F.N
        row[link.src - 1], row[link.dst - 1] = -c * dg, iv.mpc(1)
        rows.append(row)
    return rows


def _krawczyk(F, z, radius):
    """(X, K(X)) for the box X of the given radius around z, in every real
    and imaginary part, and the Krawczyk operator
    K(X) = z - R F(z) + (I - R Df(X)) (X - z), R the inverse of Df(z) at
    320 bits. K(X) inside X proves a unique root in X, and K(X) holds it."""
    with mp.workprec(320):
        R = mp.inverse(mp.matrix([list(row) for row in value_and_jacobian(F, z, F320)[1]]))
        R = [[iv.mpc(R[i, j].real, R[i, j].imag) for j in range(F.N)] for i in range(F.N)]
    Z = [iv.mpc(v.real, v.imag) for v in z]
    box = iv.mpc(iv.mpf([-radius, radius]), iv.mpf([-radius, radius]))
    X = [v + box for v in Z]
    Fz, JX = _iv_system(F, Z, False), _iv_system(F, X, True)
    K = []
    for i in range(F.N):
        k = Z[i] - iv.fsum(R[i][j] * Fz[j] for j in range(F.N))
        for j in range(F.N):
            entry = (1 if i == j else 0) - iv.fsum(R[i][l] * JX[l][j] for l in range(F.N))
            k = k + entry * box
        K.append(k)
    return X, K


def _inside(inner, outer) -> bool:
    return all(o.a < i.a and i.b < o.b
               for a, b in zip(inner, outer) for i, o in ((a.real, b.real), (a.imag, b.imag)))


def _disjoint(A, B) -> bool:
    return any(i.b < o.a or o.b < i.a
               for a, b in zip(A, B) for i, o in ((a.real, b.real), (a.imag, b.imag)))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(TIGHT_STEMS), st.integers(0, 2**32), st.integers(0, 2))
def test_krawczyk_encloses_one_root_per_certified_point(stem, seed, refine):
    """Krawczyk's test, in mpmath.iv at 320 bits, as an oracle: the box of
    radius 2 beta around each certified point maps into itself, and points
    certified distinct have disjoint K(X), so their roots differ."""
    F, cases = _tight_points(stem, random.Random(seed), 4)
    points = [newton_refine(F, z, refine, F96)[0] for _, z in cases]
    report = certify_batch(F, points, F96, BatchOptions(distinct=True, real=False))
    boxes = {}
    old = iv.prec
    iv.prec = 320
    try:
        for rec, z in zip(report.records, points):
            if rec.certificate.certified_approximate:
                with mp.workprec(320):
                    radius = 2 * mp.sqrt(rec.certificate.beta_sq)
                X, K = _krawczyk(F, z, radius)
                assert _inside(K, X)
                boxes[rec.index] = K
    finally:
        iv.prec = old
    for a in boxes:
        for b in boxes:
            sets = report.records[a].distinct_set, report.records[b].distinct_set
            if a < b and sets[0] != sets[1]:
                assert _disjoint(boxes[a], boxes[b])


def _exact_newton_iterate(S: PolynomialSystem, z, k: int):
    """z after k exact Newton steps, each by the dense Fraction solve of
    J x = F(z): iterates whose denominators grow with every step."""
    for _ in range(k):
        residual, J = exact_value_and_jacobian(S, z)
        (step,) = zip(*_dense_solve_columns(J, tuple((v,) for v in residual)))
        z = tuple(a - b for a, b in zip(z, step))
    return z


def _rational_cases():
    """(system, point) pairs in rational mode whose J(z) and F(z) carry long
    denominators: rr_dyad_poly at exact Newton iterates 0-3, whose F(z) has
    about twice the denominator digits of J(z), and at two iterates from a
    complex start, whose last pivot is not real; and two Taylor truncations
    of compliant (N = 11) at its reference point and at that point refined
    once at 64 bits, so with dyadic coordinates."""
    F = as_exp_system(parse_system((DATA / "rr_dyad_poly.sys").read_text()))
    z = parse_points((DATA / "rr_dyad_poly.pts").read_text()).points[0]
    cases = {f"rr_dyad_poly-iterate{k}": (F, _exact_newton_iterate(F.P, z, k)) for k in range(4)}
    z = tuple(v + ExactComplex(Fraction(0), Fraction(i + 1, 2**70)) for i, v in enumerate(z))
    for k in (0, 2):
        cases[f"rr_dyad_poly-complex-iterate{k}"] = (F, _exact_newton_iterate(F.P, z, k))
    G = as_exp_system(parse_system((DATA / "compliant.sys").read_text()))
    z = parse_points((DATA / "compliant.pts").read_text()).points[0]
    for degrees in ((3, 4, 5, 6, 8, 9), (9, 8, 7, 6, 5, 4)):
        T = taylor_truncate(G, degrees)
        dyadic = newton_refine(T, z, 1, PrecisionConfig("float", 64))[0]
        tag = "compliant-T" + "".join(map(str, degrees))
        cases[tag] = (T, z)
        cases[tag + "-64bit"] = (T, tuple(coord_to_exact(v) for v in dyadic))
    return cases


@pytest.mark.parametrize("case", list(_rational_cases()))
def test_rational_certificate_matches_the_dense_fraction_solve(case):
    """beta^2, gamma^2 and alpha^2 equal those of the dense Fraction
    elimination of J X = [F(z) | I] exactly."""
    F, z = _rational_cases()[case]
    F = as_exp_system(F)
    residual, J = exact_value_and_jacobian(F.P, z)
    rhs = tuple((v,) + e for v, e in zip(residual, identity(F.N, exact=True)))
    X = tuple(zip(*_dense_solve_columns(J, rhs)))
    beta_sq = norm_sq(X[0])
    _, gamma_sq = fraction_mu_gamma_sq(F.P, z, [norm_sq(col) for col in X[1:]])
    cert = certify_solution(F, z, RAT)
    assert (cert.beta_sq, cert.gamma_bound_sq, cert.alpha_bound_sq) == (
        beta_sq, gamma_sq, beta_sq * gamma_sq)


# The sha256 of the rational report on each Taylor truncation of compliant,
# keyed by its per-link degrees: a Latin design over the strata 3-4, 5-7
# and 8-9, as the benchmark's exact workload draws them.
TRUNCATED_REPORT_SHA256 = {
    (3, 8, 9, 6, 4, 7): "f7e18e45f1c31e2c97f567c5295fe66fb27c9e4d5a950e3f7df85a1dd397d7ba",
    (6, 4, 3, 9, 5, 8): "09d19227f8556d2419c64ce1b90e1bacb041f88b4706f50a468805f4366b3f27",
    (9, 7, 5, 3, 8, 4): "5a95b2c78b99803632d5d450bc7048137ec102eb6481471d5b74db863b82053e",
}
TRUNCATION_BANDS = (-4.0, -0.75, 1.0)  # tight, edge, far: decades of alpha* / gamma


@pytest.mark.parametrize("degrees", list(TRUNCATED_REPORT_SHA256), ids=lambda d: "T" + "".join(map(str, d)))
def test_truncated_compliant_rational_reports_keep_their_bytes(tmp_path, degrees):
    """`certify --mode rational --distinct --real` on an 11 x 11 truncation
    of compliant writes the pinned report, byte for byte. Its points are a
    root refined once at 64 bits and real tight, edge and far perturbations
    of it, written at 64 bits: the route of the fraction-free solve through
    the Taylor-truncated link rows, which rr_dyad_poly's 4 x 4 does not take."""
    G = as_exp_system(parse_system((DATA / "compliant.sys").read_text()))
    T = taylor_truncate(G, degrees)
    for ref in parse_points((DATA / "compliant.pts").read_text()).points:
        root, table = newton_refine(T, ref, 10, PrecisionConfig("float", 128))
        if table.rows[-1][1] < mp.mpf(2) ** -200:
            break
    root = newton_refine(T, root, 2, PrecisionConfig("float", 192))[0]
    cert = certify_solution(T, root, PrecisionConfig("float", 192))
    assert cert.certified_approximate
    rng = random.Random("".join(map(str, degrees)))
    points = [newton_refine(T, root, 1, PrecisionConfig("float", 64))[0]]
    with mp.workprec(64):
        gamma = mp.sqrt(cert.gamma_bound_sq)
        for decades in TRUNCATION_BANDS:
            d = [rng.gauss(0, 1) for _ in root]
            norm = math.sqrt(sum(x * x for x in d))
            s = mp.mpf(float(ALPHA_STAR)) / gamma * mp.mpf(10) ** decades / norm
            points.append(tuple(v + s * x for v, x in zip(root, d)))
    system, pts = tmp_path / "case.sys", tmp_path / "case.pts"
    system.write_text(serialize_system(T))
    pts.write_text(serialize_points(points, "rational"))
    out = tmp_path / "report.json"
    code = cli.main(["certify", "--system", str(system), "--points", str(pts), "--mode", "rational",
                     "--distinct", "--real", "--output", str(out)])
    text = out.read_text()
    assert code == 1 and json.loads(text)["counts"]["certified"] == 3
    assert hashlib.sha256(text.encode()).hexdigest() == TRUNCATED_REPORT_SHA256[degrees]


def test_certify_distinct_reference_points():
    g, (X1, X2) = two_link_arm_poly()
    c1 = certify_solution(g, X1, RAT)
    c2 = certify_solution(g, X2, RAT)
    assert certify_distinct(g, c1, X1, c2, X2)
    assert certify_distinct(g, c2, X2, c1, X1)  # symmetric
    assert not certify_distinct(g, c1, X1, c1, X1)


def _rational_certificate(beta_sq):
    return Certificate(beta_sq=beta_sq, gamma_bound_sq=Fraction(1), alpha_bound_sq=beta_sq,
                       jacobian_invertible=True, exact_zero=False, certified_approximate=True,
                       mode="rational", bits=64)


_parts = st.builds(Fraction, st.integers(-10**6, 10**6),
                   st.sampled_from([1, 3, 7 * 2**30, 2**64 + 1]))


@st.composite
def distinct_cases(draw):
    """Two Gaussian-rational points of 1 to 3 coordinates and two beta^2, on
    the separation bound ||z1 - z2|| = 2 (beta1 + beta2) for a third of
    them."""
    n = draw(st.integers(1, 3))
    z1, z2 = (tuple(ExactComplex(draw(_parts), draw(_parts)) for _ in range(n)) for _ in range(2))
    if draw(st.booleans()):
        z2 = z1[:-1] + (z2[-1],)
    b1 = draw(st.fractions(min_value=0, max_value=10**12, max_denominator=10**9))
    b2 = draw(st.fractions(min_value=0, max_value=10**12, max_denominator=10**9))
    if draw(st.integers(0, 2)) == 0:
        # beta1 = t ||z1 - z2|| / 2 and beta2 = (1 - t) ||z1 - z2|| / 2
        t = draw(st.fractions(min_value=0, max_value=1, max_denominator=100))
        d = norm_sq(_sub(z1, z2))
        b1, b2 = d * t * t / 4, d * (1 - t) * (1 - t) / 4
    return z1, z2, b1, b2


@settings(max_examples=200, deadline=None)
@given(distinct_cases())
@example(((ec(0),), (ec(2),), Fraction(1, 4), Fraction(1, 4)))  # on the bound
@example(((ec(Fraction(1, 3)),), (ec(Fraction(1, 3)),), Fraction(0), Fraction(0)))
@example(((ec(0),), (ec(6, 6),), Fraction(9), Fraction(1)))  # 64 < 72 < 80
@example(((ec(0),), (ec(3, Fraction(1, 2)),), Fraction(1), Fraction(1, 4)))  # 9 < 37/4 < 10
def test_integer_distinct_test_equals_the_fraction_test(case):
    """The cross-multiplied integer test decides the separation condition
    ||z1 - z2|| > 2 (beta1 + beta2) as Fractions do, on the bound too, and
    holds wherever the sufficient ||z1 - z2||^2 > 8 (beta1^2 + beta2^2)
    does. With unequal betas it also holds between the two: the examples
    put ||z1 - z2||^2 between 4 (beta1 + beta2)^2 and 8 (beta1^2 +
    beta2^2)."""
    z1, z2, b1, b2 = case
    d = norm_sq(_sub(z1, z2))
    slack = d - 4 * (b1 + b2)
    want = slack > 0 and slack * slack > 64 * b1 * b2
    if d > 8 * (b1 + b2):
        assert want
    c1, c2 = _rational_certificate(b1), _rational_certificate(b2)
    assert certify_distinct(None, c1, z1, c2, z2) == want
    assert certify_distinct(None, c2, z2, c1, z1) == want


_DYADIC_BITS = 256


def _dyadic(draw, mantissa_bits=40):
    return Fraction(draw(st.integers(-2**mantissa_bits, 2**mantissa_bits)), 2 ** draw(st.integers(0, 40)))


@st.composite
def mode_cases(draw):
    """Two dyadic points of 1 to 3 coordinates, one real for half of the
    draws, and the beta^2 and gamma^2 of two certified points, dyadic too:
    at random; with ||z1 - z2||^2 between 4 (beta1 + beta2)^2 and 8
    (beta1^2 + beta2^2); or on either side of z1's robustness radius."""
    n = draw(st.integers(1, 3))
    z1, z2 = (tuple((_dyadic(draw), _dyadic(draw)) for _ in range(n)) for _ in range(2))
    if draw(st.booleans()):
        z1 = tuple((re, Fraction(0)) for re, _ in z1)
    d = sum((a - c) ** 2 + (b - e) ** 2 for (a, b), (c, e) in zip(z1, z2))
    b1, b2 = (abs(_dyadic(draw, 30)) for _ in range(2))
    g1, g2 = (abs(_dyadic(draw, 30)) or Fraction(1) for _ in range(2))  # a gamma bound is positive
    kind = draw(st.integers(0, 2))
    if kind == 1:  # d / b1 = 128 / 13 lies between 9 and 10, with b2 = b1 / 4
        b1 = d * Fraction(13, 128)
        b2 = b1 / 4
    elif kind == 2 and d:  # 2^e / (400 d) lies in [1/2, 2]
        e = (400 * d).numerator.bit_length() - (400 * d).denominator.bit_length()
        g1 = Fraction(2) ** -e * draw(st.sampled_from([Fraction(1, 8), 8]))
        b1 = min(b1, Fraction(1, 2048) / g1)  # alpha^2 below 1/2048 < (3/100)^2
    return z1, z2, (b1, g1), (b2, g2)


def _mode_pair(z, bg):
    """The point and certificate in rational mode and in float mode: the
    point exact and as mpcs of the same value, the certificate's Fractions
    the same in both."""
    b, g = bg
    rational = Certificate(b, g, b * g, True, False, True, "rational", 64)
    floating = Certificate(b, g, b * g, True, False, True, "float", _DYADIC_BITS)
    with mp.workprec(_DYADIC_BITS):
        point = tuple(mp.mpc(fraction_to_mpf(re, _DYADIC_BITS), fraction_to_mpf(im, _DYADIC_BITS))
                      for re, im in z)
        assert [coord_to_exact(v) for v in point] == [ExactComplex(re, im) for re, im in z]
    return (tuple(ExactComplex(re, im) for re, im in z), rational), (point, floating)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionFailed:
        return PreconditionFailed


@settings(max_examples=200, deadline=None)
@given(mode_cases())
def test_both_modes_decide_alike_at_equal_points(case):
    """Certificates of equal Fractions, one in each mode, at equal dyadic
    points, exact in rational mode and mpcs in float mode, get equal
    answers from certify_distinct, same_root, certify_real and
    robust_radius_sq."""
    z1, z2, c1, c2 = case
    (r1, rc1), (f1, fc1) = _mode_pair(z1, c1)
    (r2, rc2), (f2, fc2) = _mode_pair(z2, c2)
    S = PolynomialSystem(tuple(Polynomial.from_terms(len(z1), [(ec(1), (1,) * len(z1))])
                               for _ in z1))
    F256 = PrecisionConfig("float", _DYADIC_BITS)
    assert robust_radius_sq(rc1) == robust_radius_sq(fc1)
    assert certify_distinct(None, rc1, r1, rc2, r2) == certify_distinct(None, fc1, f1, fc2, f2)
    assert (_outcome(same_root, None, rc1, r1, r2, RAT)
            == _outcome(same_root, None, fc1, f1, f2, F256))
    for (rz, rc), (fz, fc) in (((r1, rc1), (f1, fc1)), ((r2, rc2), (f2, fc2))):
        assert certify_real(S, rc, rz, RAT) == certify_real(S, fc, fz, F256)


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


def test_robust_radius_is_exact_and_zero_without_robust_alpha():
    g, (X1, _) = two_link_arm_poly()
    r2, _ = newton_refine(g, X1, 2, RAT)
    cert = certify_solution(g, r2, RAT)
    assert cert.alpha_bound_sq < ROBUST_ALPHA_SQ
    radius = robust_radius_sq(cert)
    assert isinstance(radius, Fraction)
    assert radius == ROBUST_RADIUS_SQ / cert.gamma_bound_sq
    assert robust_radius_sq(certify_solution(g, X1, RAT)) == 0  # alpha ~ 0.0736
    S = poly1((ec(1), (2,)), (ec(-1), (0,)))
    singular = certify_solution(S, (ec(0),), RAT)
    assert not singular.jacobian_invertible
    assert robust_radius_sq(singular) == 0
    # An exact zero certifies with alpha 0 but an infinite gamma.
    zero = certify_solution(poly1((ec(1), (2,))), (ec(0),), RAT)
    assert zero.alpha_bound_sq == 0 and math.isinf(zero.gamma_bound_sq)
    assert robust_radius_sq(zero) == 0


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


def test_batch_runs_on_the_calling_thread():
    """No thread is started, and each record holds the certificate that
    certify_solution gives for its point alone. Takes no fixture, as
    acceptance 7 calls it directly."""

    def refuse(_self):
        raise AssertionError("certify_batch started a thread")

    g, (X1, X2) = two_link_arm_poly()
    pts = [X1, X2, X1, X2]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threading.Thread, "start", refuse)
        rep = certify_batch(g, pts, RAT, BatchOptions(distinct=True, real=True))
    assert [r.index for r in rep.records] == [0, 1, 2, 3]
    for rec, p in zip(rep.records, pts):
        assert rec.error is None
        assert rec.certificate == certify_solution(g, p, RAT)


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
