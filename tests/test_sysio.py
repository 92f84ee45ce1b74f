"""File formats and report structure.

The files under data/ are generated from the builders in mechanisms.py by
scripts/regen_data.py; the consistency tests here fail if either side
drifts, so the shipped files always match the code that claims to produce
them.
"""

import json
import re
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from expcert.certify import BatchOptions, BatchReport, Certificate, PointRecord, certify_batch
from expcert.errors import ExpcertError, ParseError, ValidationError
from expcert.expsystems import as_exp_system
from expcert.mechanisms import (
    compliant_linkage,
    compliant_linkage_alt,
    two_link_arm_euler,
    two_link_arm_exp,
    two_link_arm_poly,
)
from expcert.scalars import ExactComplex, PrecisionConfig
from expcert.sysio import (
    MAX_DECIMAL_EXPONENT,
    MAX_EXPONENT,
    parse_points,
    parse_system,
    render_report_text,
    report_to_dict,
    report_to_json,
    serialize_points,
    serialize_system,
)

DATA = Path(__file__).resolve().parent.parent / "data"
STEMS = ["rr_dyad_poly", "rr_dyad", "rr_dyad_euler", "compliant", "compliant_alt"]
BUILDERS = {
    "rr_dyad_poly": two_link_arm_poly,
    "rr_dyad": two_link_arm_exp,
    "rr_dyad_euler": two_link_arm_euler,
    "compliant": compliant_linkage,
    "compliant_alt": compliant_linkage_alt,
}

DECIMAL6 = re.compile(r"^-?\d\.\d{5}e[+-]\d{2}$")


@pytest.mark.parametrize("stem", STEMS)
def test_system_files_round_trip(stem):
    text = (DATA / f"{stem}.sys").read_text()
    F = parse_system(text)
    assert serialize_system(F) == text
    assert parse_system(serialize_system(F)) == F


@pytest.mark.parametrize("stem", STEMS)
def test_point_files_round_trip(stem):
    text = (DATA / f"{stem}.pts").read_text()
    pd = parse_points(text)
    assert pd.mode == "rational"
    assert serialize_points(pd.points, pd.mode) == text


@pytest.mark.parametrize("stem", STEMS)
def test_data_files_match_builders(stem):
    F, points = BUILDERS[stem]()
    assert serialize_system(as_exp_system(F)) == (DATA / f"{stem}.sys").read_text()
    assert serialize_points(points, "rational") == (DATA / f"{stem}.pts").read_text()


def test_point_width_matches_system():
    for stem in STEMS:
        F = parse_system((DATA / f"{stem}.sys").read_text())
        pd = parse_points((DATA / f"{stem}.pts").read_text())
        for p in pd.points:
            assert len(p) == F.N


def test_float_coordinates_serialize_exactly():
    with mp.workprec(113):
        z = (mp.mpf(1) / 3, mp.mpc(mp.sqrt(2), -mp.mpf("0.1")))
    text = serialize_points([z], "float")
    back = parse_points(text)
    assert back.mode == "float"
    (p,) = back.points
    with mp.workprec(113):
        assert mp.mpf(p[0].re.numerator) / p[0].re.denominator == z[0]
        assert p[0].im == 0
        assert mp.mpf(p[1].re.numerator) / p[1].re.denominator == z[1].real
        assert mp.mpf(p[1].im.numerator) / p[1].im.denominator == z[1].imag


def test_serialize_points_rejects_unknown_mode():
    with pytest.raises(ValidationError):
        serialize_points([], "decimal")


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("nonsense\n", 1, "format"),
        ("format: 2\n", 1, "format"),
        ("format: 1\nsystem 1\n", 2, "system"),
        ("format: 1\nsystem -1 0\n", 2, "negative"),
        ("format: 1\nsystem 1 0\nrow 2\n", 3, "poly"),
        ("format: 1\nsystem 1 0\npoly -1\n", 3, "negative term count"),
        ("format: 1\nsystem 1 0\npoly 1\n2 1\n", 4, "term line"),
        ("format: 1\nsystem 1 0\npoly 1\n-1 1 0\n", 4, "negative exponent"),
        ("format: 1\nsystem 1 0\npoly 1\n1 x 0\n", 4, "rational"),
        ("format: 1\nsystem 0 1\nlink tan 1 2 1 0\n", 3, "kind"),
        ("format: 1\nsystem 0 1\nlink sin 1 2 1\n", 3, "link"),
        ("format: 1\nsystem 0 0\nextra\n", 3, "trailing"),
    ],
)
def test_system_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ParseError) as info:
        parse_system(text)
    assert info.value.line == lineno
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("format: 1\nmode: decimal\n1\n0 0\n", "mode"),
        ("format: 1\nmode: rational\n-2\n", "negative"),
        ("format: 1\nmode: rational\n1\n1 2 3\n", "re im"),
        ("format: 1\nmode: rational\n2\n1 0\n2 0\n3 0\n", "divide"),
        ("format: 1\nmode: rational\n0\n1 0\n", "count of 0"),
        ("format: 1\nmode: rational\n3\n1 0\n2 0\n", "3 points need at least 3 coordinate lines, got 2"),
        ("format: 1\nmode: float\n1\n", "got 0"),
    ],
)
def test_points_parse_errors(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_points(text)
    assert fragment in str(info.value)


def test_a_point_count_without_coordinates_fails_at_once():
    """A count above the number of coordinate lines is an error, raised
    before any point is built: a count of 10^18 over no lines would
    otherwise build 10^18 empty points."""
    start = time.perf_counter()
    with pytest.raises(ParseError, match="got 0"):
        parse_points(f"format: 1\nmode: float\n{10**18}\n")
    assert time.perf_counter() - start < 1


# Tokens that sit on a boundary of the grammar: signs, zero, counts far
# beyond the lines present, the exponent caps and one past them, and
# strings that are not numbers at all.
_EDGE_TOKENS = ["-1", "0", "1", "2", str(10**18), "-" + str(10**18), str(MAX_EXPONENT),
                str(MAX_EXPONENT + 1), f"1e{MAX_DECIMAL_EXPONENT}",
                f"1e{MAX_DECIMAL_EXPONENT + 1}", "1/0", "3/4", "-0.5", "nan", "inf", "x",
                "format:", "mode:", "system", "poly", "link", "exp", "sin", "rational",
                "float", "#", ":"]
_DATA_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(DATA.iterdir())]
_FUZZ = settings(max_examples=150, deadline=500)


def _parses_or_fails_cleanly(text):
    """Both parsers either return or raise an ExpcertError (exit code 2), and
    parsed points all have one width of at least one coordinate."""
    try:
        parse_system(text)
    except ExpcertError:
        pass
    try:
        points = parse_points(text).points
    except ExpcertError:
        return
    assert all(len(z) == len(points[0]) > 0 for z in points)


@st.composite
def mutated_data_files(draw):
    """A data file after a few line edits: delete, duplicate, swap, insert a
    line of edge tokens, or replace one token of a line with an edge token."""
    lines = draw(st.sampled_from(_DATA_TEXTS)).splitlines()
    edge_line = st.lists(st.sampled_from(_EDGE_TOKENS), max_size=8).map(" ".join)
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines.append(draw(edge_line))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap", "insert", "token"]))
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "insert":
            lines.insert(i, draw(edge_line))
        else:
            toks = lines[i].split() or [""]
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(_EDGE_TOKENS))
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@_FUZZ
@given(mutated_data_files())
def test_parsers_accept_or_reject_mutated_data_files(text):
    _parses_or_fails_cleanly(text)


@st.composite
def grammar_shaped_texts(draw):
    """A format line, a system or points header, a count, then lines of edge
    tokens: counts far beyond the lines that follow come up often."""
    header = draw(st.sampled_from(["mode: rational", "mode: float", "system 1 0", "system 2 1"]))
    count = draw(st.one_of(st.integers(-3, 10**18).map(str), st.sampled_from(_EDGE_TOKENS)))
    lines = draw(st.lists(st.lists(st.sampled_from(_EDGE_TOKENS), max_size=6).map(" ".join),
                          max_size=10))
    return "\n".join(["format: 1", header, count] + lines) + "\n"


@_FUZZ
@given(st.one_of(st.text(), grammar_shaped_texts()))
def test_parsers_accept_or_reject_random_text(text):
    _parses_or_fails_cleanly(text)


def test_exponent_caps_sit_at_their_constants():
    def term(e):
        return f"format: 1\nsystem 1 0\npoly 1\n{e} 1 0\n"

    def coordinate(token):
        return f"format: 1\nmode: rational\n1\n{token} 0\n"

    assert parse_system(term(MAX_EXPONENT)).P.max_degree == MAX_EXPONENT
    with pytest.raises(ParseError, match="exponent") as info:
        parse_system(term(MAX_EXPONENT + 1))
    assert info.value.line == 4
    top = MAX_DECIMAL_EXPONENT
    assert parse_points(coordinate(f"-1e{top}")).points[0][0].re == -(10**top)
    assert parse_points(coordinate(f"2.5E-{top}")).points[0][0].re == Fraction(5, 2 * 10**top)
    for token in (f"1e{top + 1}", f"-1e-{top + 1}", "1e999999999", "1e", "1ex"):
        with pytest.raises(ParseError, match="rational token"):
            parse_points(coordinate(token))


def test_comments_and_blank_lines_are_skipped():
    text = "# leading comment\n\nformat: 1\n# interior\nsystem 0 0\n"
    F = parse_system(text)
    assert F.n == 0 and F.m == 0


def _dyad_report():
    g, (X1, X2) = two_link_arm_poly()
    prec = PrecisionConfig("rational", 64)
    return certify_batch(g, [X1, X2], prec, BatchOptions(distinct=True, real=True))


def test_report_dict_structure():
    rep = _dyad_report()
    d = report_to_dict(rep, seed=5, system_shape=(4, 0))
    assert d["format"] == 1 and d["tool"] == "expcert"
    assert d["mode"] == "rational" and d["precision"] == 64
    assert d["seed"] == 5 and d["system"] == {"n": 4, "m": 0}
    assert d["counts"]["total"] == 2 == d["counts"]["certified"]
    assert len(d["points"]) == 2
    for p in d["points"]:
        assert p["certified"] is True
        for key in ("alpha_bound", "beta", "gamma_bound"):
            assert DECIMAL6.match(p[key]), p[key]
        # exact squared values ride along in rational mode
        for key in ("alpha_bound_sq", "beta_sq", "gamma_bound_sq"):
            num = p[key]
            assert Fraction(num) >= 0
        assert p["real"] == "real"
    assert d["points"][0]["distinct_set"] != d["points"][1]["distinct_set"]


def test_report_decimals_match_exact_values():
    rep = _dyad_report()
    d = report_to_dict(rep)
    for p, rec in zip(d["points"], rep.records):
        shown = mp.mpf(p["alpha_bound"])
        truth = mp.sqrt(mp.mpf(rec.certificate.alpha_bound_sq.numerator)
                        / rec.certificate.alpha_bound_sq.denominator)
        assert abs(shown - truth) <= mp.mpf("1e-5") * truth


def test_report_json_and_text_render():
    rep = _dyad_report()
    d = report_to_dict(rep)
    parsed = json.loads(report_to_json(d))
    assert parsed == d
    text = render_report_text(d)
    assert "certification report" in text
    assert "point 0: certified" in text
    assert "point 1: certified" in text


def test_float_report_has_no_exact_fields():
    G, (Z1, _) = two_link_arm_exp()
    rep = certify_batch(G, [Z1], PrecisionConfig("float", 96), BatchOptions())
    d = report_to_dict(rep)
    p = d["points"][0]
    assert "alpha_bound_sq" not in p
    assert DECIMAL6.match(p["alpha_bound"])


def _parse_digits(digits: str) -> int:
    """int() of a digit string in chunks, below the interpreter's digit limit."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_exact_report_renders_numbers_past_the_str_digit_limit():
    """An exact quantity of more than 10^4 digits renders and parses back exactly."""
    beta_sq = Fraction(3**21000 + 1, 7**12000)
    gamma_sq = Fraction(5**15000, 3)
    cert = Certificate(
        beta_sq=beta_sq,
        gamma_bound_sq=gamma_sq,
        alpha_bound_sq=beta_sq * gamma_sq,
        jacobian_invertible=True,
        exact_zero=False,
        certified_approximate=False,
        mode="rational",
        bits=64,
    )
    rep = BatchReport(records=[PointRecord(0, (), certificate=cert)], mode="rational", bits=64)
    d = report_to_dict(rep)
    p = d["points"][0]
    for key, want in (("beta_sq", beta_sq), ("gamma_bound_sq", gamma_sq),
                      ("alpha_bound_sq", beta_sq * gamma_sq)):
        num, den = p[key].split("/")
        assert len(num) > 10**4
        assert Fraction(_parse_digits(num), _parse_digits(den)) == want
    assert json.loads(report_to_json(d)) == d
    assert "point 0" in render_report_text(d)
