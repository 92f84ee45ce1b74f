"""Exact complex scalars, precision plumbing, and number formatting."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from expcert.scalars import (
    EC_ONE,
    ExactComplex,
    PrecisionConfig,
    abs_sq,
    exact_to_mpc,
    format_decimal,
    format_rational,
    fraction_to_mpf,
    lift,
    mpf_to_fraction,
    working_precision,
)

def parse_real(token: str) -> Fraction:
    """Parse one real field: "p/q", "p", "d.dd", or scientific "d.de-x".

    Everything is captured exactly; raises ValueError on malformed input.
    """
    return Fraction(token)


def format_complex_decimal(re, im, sig: int = 6) -> str:
    """Two-field "re im" complex text."""
    return f"{format_decimal(re, sig)} {format_decimal(im, sig)}"


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=1000
)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def test_arithmetic_matches_hand_computation():
    a, b = ec(1, 2), ec(3, -1)
    assert a * b == ec(5, 5)
    assert a + b == ec(4, 1)
    assert a - b == ec(-2, 3)
    assert -a == ec(-1, -2)


def test_division_exact():
    a = ec(5, 5)
    assert a / ec(3, -1) == ec(1, 2)
    with pytest.raises(ZeroDivisionError):
        a / ExactComplex()


def test_constants():
    i = ec(0, 1)
    assert EC_ONE * i == i
    assert i * i == -EC_ONE
    assert ExactComplex() + EC_ONE == EC_ONE


@given(rationals, rationals)
def test_abs_sq_exact(re, im):
    z = ExactComplex(re, im)
    assert abs_sq(z) == re * re + im * im
    assert isinstance(abs_sq(z), Fraction)


def test_complex_cast():
    assert complex(ec(Fraction(1, 2), -3)) == 0.5 - 3j


def test_precision_config_validation():
    PrecisionConfig("rational", 64)
    PrecisionConfig("float", 96)
    with pytest.raises(Exception):
        PrecisionConfig("decimal", 64)
    with pytest.raises(Exception):
        PrecisionConfig("float", 16)


def test_working_precision_restores_context():
    before = mp.mp.prec
    with working_precision(333):
        assert mp.mp.prec == 333
    assert mp.mp.prec == before


@given(st.integers(-10**6, 10**6), st.integers(0, 40))
def test_dyadic_round_trip_is_exact(num, shift):
    fr = Fraction(num, 2**shift)
    x = fraction_to_mpf(fr, 96)
    assert mpf_to_fraction(x) == fr


def test_fraction_to_mpf_rounds_to_working_precision():
    x = fraction_to_mpf(Fraction(1, 3), 64)
    assert abs(mpf_to_fraction(x) - Fraction(1, 3)) < Fraction(1, 2**62)


def test_lift_modes():
    z = ec(Fraction(3, 4), 1)
    assert lift(z, PrecisionConfig("rational", 64)) is z
    lifted = lift(z, PrecisionConfig("float", 96))
    assert isinstance(lifted, mp.mpc)
    assert mpf_to_fraction(lifted.real) == Fraction(3, 4)


def test_exact_to_mpc():
    v = exact_to_mpc(ec(1, -2), 64)
    assert v.real == 1 and v.imag == -2


@given(rationals)
def test_parse_format_rational_round_trip(fr):
    assert parse_real(format_rational(fr)) == fr


@pytest.mark.parametrize(
    "token,expected",
    [
        ("3/4", Fraction(3, 4)),
        ("-7", Fraction(-7)),
        ("0.25", Fraction(1, 4)),
        ("-1.5e2", Fraction(-150)),
        ("2e-3", Fraction(1, 500)),
    ],
)
def test_parse_real_accepts_rational_and_decimal(token, expected):
    assert parse_real(token) == expected


@pytest.mark.parametrize("token", ["", "1/0", "x", "1.2.3", "--4"])
def test_parse_real_rejects_garbage(token):
    with pytest.raises(Exception):
        parse_real(token)


def test_format_decimal_six_significant_digits():
    assert format_decimal(Fraction(736015, 10**7)) == "7.36015e-02"
    assert format_decimal(0) == "0.00000e+00"


def test_format_decimal_correct_rounding():
    # 2/3 = 0.6666666... must round up at the sixth digit.
    assert format_decimal(Fraction(2, 3)) == "6.66667e-01"


def test_format_complex_decimal():
    s = format_complex_decimal(Fraction(1, 2), Fraction(-1, 4))
    assert "5.00000e-01" in s and "2.50000e-01" in s


@pytest.mark.parametrize("bits", [53, 96, 256, 1024])
@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-3000, max_value=3000),
)
def test_abs_sq_mpc_matches_parts_product_bit_for_bit(bits, re, im, shift):
    """abs_sq on the raw mpc parts rounds like z.real * z.real + z.imag * z.imag."""
    with mp.workprec(bits):
        z = mp.mpc(re, im) * mp.mpf(2) ** shift / 3
        want = z.real * z.real + z.imag * z.imag
        got = abs_sq(z)
        assert type(got) is type(want)
        assert got._mpf_ == want._mpf_
