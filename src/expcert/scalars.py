"""Scalar arithmetic shared by every module.

Two scalar kinds exist, mirroring the two arithmetic modes:

* ExactComplex: Gaussian rationals (a pair of Fractions). Every operation is
  exact; denominators stay canonical because Fraction reduces on construction.
* mpmath.mpc at an explicit precision: arbitrary-precision floating complexes.
  All floating work in a run happens at one bit count, set by wrapping the
  computation in working_precision(bits).

The module also owns the number text formats used by every file format:
rationals as "p/q" or "p", floats as scientific "d.ddddde+xx" strings. Readers
parse both exactly with Fraction, which accepts scientific notation natively.
Decimal output is correctly rounded by exact integer arithmetic, never by
repr() of a binary float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import singledispatch

import mpmath as mp
from mpmath.libmp import from_float, from_rational, fzero, mpf_add, mpf_mul, round_nearest

from .errors import ValidationError

MODE_RATIONAL = "rational"
MODE_FLOAT = "float"

_RationalLike = (int, Fraction)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


@dataclass(frozen=True)
class ExactComplex:
    """A Gaussian rational re + im*i with exact arithmetic.

    Hashable and immutable; safe as a dict key.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    @staticmethod
    def of(re, im=0) -> "ExactComplex":
        """Build from ints, Fractions, or rational strings ("3/4", "1.5e-2")."""
        if isinstance(re, ExactComplex):
            if im:
                raise TypeError("cannot combine ExactComplex with an extra imaginary part")
            return re
        return ExactComplex(Fraction(re), Fraction(im))

    def abs2(self) -> Fraction:
        """Squared modulus, exactly rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.abs2()
        if not d:
            raise ZeroDivisionError("division by zero ExactComplex")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = EC_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re} + {self.im}i)"


def _coerce(v):
    if isinstance(v, ExactComplex):
        return v
    if isinstance(v, _RationalLike):
        return ExactComplex(Fraction(v))
    return NotImplemented


EC_ONE = ExactComplex(Fraction(1))


@dataclass(frozen=True)
class PrecisionConfig:
    """Arithmetic mode plus working precision for an entire run.

    Rational mode is exact and only legal for systems without exponential
    links; float mode computes everything at the same bit count.
    """

    mode: str = MODE_FLOAT
    bits: int = 96

    def __post_init__(self):
        if self.mode not in (MODE_RATIONAL, MODE_FLOAT):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not isinstance(self.bits, int) or self.bits < 64:
            raise ValidationError(f"precision must be an integer >= 64 bits, got {self.bits}")

    @property
    def is_exact(self) -> bool:
        return self.mode == MODE_RATIONAL


def working_precision(bits: int):
    """Context manager fixing the floating working precision in bits."""
    return mp.workprec(bits)


def fraction_to_mpf(fr: Fraction, bits: int) -> mp.mpf:
    """Correctly rounded conversion at the given precision."""
    return mp.make_mpf(from_rational(fr.numerator, fr.denominator, bits, round_nearest))


def exact_to_mpc(z: ExactComplex, bits: int) -> mp.mpc:
    return mp.make_mpc(
        (
            from_rational(z.re.numerator, z.re.denominator, bits, round_nearest),
            from_rational(z.im.numerator, z.im.denominator, bits, round_nearest),
        )
    )


def mpf_to_fraction(x) -> Fraction:
    """Exact conversion of a finite mpf; every mpf is a dyadic rational."""
    if not mp.isfinite(x):
        raise ValueError(f"cannot convert non-finite value {x} to Fraction")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    fr = Fraction(int(man)) * (Fraction(2) ** exp)
    return -fr if sign else fr


def coord_to_exact(v) -> ExactComplex:
    """The exact value of a coordinate: an ExactComplex, int or Fraction, or
    the dyadic value of a Python complex or of an mpc or mpf."""
    if isinstance(v, ExactComplex):
        return v
    if isinstance(v, (int, Fraction)):
        return ExactComplex.of(v)
    if isinstance(v, complex):
        return ExactComplex(Fraction(v.real), Fraction(v.imag))
    if hasattr(v, "_mpc_"):
        return ExactComplex(mpf_to_fraction(v.real), mpf_to_fraction(v.imag))
    if hasattr(v, "_mpf_"):
        return ExactComplex(mpf_to_fraction(v), Fraction(0))
    raise ValidationError(f"cannot read a coordinate of type {type(v).__name__} exactly")


def lift(z: ExactComplex, prec: PrecisionConfig):
    """Materialize an exact scalar in the arithmetic of the given mode."""
    if prec.is_exact:
        return z
    return exact_to_mpc(z, prec.bits)


def lift_point(z, prec: PrecisionConfig) -> tuple:
    """Lift every exact coordinate of a point; other coordinates pass through."""
    return tuple(lift(v, prec) if isinstance(v, ExactComplex) else v for v in z)


def integer_point(z) -> tuple:
    """(q, X) with z = X / q: q the lcm of the denominators of an exact point's
    parts, and X the Gaussian integers q z as (re, im) pairs of ints."""
    z = [ExactComplex.of(v) for v in z]
    q = math.lcm(*(p.denominator for v in z for p in (v.re, v.im)))
    return q, tuple((v.re.numerator * (q // v.re.denominator),
                     v.im.numerator * (q // v.im.denominator)) for v in z)


def mpc_parts(v) -> tuple:
    """The raw (real, imaginary) mpf parts of an mpc, an mpf or a Python
    float or complex, exactly."""
    if hasattr(v, "_mpc_"):
        return v._mpc_
    if hasattr(v, "_mpf_"):
        return v._mpf_, fzero
    v = complex(v)
    return from_float(v.real), from_float(v.imag)


def dyadic_point(z) -> tuple:
    """integer_point's (q, X) for a point of finite mpc, mpf or double
    coordinates, read off their mantissas: q is a power of two, and
    z = X / q exactly."""
    parts = [mpc_parts(v) for v in z]
    for part in parts:
        for _, man, exp, bc in part:
            if not man and (exp or bc):  # mpmath keeps inf and nan with a zero mantissa
                raise ValidationError("point has a non-finite coordinate")
    k = max([0] + [-exp for part in parts for _, man, exp, _ in part if man])
    return 1 << k, tuple(
        tuple((-man if sign else man) << (exp + k) for sign, man, exp, _ in part) for part in parts)


def exact_sq_distance(p: tuple, r: tuple) -> tuple:
    """||z - w||^2 as (num, den) ints, for z = X / q and w = Y / s given as
    the (q, X) and (s, Y) of integer_point or dyadic_point."""
    (q, X), (s, Y) = p, r
    num = sum((s * a - q * c) ** 2 + (s * b - q * d) ** 2 for (a, b), (c, d) in zip(X, Y))
    return num, (q * s) ** 2


@singledispatch
def abs_sq(z):
    """Squared modulus |z|^2 in the scalar's own arithmetic."""
    raise TypeError(f"abs_sq: unsupported scalar {type(z).__name__}")


@abs_sq.register(ExactComplex)
def _(z):
    return z.abs2()


@abs_sq.register(Fraction)
@abs_sq.register(int)
@abs_sq.register(float)
def _(z):
    return z * z


@abs_sq.register(complex)
def _(z):
    return z.real * z.real + z.imag * z.imag


# mpmath classes are registered by instance type: the concrete class depends
# on the backend (pure Python vs gmpy).
abs_sq.register(type(mp.mpf(1)), lambda z: z * z)


def abs_sq_parts(parts, prec: int, rnd: str):
    """|z|^2 of an mpc's raw (real, imaginary) parts: z.real * z.real +
    z.imag * z.imag, the two products and the sum each rounded at prec and
    rnd, without building four intermediate mpf objects."""
    a, b = parts
    return mpf_add(mpf_mul(a, a, prec, rnd), mpf_mul(b, b, prec, rnd), prec, rnd)


@abs_sq.register(type(mp.mpc(1, 1)))
def _(z):
    ctx = z.context
    return ctx.make_mpf(abs_sq_parts(z._mpc_, *ctx._prec_rounding))


# Integers up to this many bits (about 3900 digits) stay below Python's
# default 4300-digit limit on str(int).
_STR_INT_BITS = 13000


def _int_to_decimal(n: int) -> str:
    """Exact base-10 digits of an integer of any size.

    Large integers are split at a power of ten near half their digit count
    and the halves converted separately, so no single str() call meets the
    interpreter's int-to-str digit limit.
    """
    if n < 0:
        return "-" + _int_to_decimal(-n)
    if n.bit_length() <= _STR_INT_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digit count (log10(2) > 3/10)
    hi, lo = divmod(n, 10**k)
    return _int_to_decimal(hi) + _int_to_decimal(lo).zfill(k)


def format_rational(fr: Fraction) -> str:
    """Canonical "p/q" (or "p" for integers), exact at any size."""
    if fr.denominator == 1:
        return _int_to_decimal(fr.numerator)
    return f"{_int_to_decimal(fr.numerator)}/{_int_to_decimal(fr.denominator)}"


def _round_half_even(fr: Fraction) -> int:
    """Nearest integer to a nonnegative Fraction, ties to even."""
    q, r = divmod(fr.numerator, fr.denominator)
    twice = 2 * r
    if twice > fr.denominator or (twice == fr.denominator and q % 2):
        return q + 1
    return q


def format_decimal(value, sig: int = 6) -> str:
    """Correctly rounded scientific decimal "d.ddddde+xx" with sig digits.

    Accepts Fraction, int, or a finite mpf; the rounding is exact because the
    digit string is computed in integer arithmetic from the exact value.
    """
    if sig < 1:
        raise ValueError("need at least one significant digit")
    if isinstance(value, (Fraction, int)):
        fr = Fraction(value)
    else:
        if not mp.isfinite(value):
            return str(value)
        fr = mpf_to_fraction(value)
    if not fr:
        head = "0" if sig == 1 else "0." + "0" * (sig - 1)
        return head + "e+00"
    neg = fr < 0
    a = -fr if neg else fr
    # Locate e with 10^e <= a < 10^(e+1); the digit-length guess is off by
    # at most one in each direction.
    e = len(_int_to_decimal(a.numerator)) - len(_int_to_decimal(a.denominator))
    while Fraction(10) ** e > a:
        e -= 1
    while Fraction(10) ** (e + 1) <= a:
        e += 1
    scaled = a * Fraction(10) ** (sig - 1 - e)
    d = _round_half_even(scaled)
    if d >= 10**sig:
        d //= 10
        e += 1
    digits = str(d)
    mantissa = digits[0] if sig == 1 else digits[0] + "." + digits[1:]
    return f"{'-' if neg else ''}{mantissa}e{e:+03d}"
