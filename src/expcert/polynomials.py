"""Polynomials with exact rational-complex coefficients, and their norms.

A polynomial is a normalized term list (graded-lex order, no duplicate
monomials, no zero coefficients) over a fixed ambient variable count. The
degree is always taken from the actual terms, never declared, because the
weighted coefficient norm (bw_norm_sq) and the row degrees that feed the
curvature bound in expsystems are degree-sensitive. The norm is an exact
rational. pscale, pmul and mul_terms are exact polynomial arithmetic; the
solver scales rows, builds its product start rows and restricts systems
to slices with them.

Nothing here evaluates a system: its values and Jacobian come from the one
compiled program in expsystems, which compiles each polynomial and its
symbolic derivatives: exact values from the integer program
(exact_core), mpc values from value_and_jacobian. Polynomial.evaluate
sums one polynomial term by term in the arithmetic of the point, exactly
for exact points, and is the tests' reference for that program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DimensionMismatch, ValidationError
from .linalg import CVector
from .scalars import ExactComplex


@dataclass(frozen=True)
class Monomial:
    """Exponent vector of one term; length equals the ambient variable count."""

    exponents: tuple

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValidationError("negative exponent in monomial")
        object.__setattr__(self, "exponents", exps)

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)

    def value_at(self, x: CVector):
        acc = None
        for xi, e in zip(x, self.exponents):
            if e == 0:
                continue
            p = xi**e
            acc = p if acc is None else acc * p
        return acc  # None means the monomial is constant 1


@dataclass(frozen=True)
class Polynomial:
    """Normalized term list; immutable and hashable."""

    nv: int
    terms: tuple  # of (ExactComplex, Monomial), graded-lex descending

    @staticmethod
    def from_terms(nv: int, items) -> "Polynomial":
        """Build from (coefficient, exponents) pairs, merging and pruning."""
        acc = {}
        for coeff, mono in items:
            if not isinstance(coeff, ExactComplex):
                coeff = ExactComplex.of(coeff)
            exps = mono.exponents if isinstance(mono, Monomial) else tuple(int(e) for e in mono)
            if len(exps) != nv:
                raise DimensionMismatch(
                    f"monomial has {len(exps)} exponents in a {nv}-variable polynomial"
                )
            acc[exps] = acc.get(exps, ExactComplex()) + coeff
        terms = []
        for exps in sorted(acc, key=lambda e: (sum(e), e), reverse=True):
            c = acc[exps]
            if not c.is_zero():
                terms.append((c, Monomial(exps)))
        return Polynomial(nv, tuple(terms))

    @property
    def degree(self) -> int:
        """Max total degree over terms; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return self.terms[0][1].total_degree

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, x: CVector):
        if len(x) != self.nv:
            raise DimensionMismatch(f"point has {len(x)} coordinates, expected {self.nv}")
        total = None
        for coeff, mono in self.terms:
            mv = mono.value_at(x)
            term = coeff if mv is None else coeff * mv
            total = term if total is None else total + term
        if total is None:
            return ExactComplex()
        return total

    def derivative(self, j: int) -> "Polynomial":
        """Partial derivative with respect to variable j (symbolic)."""
        items = []
        for coeff, mono in self.terms:
            e = mono.exponents[j]
            if e == 0:
                continue
            exps = list(mono.exponents)
            exps[j] = e - 1
            items.append((coeff * e, tuple(exps)))
        return Polynomial.from_terms(self.nv, items)


# ---------------------------------------------------------------------------
# Polynomial arithmetic (exact throughout)


def pscale(p: Polynomial, c) -> Polynomial:
    c = ExactComplex.of(c) if not isinstance(c, ExactComplex) else c
    return Polynomial.from_terms(p.nv, [(c * coeff, m) for coeff, m in p.terms])


def mul_terms(p: dict, q: dict) -> dict:
    """The product of two polynomials held as {exponents: coefficient}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


def pmul(p: Polynomial, q: Polynomial) -> Polynomial:
    acc = mul_terms({m.exponents: c for c, m in p.terms}, {m.exponents: c for c, m in q.terms})
    return Polynomial.from_terms(p.nv, [(c, e) for e, c in acc.items()])


class Memo(dict):
    """What an instance memoizes for this interpreter only: pickles and
    deep-copies empty."""

    def __reduce__(self):
        return Memo, ()


def memo_hash(obj, fields: tuple) -> int:
    """The dataclass hash of a frozen system, computed once per instance.

    Hashing a system walks every term; the compiled-program caches hash
    their system key on every lookup. Equality stays the field-wise one.
    The memo holds for one interpreter only: link kinds hash by their
    names, and string hashes are salted per process. It is kept in a Memo,
    so a pickled or deep-copied system leaves it behind.
    """
    memo = obj.__dict__.get("_memo")
    if not memo:
        memo = obj.__dict__["_memo"] = Memo(hash=hash(fields))
    return memo["hash"]


@dataclass(frozen=True)
class PolynomialSystem:
    """A list of polynomials sharing one ambient variable count."""

    polys: tuple

    def __post_init__(self):
        polys = tuple(self.polys)
        if polys:
            nv = polys[0].nv
            for p in polys:
                if p.nv != nv:
                    raise DimensionMismatch("polynomials disagree on variable count")
        object.__setattr__(self, "polys", polys)

    def __hash__(self):
        return memo_hash(self, (self.polys,))

    @property
    def n(self) -> int:
        return len(self.polys)

    @property
    def nv(self) -> int:
        return self.polys[0].nv if self.polys else 0

    @property
    def degrees(self) -> tuple:
        return tuple(p.degree for p in self.polys)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)


def bw_norm_sq(g) -> Fraction:
    """Squared weighted coefficient norm; accepts a Polynomial or a system.

    For one polynomial of degree d: (1/d!) * sum over terms of
    rho! * (d - |rho|)! * |a_rho|^2, where rho! is the product of the
    coordinate factorials. For a system: the sum over its polynomials.
    """
    if isinstance(g, PolynomialSystem):
        total = Fraction(0)
        for p in g.polys:
            total += bw_norm_sq(p)
        return total
    if g.is_zero():
        return Fraction(0)
    d = g.degree
    dfac = factorial(d)
    total = Fraction(0)
    for coeff, mono in g.terms:
        w = factorial(d - mono.total_degree)
        for e in mono.exponents:
            w *= factorial(e)
        total += Fraction(w, dfac) * coeff.abs2()
    return total

