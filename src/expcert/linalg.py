"""Dense vectors and matrices over either scalar kind, one solve per kind, and
a double-precision bound on the column norms of an inverse.

No certificate takes the floating solve, which gives the Newton step of
refinement: a link-free point is certified by the exact solve, and a
linked one by the double-precision bound.

Vectors are tuples of scalars; matrices are tuples of row tuples. Both are
immutable, so values can be shared freely. The vector operations are
generic over the two scalar kinds (ExactComplex, mpmath.mpc): arithmetic goes
through operator overloading and abs_sq.

Norm conventions: everything is squared. Operator norms are never computed;
the Frobenius norm serves as their upper bound, which keeps the downstream
bounds valid and, in rational mode, keeps every quantity exactly rational.

Exact solves are fraction-free (solve_fraction_free). Its Gaussian-integer
rows, built by expsystems.fraction_free_rows, have each row of A scaled by the
lcm of its own denominators and each right-hand-side column by the lcm of
the denominators that scaling leaves in it. They are reduced by Bareiss's
integer-preserving elimination ("Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968): every update
divided exactly by the previous pivot, then a back substitution that
stays in the Gaussian integers. The solution is Y / (d c_j), column by
column, with d the last pivot, so a caller can take the squared norm of a
column as the integer sum_i |Y_ij|^2 over |d|^2 c_j^2 instead of forming
its entries (FractionFreeSolution.norm_sq_parts). The elimination skips
zero terms and zero entries; its results are exact either way.

Each column pivots on its entry with the fewest bits, max(bit_length
|re|, bit_length |im|), at or below the diagonal, the lowest row on a tie.
The first nonzero entry is often in a Taylor-truncated link row
y - T(c x), whose entries, cleared of their denominators, are hundreds of
bits wide (its y entry a power of two up to about 2^500 times a small
integer), and every later minor would carry that width; the narrowest
entry leaves such rows for last. On the 11 x 11 truncations of compliant
at degrees 3..9 that the benchmark's exact workload certifies, the pivots
between the second and the last are a third narrower in all.
Which rows become pivots changes no result: every intermediate of
Bareiss's elimination is a minor of the row-permuted matrix, X = A^{-1} B
does not depend on the order of the rows, and the last pivot is +-det A,
so |d|^2, every S_j and every column of X are those of any other row
order. A singular A raises at the same column with the same message,
since the first column in the span of the columns before it does not
depend on the row order either.

The floating solve stores the matrix densely but skips exact zeros: the
elimination touches only rows with a nonzero entry in the pivot column and
only the nonzero columns of the pivot row, the pivot search and the row
scale pass over zero entries, and back substitution drops every term
a_ik * x_kj with a zero factor and the division of a zero sum. The result is
bit for bit that of the dense loops. Every skipped operation is x - 0 * y or
0 / piv. Every entry is a finite mpc already rounded to the working
precision (the compiled program and the elimination both compute at it),
mpmath has no signed zero, and 0 * y for finite y is zero, so x - 0 * y
rounds x to itself and 0 / piv is zero: the pivots, the order of the
remaining operations and every result stay the same. The one entry the
dense loops also wrote, the cancelled entry under each pivot, is never read
again and is left as it is.

The floating solve also runs on the raw (real, imaginary) mpf parts of its
entries rather than on mpc objects, and wraps only the solution back into
mpc. Each of its operations is the libmp call the mpc or mpf operator
makes, at the context's (prec, rounding), on the same operands in the same
order: mpc_mul, mpc_sub and mpc_div for the arithmetic, abs_sq's own
abs_sq_parts for the squared moduli of the pivot search and the row scale,
and mpf_mul for the threshold times the row scale. Only the comparisons
differ, mpf_cmp for the operators' mpf_gt and mpf_lt, which agree with it
on every value but nan, and no entry is nan. So the result is bit for bit
that of the object loop, without an mpc object per operation.

inverse_column_bounds bounds the inverse of an exact matrix A, given as
integer rows over row scales like solve_fraction_free's, perturbed by any
Delta of Frobenius norm at most a given radius. It computes an
approximate inverse R of A in Python's complex doubles (not numpy, whose
import alone adds about 10 MB to the process), after Rump, "Verification
methods", Acta Numerica 2010; R is Krawczyk's preconditioner in Breiding,
Rose and Timme, arXiv:2011.05000. With E = I - R (A + Delta) and
||E||_F <= e < 1, A + Delta is invertible and (A + Delta)^{-1} =
(I - E)^{-1} R, so every column and every vector obey

    ||(A + Delta)^{-1} e_j||  <=  ||R e_j|| / (1 - e),
    ||(A + Delta)^{-1} f||    <=  ||R f|| / (1 - e).

e is bounded by the computed residual fl(I - R A_d), where A_d is A
rounded to doubles, plus a-priori terms for the rounding of that product
and of A itself (Higham, Accuracy and Stability of Numerical Algorithms,
2002, ch. 3), plus ||R||_F times the radius; every double-precision norm
is inflated for its own rounding. The squared bounds are then within about
1 + 4e of the true squared column norms. The function declines when A
does not round to normal doubles, when the double elimination meets a zero
pivot, or when e reaches INVERSE_RESIDUAL_LIMIT. product_norm_sq forms
||R f||^2 exactly, for f given as integers over scales.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, mpc_div, mpc_mul, mpc_sub, mpf_cmp, mpf_mul

from .errors import DimensionMismatch, SingularMatrix
from .scalars import ExactComplex, abs_sq, abs_sq_parts

CVector = tuple
CMatrix = tuple
_ZERO = (fzero, fzero)  # the raw parts of mpc(0); mpmath has no signed zero


def norm_sq(x: CVector):
    """Squared Euclidean norm."""
    total = 0
    for v in x:
        total = total + abs_sq(v)
    return total


def _check_square(A: CMatrix):
    n = len(A)
    for row in A:
        if len(row) != n:
            raise DimensionMismatch(f"matrix is not square: {n} rows, row of width {len(row)}")
    return n


def solve_columns(A: CMatrix, B: CMatrix, bits: int | None = None) -> CMatrix:
    """Solve A X = B for X, column by column, over mpc entries.

    Partial pivoting on the largest squared pivot, with a scaled singularity
    test: a pivot whose squared modulus falls below 2^(16-bits) times the
    largest squared entry of its row is treated as zero. The loops run on
    the raw parts and skip exact zeros (see the module docstring). Exact
    systems are solved by solve_fraction_free.

    Raises SingularMatrix when no acceptable pivot exists.
    """
    n = _check_square(A)
    if len(B) != n or any(len(row) != len(B[0]) for row in B):
        raise DimensionMismatch(f"right-hand side is not {n} rows of one width")
    if n == 0:
        return ()
    if bits is None:
        bits = mp.mp.prec
    prec, rnd = mp.mp._prec_rounding
    aug = [[v._mpc_ for v in A[i]] + [v._mpc_ for v in B[i]] for i in range(n)]
    _eliminate_float(aug, n, bits, prec, rnd)

    # Back substitution on the upper-triangular augmented system:
    # x_ij = (b_ij - sum over k > i of a_ik * x_kj) / a_ii, each sum taken in
    # order of k over the terms whose two factors are nonzero.
    X = [None] * n
    solved = [()] * n  # the nonzero (column, x_kj) of each solved row k
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = row[n:]
        for k in range(i + 1, n):
            a = row[k]
            if a != _ZERO:
                for j, x in solved[k]:
                    acc[j] = mpc_sub(acc[j], mpc_mul(a, x, prec, rnd), prec, rnd)
        piv = row[i]
        X[i] = [mpc_div(v, piv, prec, rnd) if v != _ZERO else v for v in acc]
        solved[i] = [(j, v) for j, v in enumerate(X[i]) if v != _ZERO]
    make = mp.make_mpc
    return tuple(tuple(make(v) for v in row) for row in X)


class _GaussianInt:
    """A Gaussian integer real + imag i, with the parts of int's interface
    that the integer program and the fraction-free solve use: real, imag,
    truth, +, -, *, ** and // as exact division (an int may be the other
    operand of +, * and //). Real systems run the same code on plain ints.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real = real
        self.imag = imag

    def __bool__(self):
        return bool(self.real or self.imag)

    def __add__(self, other):
        return _GaussianInt(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other):
        return _GaussianInt(self.real - other.real, self.imag - other.imag)

    def __mul__(self, other):
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return _GaussianInt(a * c - b * d, a * d + b * c)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, e: int):
        return self if e == 1 else self * self ** (e - 1)

    def __floordiv__(self, other):
        """The quotient self / other, which the caller knows lies in Z[i]."""
        a, b, c, d = self.real, self.imag, other.real, other.imag
        if d:
            norm = c * c + d * d
            return _GaussianInt((a * c + b * d) // norm, (b * c - a * d) // norm)
        return _GaussianInt(a // c, b // c)


class FractionFreeSolution:
    """The solution X of A X = B as Gaussian integers: X_ij = Y_ij / (d c_j).

    Y holds ints when A and B are real, else _GaussianInts; d is the last
    pivot and scales[j] = c_j the scale of right-hand-side column j. A plain
    class: a dataclass would add about 1 ms to every import of the package.
    """

    __slots__ = ("Y", "d", "scales")

    def __init__(self, Y, d, scales):
        self.Y = Y
        self.d = d
        self.scales = scales

    def column(self, j: int) -> CVector:
        """Column j of X as ExactComplex entries."""
        d, c = self.d, self.scales[j]
        values = [row[j] for row in self.Y]
        if d.imag:
            dc = _GaussianInt(d.real, -d.imag)
            values = [v * dc for v in values]
            den = (d.real * d.real + d.imag * d.imag) * c
        else:
            den = d.real * c
        return tuple(ExactComplex(Fraction(v.real, den), Fraction(v.imag, den)) for v in values)

    def norm_sq_parts(self) -> tuple:
        """([S_j = sum_i |Y_ij|^2 for each column j], |d|^2), all ints: column j
        of X has the squared norm S_j / (|d|^2 c_j^2)."""
        d = self.d
        sums = [sum(v.real * v.real + v.imag * v.imag for v in col) for col in zip(*self.Y)]
        return sums, d.real * d.real + d.imag * d.imag


def solve_fraction_free(aug: list, scales: tuple) -> FractionFreeSolution:
    """Solve A X = B exactly over the Gaussian rationals, without fractions.

    aug holds the rows [L_i A_i | L_i c_j B_ij], lists of ints (of
    _GaussianInts unless all real), and scales the c_j. They are reduced in
    place by Bareiss's elimination, each column pivoting on its entry with
    the fewest bits (the lowest row on a tie), which gives the same X and
    the same SingularMatrix column as any other choice of nonzero pivots
    (see the module docstring). The back substitution y_i = (d b_i - sum
    over k > i of u_ik y_k) / u_ii then gives y = d x with d the last
    pivot, and every division is exact. Zero entries and zero terms are
    skipped.
    """
    n, width = len(aug), len(scales)
    if n == 0:
        return FractionFreeSolution((), 1, ())
    total = n + width
    prev = None  # the previous pivot, by which every update divides exactly
    for col in range(n):
        widths = [(max(v.real.bit_length(), v.imag.bit_length()), r)
                  for r in range(col, n) if (v := aug[r][col])]
        if not widths:
            raise SingularMatrix(f"exact elimination: column {col} has no nonzero pivot")
        pivot_row = min(widths)[1]  # the narrowest entry, the lowest row on a tie
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        top = aug[col]
        piv = top[col]
        for r in range(col + 1, n):
            row = aug[r]
            v = row[col]
            for j in range(col + 1, total):
                a, t = row[j], top[j]
                if v and t:
                    new = piv * a - v * t
                elif a:
                    new = piv * a
                else:
                    continue
                row[j] = new // prev if prev is not None else new
        prev = piv

    d = prev
    Y = [None] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = [d * b if b else b for b in row[n:]]
        for k in range(i + 1, n):
            a = row[k]
            if a:
                yk = Y[k]
                for j in range(width):
                    y = yk[j]
                    if y:
                        acc[j] = acc[j] - a * y
        piv = row[i]
        Y[i] = tuple(v // piv if v else v for v in acc)
    return FractionFreeSolution(tuple(Y), d, scales)


def _eliminate_float(aug, n, bits, prec, rnd):
    threshold = from_man_exp(1, 16 - bits)
    for col in range(n):
        pivot_row, best = col, fzero
        for r in range(col, n):
            v = aug[r][col]
            if v != _ZERO:
                cand = abs_sq_parts(v, prec, rnd)
                if mpf_cmp(cand, best) > 0:
                    best, pivot_row = cand, r
        # best is the pivot's own squared modulus: the row scale starts there.
        row_scale = best
        for v in aug[pivot_row][col + 1:n]:
            if v != _ZERO:
                cand = abs_sq_parts(v, prec, rnd)
                if mpf_cmp(cand, row_scale) > 0:
                    row_scale = cand
        if row_scale == fzero or mpf_cmp(best, mpf_mul(threshold, row_scale, prec, rnd)) < 0:
            raise SingularMatrix(
                f"floating elimination: pivot in column {col} below singularity threshold"
            )
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        # Subtract multiples of the pivot row from the rows below it, only
        # rows with a nonzero entry in column col and only the nonzero
        # columns of the pivot row right of col; column col itself is never
        # read again, so it is left as it is.
        top = aug[col]
        piv = top[col]
        cols = [(j, top[j]) for j in range(col + 1, len(top)) if top[j] != _ZERO]
        for r in range(col + 1, n):
            row = aug[r]
            v = row[col]
            if v == _ZERO:
                continue
            factor = mpc_div(v, piv, prec, rnd)
            for j, t in cols:
                row[j] = mpc_sub(row[j], mpc_mul(factor, t, prec, rnd), prec, rnd)


# Unit roundoff of IEEE doubles, rounding to nearest.
_U = 2.0**-53
# Smallest positive normal double.
_TINY = 2.0**-1022
# inverse_column_bounds declines when its bound e on ||I - R A||_F reaches
# this. It keeps each column bound within (1 + e)^2 / (1 - e)^2 < 1 + 6e-8
# of the column norm it bounds.
INVERSE_RESIDUAL_LIMIT = 2.0**-26


def _to_double(num, den: int):
    """num / den (num an int or a _GaussianInt, den a positive int) as a
    complex double, or None unless each nonzero part rounds to a finite
    normal double, that is with relative error <= u. Python divides ints
    with one correct rounding, and raises OverflowError past the largest
    double."""
    parts = []
    for p in (num.real, num.imag):
        try:
            x = p / den
        except OverflowError:
            return None
        if p and not _TINY <= abs(x):
            return None
        parts.append(x)
    return complex(*parts)


def _invert_double(A):
    """Gauss-Jordan inverse of a list of complex rows, partial pivoting.

    Returns None on a zero pivot. Accuracy is not needed here: the caller
    bounds the residual of whatever R comes back.
    """
    n = len(A)
    aug = [row + [1.0 + 0j if j == i else 0j for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        p = max(range(col, n), key=lambda r: abs(aug[r][col]))
        piv = aug[p][col]
        if not piv:
            return None
        aug[col], aug[p] = aug[p], aug[col]
        top = [v / piv for v in aug[col][col:]]
        aug[col][col:] = top
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r][col:] = [a - f * b for a, b in zip(aug[r][col:], top)]
    return [row[n:] for row in aug]


def _norm_upper(parts):
    """Upper bound on sqrt(sum of x^2) over the doubles parts.

    The N squares and N - 1 sums lose less than a factor 1 + (N + 1) u,
    half of that under the square root, which rounds once, and so does the
    product with 1 + (N + 4) u, which covers all of them. Underflow is the
    caller's to account for.
    """
    return math.sqrt(sum(x * x for x in parts)) * (1 + (len(parts) + 4) * _U)


def inverse_column_bounds(rows, scales, radius: float = 0.0):
    """Bounds on the inverse of A + Delta from a double-precision inverse R of A.

    A is exact, A_ij = rows[i][j] / scales[i] with ints or _GaussianInts
    over positive ints (the row form of solve_fraction_free), and Delta is
    any matrix with ||Delta||_F <= radius, a nonnegative float. Returns
    (R, e, r_norm, columns): R as lists of complex doubles, e >=
    ||I - R (A + Delta)||_F, r_norm >= ||R||_F, and one float per column
    c_j >= sum_i |((A + Delta)^{-1})_ij|^2, each within a factor 1 + 1e-7
    of that sum for A itself when radius is 0. Returns None when the bound
    is declined (see the module docstring); None says nothing about A's
    invertibility.
    """
    n = _check_square(rows)
    Ad = []
    for row, q in zip(rows, scales):
        drow = []
        for v in row:
            d = _to_double(v, q) if v else 0j
            if d is None:
                return None
            drow.append(d)
        Ad.append(drow)
    R = _invert_double(Ad)
    if R is None:
        return None
    # Row i of fl(R A_d) and of fl(|R| |A_d|), summed in order of k over the
    # nonzeros of A_d's rows; a zero term is skipped, which adds exactly 0.
    nonzero = [[(j, v, abs(v)) for j, v in enumerate(row) if v] for row in Ad]
    resid = []  # real and imaginary parts of fl(I - R A_d), up to sign
    mods = []  # fl(|R| |A_d|)
    for i, r in enumerate(R):
        acc = [0j] * n
        mod = [0.0] * n
        for rk, nz in zip(r, nonzero):
            if rk:
                ak = abs(rk)
                for j, v, a in nz:
                    acc[j] += rk * v
                    mod[j] += ak * a
        acc[i] = 1 - acc[i]
        for d in acc:
            resid += (d.real, d.imag)
        mods += mod
    # |fl(I - R A_d) - (I - R A_d)| <= gamma_k (I + |R| |A_d|) with a generous
    # k for complex products, and |R (A - A_d)| <= 2u |R| |A_d|. The moduli
    # (2u each), products and n-term sums of |R| |A_d| lose less than a factor
    # 1 + (n + 5) u, which 1 + (2n + 16) u covers with its own rounding. The
    # last line rounds about eight times, and underflow adds at most 2^-500 to
    # a norm against an e of at least gamma_k > 2^-51: 1 + 32u covers both.
    k = 2 * n + 4
    gamma = k * _U / (1 - k * _U)
    m = _norm_upper(mods) * (1 + (2 * n + 16) * _U)
    e = (_norm_upper(resid) + gamma * (math.sqrt(n) + m) + 2 * _U * m) * (1 + 32 * _U)
    # ||R Delta||_F <= ||R||_F radius. The product and the sum round down by
    # at most a factor 1 - u each, which 1 + 4u makes up with its own
    # rounding; underflow in the product loses at most 2^-1074 against
    # e * 4u > 2^-104.
    r_norm = _norm_upper([x for row in R for v in row for x in (v.real, v.imag)])
    e = (e + r_norm * radius) * (1 + 4 * _U)
    if not e < INVERSE_RESIDUAL_LIMIT:
        return None
    # The 2n squares and sums of a column lose less than a factor
    # 1 + (2n + 1) u, and 1 - e, its square, the quotient and the product
    # round once each: 1 + (2n + 16) u covers them.
    scale = (1 + (2 * n + 16) * _U) / ((1 - e) * (1 - e))
    bounds = []
    for col in zip(*R):
        s = sum(x * x for v in col for x in (v.real, v.imag))
        if not 2.0**-900 <= s < math.inf:  # no underflow in the sum, and no overflow
            return None
        bounds.append(s * scale)
    return R, e, r_norm, tuple(bounds)


def product_norm_sq(R, values, scales) -> Fraction:
    """||R f||^2 exactly, for rows R of complex doubles and f_j = values[j] /
    scales[j], ints or _GaussianInts over positive ints.

    Every double is an integer over a power of two, so with 2^t the largest
    of those powers and S the lcm of the scales, R f = Y / (2^t S) for
    Gaussian integers Y, and the result is sum_i |Y_i|^2 / (2^t S)^2.
    Zero entries of f are skipped.
    """
    S = math.lcm(*scales)
    f = [(j, v.real * (S // q), v.imag * (S // q))
         for j, (v, q) in enumerate(zip(values, scales)) if v]
    parts = [x.as_integer_ratio() for row in R for v in row for x in (v.real, v.imag)]
    two_t = max(q for _, q in parts)
    ints = [p * (two_t // q) for p, q in parts]
    n, total = len(values), 0
    for i in range(len(R)):
        re = im = 0
        for j, fr, fi in f:
            a, b = ints[2 * (n * i + j)], ints[2 * (n * i + j) + 1]
            re += a * fr - b * fi
            im += a * fi + b * fr
        total += re * re + im * im
    return Fraction(total, (S * two_t) ** 2)
