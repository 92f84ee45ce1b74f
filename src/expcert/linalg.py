"""Dense vectors and matrices over either scalar kind, the shared solve, and a
double-precision bound on the column norms of an inverse.

Vectors are tuples of scalars; matrices are tuples of row tuples. Both are
immutable, so values can be shared freely across threads. All operations are
generic over the two scalar kinds (ExactComplex, mpmath.mpc): arithmetic goes
through operator overloading and abs_sq.

Norm conventions: everything is squared. Operator norms are never computed;
the Frobenius norm serves as their upper bound, which keeps the downstream
bounds valid and, in rational mode, keeps every quantity exactly rational.

solve_columns stores the matrix densely but skips exact zeros: the
elimination touches only rows with a nonzero entry in the pivot column and
only the nonzero columns of the pivot row, the pivot search and the row
scale pass over zero entries, and back substitution drops every term
a_ik * x_kj with a zero factor and the division of a zero sum. The result is
bit for bit that of the dense loops, in both kinds. Every skipped operation
is x - 0 * y or 0 / piv. In rational mode both are exact. In floating mode
every entry is a finite mpc already rounded to the working precision (the
compiled program and the elimination both compute at it), mpmath has no
signed zero, and 0 * y for finite y is zero, so x - 0 * y rounds x to
itself and 0 / piv is zero: the pivots, the order of the remaining
operations and every result stay the same. The one entry the dense loops
also wrote, the cancelled entry under each pivot, is never read again and
is left as it is.

inverse_column_bounds (mpc matrices only) bounds the column norms of A^{-1}
from an approximate inverse R computed in Python's complex doubles (not
numpy, whose import alone adds about 10 MB to the process), after Rump,
"Verification methods", Acta Numerica 2010; R is Krawczyk's preconditioner
in Breiding, Rose and Timme, arXiv:2011.05000. With E = I - R A and
||E||_F <= e < 1, A is invertible and A^{-1} = (I - E)^{-1} R, so every
column obeys

    ||A^{-1} e_j||  <=  ||R e_j|| / (1 - e).

e is bounded by the computed residual fl(I - R A_d), where A_d is A rounded
to doubles, plus a-priori terms for the rounding of that product and of A
itself (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
ch. 3); every double-precision norm is inflated for its own rounding. The
squared bounds are then within about 1 + 4e of the true squared column
norms. The function declines, and the caller solves for A^{-1} at its
working precision instead, when A does not round to normal doubles, when
the double elimination meets a zero pivot, or when e reaches
INVERSE_RESIDUAL_LIMIT.
"""

from __future__ import annotations

import math

import mpmath as mp

from .errors import DimensionMismatch, SingularMatrix
from .scalars import ExactComplex, EC_ZERO, EC_ONE, abs_sq

CVector = tuple
CMatrix = tuple


def norm_sq(x: CVector):
    """Squared Euclidean norm."""
    total = 0
    for v in x:
        total = total + abs_sq(v)
    return total


def norm1_sq(x: CVector):
    """Squared projective-style norm 1 + ||x||^2."""
    return 1 + norm_sq(x)


def vec_sub(x: CVector, y: CVector) -> CVector:
    if len(x) != len(y):
        raise DimensionMismatch(f"vector lengths differ: {len(x)} vs {len(y)}")
    return tuple(a - b for a, b in zip(x, y))


def _is_exact(A: CMatrix) -> bool:
    for row in A:
        for v in row:
            return isinstance(v, ExactComplex)
    return True


def _check_square(A: CMatrix):
    n = len(A)
    for row in A:
        if len(row) != n:
            raise DimensionMismatch(f"matrix is not square: {n} rows, row of width {len(row)}")
    return n


def solve_columns(A: CMatrix, B: CMatrix, bits: int | None = None) -> CMatrix:
    """Solve A X = B for X, column by column.

    Rational mode: exact Gaussian elimination, first nonzero pivot in each
    column (deterministic, bit-identical across runs). Floating mode: partial
    pivoting on the largest squared pivot, with a scaled singularity test: a
    pivot whose squared modulus falls below 2^(16-bits) times the largest
    squared entry of its row is treated as zero. Exact zeros are skipped
    throughout (see the module docstring).

    Raises SingularMatrix when no acceptable pivot exists.
    """
    n = _check_square(A)
    if len(B) != n:
        raise DimensionMismatch(f"right-hand side has {len(B)} rows, expected {n}")
    if n == 0:
        return ()
    width = len(B[0])
    for row in B:
        if len(row) != width:
            raise DimensionMismatch("ragged right-hand side")
    exact = _is_exact(A)
    aug = [list(A[i]) + list(B[i]) for i in range(n)]

    if exact:
        _eliminate_exact(aug, n)
    else:
        if bits is None:
            bits = mp.mp.prec
        _eliminate_float(aug, n, bits)

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
            if a:
                for j, x in solved[k]:
                    acc[j] = acc[j] - a * x
        piv = row[i]
        X[i] = tuple(v / piv if v else v for v in acc)
        solved[i] = [(j, v) for j, v in enumerate(X[i]) if v]
    return tuple(X)


def _eliminate_below(aug, n, col):
    """Subtract multiples of pivot row col from the rows below it.

    Only rows with a nonzero entry in column col and only the nonzero
    columns of the pivot row right of col are touched; column col itself
    is never read again, so it is left as it is.
    """
    top = aug[col]
    piv = top[col]
    cols = [(j, top[j]) for j in range(col + 1, len(top)) if top[j]]
    for r in range(col + 1, n):
        row = aug[r]
        v = row[col]
        if not v:
            continue
        factor = v / piv
        for j, t in cols:
            row[j] = row[j] - factor * t


def _eliminate_exact(aug, n):
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if aug[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularMatrix(f"exact elimination: column {col} has no nonzero pivot")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        _eliminate_below(aug, n, col)


def _eliminate_float(aug, n, bits):
    threshold = mp.mpf(2) ** (16 - bits)
    for col in range(n):
        pivot_row, best = col, 0
        for r in range(col, n):
            v = aug[r][col]
            if v:
                cand = abs_sq(v)
                if cand > best:
                    best = cand
                    pivot_row = r
        # best is the pivot's own squared modulus: the row scale starts there.
        row_scale = max([best] + [abs_sq(v) for v in aug[pivot_row][col + 1:n] if v])
        if row_scale == 0 or best < threshold * row_scale:
            raise SingularMatrix(
                f"floating elimination: pivot in column {col} below singularity threshold"
            )
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        _eliminate_below(aug, n, col)


def identity(n: int, exact: bool, bits: int | None = None) -> CMatrix:
    if exact:
        one, zero = EC_ONE, EC_ZERO
    else:
        one, zero = mp.mpc(1), mp.mpc(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


# Unit roundoff of IEEE doubles, rounding to nearest.
_U = 2.0**-53
# Smallest positive normal double.
_TINY = 2.0**-1022
# inverse_column_bounds declines when its bound e on ||I - R A||_F reaches
# this. It keeps each column bound within (1 + e)^2 / (1 - e)^2 < 1 + 6e-8
# of the column norm it bounds.
INVERSE_RESIDUAL_LIMIT = 2.0**-26


def _to_double(v):
    """The mpc v rounded to a complex double, or None unless each nonzero part
    rounds to a finite normal double, that is with relative error <= u."""
    d = complex(v)
    for part, (_, man, _, _) in zip((d.real, d.imag), v._mpc_):
        if man and not _TINY <= abs(part) < math.inf:
            return None
        if not man and part:  # mpmath keeps inf and nan with a zero mantissa
            return None
    return d


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


def inverse_column_bounds(A: CMatrix):
    """Bounds c_j >= sum_i |(A^{-1})_ij|^2 from a double-precision inverse, or None.

    A is a square matrix of mpc. Returns a tuple of floats, one per column,
    each within a factor 1 + 1e-7 of the sum it bounds, or None when
    the bound is declined (see the module docstring); None says nothing
    about A's invertibility.
    """
    n = _check_square(A)
    Ad = []
    for row in A:
        drow = []
        for v in row:
            d = _to_double(v) if v else 0j
            if d is None:
                return None
            drow.append(d)
        Ad.append(drow)
    R = _invert_double(Ad)
    if R is None:
        return None
    # Row i of fl(R A_d) and of fl(|R| |A_d|), summed in order of k over the
    # nonzeros of A_d's rows; a zero term is skipped, which adds exactly 0.
    rows = [[(j, v, abs(v)) for j, v in enumerate(row) if v] for row in Ad]
    resid = []  # real and imaginary parts of fl(I - R A_d), up to sign
    mods = []  # fl(|R| |A_d|)
    for i, r in enumerate(R):
        acc = [0j] * n
        mod = [0.0] * n
        for rk, nz in zip(r, rows):
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
    return tuple(bounds)
