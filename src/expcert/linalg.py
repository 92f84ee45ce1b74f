"""Dense vectors and matrices over either scalar kind, plus the shared solve.

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
"""

from __future__ import annotations

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

