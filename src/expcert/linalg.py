"""Dense vectors and matrices over either scalar kind, plus the shared solves.

Vectors are tuples of scalars; matrices are tuples of row tuples. Both are
immutable, so values can be shared freely across threads. All operations are
generic over the two scalar kinds (ExactComplex, mpmath.mpc): arithmetic goes
through operator overloading and abs_sq.

Norm conventions: everything is squared. Operator norms are never computed;
the Frobenius norm serves as their upper bound, which keeps the downstream
bounds valid and, in rational mode, keeps every quantity exactly rational.
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
    squared entry of its row is treated as zero.

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

    # Back substitution on the upper-triangular augmented system.
    total = n + width
    for i in range(n - 1, -1, -1):
        piv = aug[i][i]
        for j in range(n, total):
            acc = aug[i][j]
            for k in range(i + 1, n):
                acc = acc - aug[i][k] * aug[k][j]
            aug[i][j] = acc / piv
    return tuple(tuple(aug[i][n:]) for i in range(n))


def _eliminate_exact(aug, n):
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not aug[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularMatrix(f"exact elimination: column {col} has no nonzero pivot")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col] / piv
            if factor.is_zero():
                continue
            row = aug[r]
            top = aug[col]
            for j in range(col, len(row)):
                row[j] = row[j] - factor * top[j]


def _eliminate_float(aug, n, bits):
    threshold = mp.mpf(2) ** (16 - bits)
    for col in range(n):
        pivot_row = col
        best = abs_sq(aug[col][col])
        for r in range(col + 1, n):
            cand = abs_sq(aug[r][col])
            if cand > best:
                best = cand
                pivot_row = r
        row_scale = max(abs_sq(aug[pivot_row][j]) for j in range(col, n))
        if row_scale == 0 or best < threshold * row_scale:
            raise SingularMatrix(
                f"floating elimination: pivot in column {col} below singularity threshold"
            )
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col] / piv
            row = aug[r]
            top = aug[col]
            for j in range(col, len(row)):
                row[j] = row[j] - factor * top[j]


def solve_vector(A: CMatrix, b: CVector, bits: int | None = None) -> CVector:
    """Solve A x = b for a single right-hand-side vector."""
    X = solve_columns(A, tuple((v,) for v in b), bits)
    return tuple(row[0] for row in X)


def identity(n: int, exact: bool, bits: int | None = None) -> CMatrix:
    if exact:
        one, zero = EC_ONE, EC_ZERO
    else:
        one, zero = mp.mpc(1), mp.mpc(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def invert(A: CMatrix, bits: int | None = None) -> CMatrix:
    """Matrix inverse via solve_columns against the identity."""
    n = _check_square(A)
    return solve_columns(A, identity(n, _is_exact(A), bits), bits)
