"""Linear algebra over both scalar kinds.

The exact path must be bit-reproducible and genuinely exact; the floating
path only needs to be stable enough for the soft certificates built on it.
The Frobenius-dominates-spectral check matters because every operator norm
in the package is silently replaced by a Frobenius bound.
"""

import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expcert.errors import DimensionMismatch, SingularMatrix
from expcert.linalg import (
    identity,
    invert,
    norm1_sq,
    norm_sq,
    solve_columns,
    solve_vector,
    vec_sub,
)
from expcert.scalars import ExactComplex, abs_sq

rat = st.fractions(min_value=-50, max_value=50, max_denominator=64)


def frobenius_norm_sq(A):
    """Sum of squared entry moduli; upper bounds the squared operator 2-norm."""
    total = 0
    for row in A:
        for v in row:
            total = total + abs_sq(v)
    return total


def mat_vec(A, x):
    out = []
    for row in A:
        if len(row) != len(x):
            raise DimensionMismatch(f"matrix width {len(row)} vs vector length {len(x)}")
        acc = 0
        for a, v in zip(row, x):
            acc = acc + a * v
        out.append(acc)
    return tuple(out)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def exact_matrix(rows):
    return tuple(tuple(ec(*v) if isinstance(v, tuple) else ec(v) for v in row) for row in rows)


def test_norms_on_hand_vectors():
    v = (ec(3), ec(0, 4))
    assert norm_sq(v) == 25
    assert norm1_sq(v) == 26
    assert frobenius_norm_sq((v, v)) == 50


def test_vec_sub_and_mat_vec():
    A = exact_matrix([[1, 2], [3, 4]])
    x = (ec(1), ec(-1))
    assert mat_vec(A, x) == (ec(-1), ec(-1))
    assert vec_sub(x, x) == (ec(0), ec(0))
    with pytest.raises(DimensionMismatch):
        mat_vec(A, (ec(1),))


def test_exact_solve_hand_case():
    A = exact_matrix([[2, 1], [1, 3]])
    b = (ec(5), ec(10))
    x = solve_vector(A, b)
    assert x == (ec(1), ec(3))


def test_exact_singular_raises():
    A = exact_matrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix):
        solve_vector(A, (ec(1), ec(0)))


def test_float_singular_raises():
    with mp.workprec(96):
        A = ((mp.mpc(1), mp.mpc(2)), (mp.mpc(1), mp.mpc(2)))
        with pytest.raises(SingularMatrix):
            solve_vector(A, (mp.mpc(1), mp.mpc(0)), bits=96)


@st.composite
def exact_square_matrices(draw, nmax=4):
    n = draw(st.integers(1, nmax))
    entries = draw(
        st.lists(
            st.tuples(rat, rat), min_size=n * n, max_size=n * n
        )
    )
    return tuple(
        tuple(ExactComplex(re, im) for re, im in entries[i * n : (i + 1) * n])
        for i in range(n)
    )


@settings(max_examples=60, deadline=None)
@given(exact_square_matrices())
def test_exact_inverse_is_two_sided(A):
    n = len(A)
    try:
        inv = invert(A)
    except SingularMatrix:
        return
    eye = identity(n, exact=True)
    prod = tuple(tuple(sum((A[i][k] * inv[k][j] for k in range(n)), ec(0)) for j in range(n)) for i in range(n))
    assert prod == eye


@settings(max_examples=60, deadline=None)
@given(exact_square_matrices(), st.data())
def test_exact_solve_reproduces_rhs(A, data):
    n = len(A)
    xs = data.draw(st.lists(st.tuples(rat, rat), min_size=n, max_size=n))
    x = tuple(ExactComplex(re, im) for re, im in xs)
    b = mat_vec(A, x)
    try:
        got = solve_vector(A, b)
    except SingularMatrix:
        return
    assert got == x


def test_solve_columns_multiple_rhs():
    A = exact_matrix([[1, 1], [0, 2]])
    B = exact_matrix([[3, 1], [4, 0]])
    X = solve_columns(A, B)
    assert X == exact_matrix([[1, 1], [2, 0]])


def test_frobenius_dominates_spectral_norm():
    """Criterion: Frobenius >= largest singular value on random matrices."""
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(1, 6)
        M = np.array(
            [
                [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        sigma_max = np.linalg.svd(M, compute_uv=False)[0]
        fro_sq = frobenius_norm_sq(tuple(tuple(row) for row in M.tolist()))
        assert fro_sq >= sigma_max**2 * (1 - 1e-12)


def test_float_solve_accuracy():
    with mp.workprec(128):
        A = ((mp.mpc(2), mp.mpc(1)), (mp.mpc(1), mp.mpc(3)))
        b = (mp.mpc(5), mp.mpc(10))
        x = solve_vector(A, b, bits=128)
        assert abs(x[0] - 1) < mp.mpf(2) ** -100
        assert abs(x[1] - 3) < mp.mpf(2) ** -100


def test_identity_shapes():
    eye = identity(3, exact=True)
    assert eye[0][0] == ec(1) and eye[0][1] == ec(0)
    with mp.workprec(64):
        feye = identity(2, exact=False, bits=64)
        assert feye[1][1] == 1


def _random_entry(rng: random.Random, exact: bool):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
    if rng.random() < 0.2:
        re = im = Fraction(0)  # zeros force row exchanges
    if exact:
        return ExactComplex(re, im)
    return mp.mpc(mp.mpf(re.numerator) / re.denominator, mp.mpf(im.numerator) / im.denominator)


@pytest.mark.parametrize("bits", [96, 1024, None], ids=["float96", "float1024", "rational"])
def test_solve_columns_with_identity_matches_solve_and_invert(bits):
    """solve_columns(A, [b | I]) equals solve_vector(A, b) and invert(A) bit for bit.

    Pivots depend on A alone, so appending the identity columns to one
    right-hand side changes neither the solution nor the inverse.
    """
    rng = random.Random(1109)
    exact = bits is None
    with mp.workprec(bits or 64):
        for _ in range(60):
            n = rng.randint(1, 6)
            A = tuple(tuple(_random_entry(rng, exact) for _ in range(n)) for _ in range(n))
            b = tuple(_random_entry(rng, exact) for _ in range(n))
            B = tuple((bi,) + row for bi, row in zip(b, identity(n, exact)))
            try:
                X = solve_columns(A, B, bits)
            except SingularMatrix:
                with pytest.raises(SingularMatrix):
                    solve_vector(A, b, bits)
                with pytest.raises(SingularMatrix):
                    invert(A, bits)
                continue
            assert tuple(row[0] for row in X) == solve_vector(A, b, bits)
            assert tuple(row[1:] for row in X) == invert(A, bits)
