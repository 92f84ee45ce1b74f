"""Linear algebra over both scalar kinds.

The exact path must be bit-reproducible and genuinely exact; the floating
path only needs to be stable enough for the Newton steps built on it.
The Frobenius-dominates-spectral check matters because every operator norm
in the package is silently replaced by a Frobenius bound. solve_columns
skips exact zeros in floating mode and solve_fraction_free solves exact
systems without fractions; a verbatim copy of the dense elimination both
replaced is kept here as the reference both must match, bit for bit and
exactly.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from mpmath.libmp import fzero

from expcert import linalg
from expcert.errors import DimensionMismatch, SingularMatrix
from expcert.linalg import (
    _GaussianInt,
    inverse_column_bounds,
    norm_sq,
    product_norm_sq,
    solve_columns,
    solve_fraction_free,
)
from expcert.scalars import EC_ONE, ExactComplex, abs_sq, dyadic_point, mpf_to_fraction

rat = st.fractions(min_value=-50, max_value=50, max_denominator=64)


def _is_exact(A):
    return bool(A) and isinstance(A[0][0], ExactComplex)


def identity(n: int, exact: bool):
    """The n x n identity of ExactComplex, or of mpc entries."""
    one, zero = (EC_ONE, ExactComplex()) if exact else (mp.mpc(1), mp.mpc(0))
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def norm1_sq(x):
    """Squared projective-style norm 1 + ||x||^2."""
    return 1 + norm_sq(x)


def _integer_rows(A, B):
    """The rows [L_i A_i | L_i c_j B_ij] of Gaussian integers, and the c_j.

    L_i is the lcm of the denominators in row i of A alone, and c_j the lcm
    of the denominators of the L_i B_ij: a right-hand side with larger
    denominators than A's row (F(z) beside J(z) has about their square)
    then scales its own column, not the whole row.

    The reference for the rows that expsystems.fraction_free_rows builds
    from a system's exact core, and the way these tests hand ExactComplex
    matrices to solve_fraction_free.
    """
    if not A:
        return [], ()
    row_scales = [math.lcm(*(p.denominator for v in row for p in (v.re, v.im))) for row in A]
    col_scales = [1] * len(B[0])
    for L, row in zip(row_scales, B):
        for j, v in enumerate(row):
            for p in (v.re, v.im):
                q = p.denominator
                if q != 1:
                    col_scales[j] = math.lcm(col_scales[j], q // math.gcd(q, L))
    gaussian = any(v.im for rows in (A, B) for row in rows for v in row)
    aug = []
    for L, a_row, b_row in zip(row_scales, A, B):
        parts = [(v.re.numerator * (L // v.re.denominator),
                  v.im.numerator * (L // v.im.denominator)) for v in a_row]
        for c, v in zip(col_scales, b_row):
            m = L * c
            parts.append((v.re.numerator * (m // v.re.denominator),
                          v.im.numerator * (m // v.im.denominator)))
        aug.append([_GaussianInt(*p) for p in parts] if gaussian else [re for re, _ in parts])
    return aug, tuple(col_scales)


def solve_matrix(A, B, bits=None):
    """X with A X = B: the columns of solve_fraction_free for an exact A,
    else solve_columns."""
    if _is_exact(A):
        solution = solve_fraction_free(*_integer_rows(A, B))
        return tuple(zip(*(solution.column(j) for j in range(len(B[0])))))
    return solve_columns(A, B, bits)


def solve_vector(A, b, bits=None):
    """Solve A x = b for a single right-hand-side vector."""
    X = solve_matrix(A, tuple((v,) for v in b), bits)
    return tuple(row[0] for row in X)


def invert(A, bits=None):
    """Matrix inverse, solved against the identity."""
    return solve_matrix(A, identity(len(A), _is_exact(A)), bits)


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


def test_mat_vec():
    A = exact_matrix([[1, 2], [3, 4]])
    x = (ec(1), ec(-1))
    assert mat_vec(A, x) == (ec(-1), ec(-1))
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
    X = solve_matrix(A, B)
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
        feye = identity(2, exact=False)
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
                X = solve_matrix(A, B, bits)
            except SingularMatrix:
                with pytest.raises(SingularMatrix):
                    solve_vector(A, b, bits)
                with pytest.raises(SingularMatrix):
                    invert(A, bits)
                continue
            assert tuple(row[0] for row in X) == solve_vector(A, b, bits)
            assert tuple(row[1:] for row in X) == invert(A, bits)


# The dense elimination solve_columns used before it skipped exact zeros,
# copied verbatim (names prefixed _dense) as the bit-identity reference.


def _dense_check_square(A):
    n = len(A)
    for row in A:
        if len(row) != n:
            raise DimensionMismatch(f"matrix is not square: {n} rows, row of width {len(row)}")
    return n


def _dense_is_exact(A):
    for row in A:
        for v in row:
            return isinstance(v, ExactComplex)
    return True


def _dense_solve_columns(A, B, bits=None):
    n = _dense_check_square(A)
    if len(B) != n:
        raise DimensionMismatch(f"right-hand side has {len(B)} rows, expected {n}")
    if n == 0:
        return ()
    width = len(B[0])
    for row in B:
        if len(row) != width:
            raise DimensionMismatch("ragged right-hand side")
    exact = _dense_is_exact(A)
    aug = [list(A[i]) + list(B[i]) for i in range(n)]

    if exact:
        _dense_eliminate_exact(aug, n)
    else:
        if bits is None:
            bits = mp.mp.prec
        _dense_eliminate_float(aug, n, bits)

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


def _dense_eliminate_exact(aug, n):
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


def _dense_eliminate_float(aug, n, bits):
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


def _sparse_entry(rng):
    """A nonzero entry: a small integer or a ratio with denominator 1..7.

    Small integers make exact cancellations (and singular matrices) common;
    the ratios are rounded once, at the working precision.
    """
    parts = []
    for _ in range(2):
        if rng.random() < 0.5:
            parts.append(Fraction(rng.randint(-3, 3)))
        else:
            parts.append(Fraction(rng.randint(-99, 99), rng.randint(1, 7)))
    if not any(parts):
        parts[0] = Fraction(1)
    return mp.mpc(*(mp.mpf(p.numerator) / p.denominator for p in parts))


@st.composite
def sparse_systems(draw, bits):
    """(A, B) with A square of size 1..12 and density 0.1..0.7, B = b or [b | I].

    Half the matrices get a nonzero entry on a random permutation, so many
    are invertible, and some diagonal entries are zeroed afterwards, which
    forces row exchanges. Two in five get one column scaled by 2^-e, exactly,
    with e around (bits - 16) / 2, so that its pivot falls on either side of
    the floating singularity threshold relative to the rest of its row.
    Draw under the working precision.
    """
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 12))
    density = draw(st.floats(0.1, 0.7))
    zero = mp.mpc(0)
    A = [[_sparse_entry(rng) if rng.random() < density else zero for _ in range(n)]
         for _ in range(n)]
    if draw(st.booleans()):
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            A[i][j] = _sparse_entry(rng)
    for i in range(n):
        if rng.random() < 0.3:
            A[i][i] = zero
    if n > 1 and rng.random() < 0.4:
        j = rng.randrange(n)
        e = (bits - 16) // 2 + rng.randint(-6, 6)
        for row in A:
            row[j] = row[j] * mp.ldexp(1, -e)
    b = [_sparse_entry(rng) if rng.random() < max(density, 0.5) else zero
         for _ in range(n)]
    if draw(st.booleans()):
        B = tuple((bi,) for bi in b)
    else:
        B = tuple((bi,) + row for bi, row in zip(b, identity(n, exact=False)))
    return tuple(map(tuple, A)), B


def _solve_or_error(solve, A, B, bits):
    try:
        return solve(A, B, bits)
    except SingularMatrix as exc:
        return str(exc)


@pytest.mark.parametrize("bits", [53, 96, 256, 1024],
                         ids=["float53", "float96", "float256", "float1024"])
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_sparse_elimination_matches_dense_bit_for_bit(bits, data):
    """Skipping exact zeros changes no pivot, no bit of X, no singular column.

    Shrinking is off: a failing draw is reported as drawn, since shrinking
    systems of up to 12 x 25 entries against the dense reference takes
    minutes per precision.
    """
    with mp.workprec(bits):
        A, B = data.draw(sparse_systems(bits))
        want = _solve_or_error(_dense_solve_columns, A, B, bits)
        got = _solve_or_error(solve_columns, A, B, bits)
    if isinstance(want, str):
        assert got == want  # SingularMatrix, same message and column
    else:
        assert [[v._mpc_ for v in row] for row in got] == [
            [v._mpc_ for v in row] for row in want
        ]


def _dyadic(rng, bits, odd=1):
    """A random Fraction m / (odd 2^bits) with |m| below 2^(bits + 2)."""
    return Fraction(rng.randint(-(2 ** (bits + 2)), 2 ** (bits + 2)), odd * 2**bits)


@st.composite
def dyadic_systems(draw):
    """(A, B) of ExactComplex, A square of size 1..11, B = b or [b | I].

    A's entries are dyadic with denominators of 2^64 to 2^256, sometimes
    times a small odd factor, and real in half the draws (the solve then
    runs on plain ints). b's denominators are up to twice as long as its
    row's, as F(z) beside J(z) at an exactly refined point. Half the
    matrices get a nonzero entry on a random permutation, so many are
    invertible; zeroed diagonal entries force row exchanges. One draw in
    four is made singular by a zero column or by a row that is an exact
    combination of two others. Sizes and kinds come from a seeded
    random.Random, whose draws, unlike Hypothesis's, are spread evenly.
    """
    rng = random.Random(draw(st.integers(0, 2**64)))
    n = rng.randint(1, 11)
    real = rng.random() < 0.5
    zero = ExactComplex(Fraction(0), Fraction(0))

    def entry(bits):
        odd = rng.choice((1, 1, 1, 3, 5, 7))
        im = Fraction(0) if real else _dyadic(rng, bits, odd)
        return ExactComplex(_dyadic(rng, bits, odd), im)

    row_bits = [rng.randint(64, 256) for _ in range(n)]
    density = rng.uniform(0.3, 1.0)
    A = [[entry(row_bits[i]) if rng.random() < density else zero for _ in range(n)]
         for i in range(n)]
    if rng.random() < 0.5:
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            A[i][j] = entry(row_bits[i])
    for i in range(n):
        if rng.random() < 0.3:
            A[i][i] = zero
    if n > 2 and rng.random() < 0.25:
        if rng.random() < 0.5:
            j = rng.randrange(n)
            for row in A:
                row[j] = zero
        else:
            r, s, t = rng.sample(range(n), 3)
            a, b = entry(8), entry(8)
            A[r] = [a * x + b * y for x, y in zip(A[s], A[t])]
    b = [entry(rng.randint(row_bits[i], 2 * row_bits[i])) if rng.random() < 0.9 else zero
         for i in range(n)]
    if rng.random() < 0.5:
        B = tuple((bi,) for bi in b)
    else:
        B = tuple((bi,) + row for bi, row in zip(b, identity(n, exact=True)))
    return tuple(map(tuple, A)), B


@settings(max_examples=100, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(dyadic_systems())
def test_fraction_free_solve_matches_dense_fractions(system):
    """X, each column of X and each squared column norm, S_j / (|d|^2 c_j^2)
    from the integer parts, equal the dense Fraction elimination's exactly;
    a singular A fails on the same column.

    Shrinking is off, as for the sparse elimination above.
    """
    A, B = system
    want = _solve_or_error(_dense_solve_columns, A, B, None)
    got = _solve_or_error(solve_matrix, A, B, None)
    assert got == want
    if isinstance(want, str):
        with pytest.raises(SingularMatrix, match=re.escape(want)):
            solve_fraction_free(*_integer_rows(A, B))
        return
    solution = solve_fraction_free(*_integer_rows(A, B))
    sums, dd = solution.norm_sq_parts()
    for j, col in enumerate(zip(*want)):
        assert solution.column(j) == col
        assert Fraction(sums[j], dd * solution.scales[j] ** 2) == norm_sq(col)


def _raw(X):
    return [[v._mpc_ for v in row] for row in X]


def _thirds(i, j):
    """A nonzero entry that does not round to a short dyadic."""
    return mp.mpc(mp.mpf(i + 2) / 3, mp.mpf(j - 5) / 7)


@pytest.mark.parametrize("bits", [53, 96, 256, 1024])
def test_equal_pivot_candidates_take_the_first_row(bits):
    """Rows 1 and 2 of column 0 have equal squared moduli (|3 + 4i|^2 =
    |4 - 3i|^2 = 25, above row 0's): row 1 is the pivot, as in the dense
    loop. Taking row 2 instead changes bits of X, so the choice shows."""
    with mp.workprec(bits):
        A = [[mp.mpc(1, 1)] + [_thirds(0, j) for j in (1, 2)],
             [mp.mpc(3, 4)] + [_thirds(1, j) for j in (1, 2)],
             [mp.mpc(4, -3)] + [_thirds(2, j) for j in (1, 2)]]
        B = [(_thirds(i, 9), _thirds(9, i)) for i in range(3)]
        got = solve_columns(A, B, bits)
        assert _raw(got) == _raw(_dense_solve_columns(A, B, bits))
        swapped = solve_columns([A[0], A[2], A[1]], [B[0], B[2], B[1]], bits)
        assert _raw(swapped) != _raw(got)


@pytest.mark.parametrize("bits", [96, 256, 1024])
def test_a_pivot_at_the_singularity_threshold_is_taken(bits):
    """A pivot p with |p|^2 exactly 2^(16 - bits) times its row's largest
    squared entry passes the test, which is strict; p (1 - 2^-8) fails it."""
    p = mp.ldexp(1, (16 - bits) // 2)
    with mp.workprec(bits):
        for scale, singular in ((1, False), (1 - mp.ldexp(1, -8), True)):
            A = [[mp.mpc(p * scale), mp.mpc(1)], [mp.mpc(0), _thirds(1, 1)]]
            B = [(_thirds(0, 9),), (_thirds(1, 9),)]
            got = _solve_or_error(solve_columns, A, B, bits)
            assert isinstance(got, str) == singular
            want = _solve_or_error(_dense_solve_columns, A, B, bits)
            assert (got if singular else _raw(got)) == (want if singular else _raw(want))


def test_a_zero_right_hand_side_solves_to_exact_zeros():
    with mp.workprec(96):
        A = [[_thirds(i, j) if (i + j) % 3 else mp.mpc(0) for j in range(4)] for i in range(4)]
        B = [(mp.mpc(0), mp.mpc(0))] * 4
        got = solve_columns(A, B, 96)
        assert _raw(got) == _raw(_dense_solve_columns(A, B, 96))
        assert all(v == (fzero, fzero) for row in _raw(got) for v in row)


def test_permuted_diagonal_solve_does_no_multiplications(monkeypatch):
    """[b | I] against a permuted diagonal 8 x 8 matrix: only divisions remain."""
    n = 8
    perm = [3, 0, 6, 1, 7, 2, 5, 4]
    with mp.workprec(96):
        zero = mp.mpc(0)
        A = tuple(tuple(mp.mpc(i + 2, -1) if j == perm[i] else zero for j in range(n))
                  for i in range(n))
        b = tuple(mp.mpc(1, i) for i in range(n))
        B = tuple((bi,) + row for bi, row in zip(b, identity(n, exact=False)))
        original = linalg.mpc_mul
        calls = []

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(linalg, "mpc_mul", counting)
        X = solve_columns(A, B, 96)
        monkeypatch.undo()
        assert calls == []
        for i in range(n):
            j = perm[i]
            assert X[j][0] == b[i] / A[i][j]
            assert X[j][1 + i] == 1 / A[i][j]
            assert sum(1 for v in X[j][1:] if v) == 1


def _full_entry(rng, bits, lo=0.0):
    """A complex entry with both parts drawn at the full working precision.

    Each part's modulus lies in [lo, 2), so that rounding to doubles is a
    real rounding; draw under the working precision.
    """
    parts = []
    for _ in range(2):
        x = mp.mpf(rng.getrandbits(bits)) / mp.mpf(2) ** bits
        parts.append((lo + (2 - lo) * x) * rng.choice((-1, 1)))
    return mp.mpc(*parts)


@st.composite
def bound_cases(draw, bits):
    """(kind, A): A square of size 1..12 at the working precision.

    scaled (half the draws): density 0.3..1, half with a nonzero on a random permutation, and
    one column scaled by 2^-e, e in 0..40, so that the double-precision bound
    is accepted at small e and declined at large e. singular: row n - 1
    repeats row 0 exactly. near-singular: row n - 1 is c times row 0 plus a
    perturbation 2^-e, e in 34..80, relative to it, so that the condition is
    at least about 1e10; entries are dense with moduli above 1/2.
    """
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["scaled", "scaled", "singular", "near-singular"]))
    if kind == "scaled":
        density = draw(st.floats(0.3, 1.0))
        A = [[_full_entry(rng, bits) if rng.random() < density else mp.mpc(0)
              for _ in range(n)] for _ in range(n)]
        if draw(st.booleans()):
            perm = list(range(n))
            rng.shuffle(perm)
            for i, j in enumerate(perm):
                A[i][j] = _full_entry(rng, bits)
        j, e = rng.randrange(n), draw(st.integers(0, 40))
        for row in A:
            row[j] = row[j] * mp.ldexp(1, -e)
        return kind, tuple(map(tuple, A))
    n = max(n, 2)
    A = [[_full_entry(rng, bits, lo=0.5) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        A[-1] = list(A[0])
    else:
        c, e = _full_entry(rng, bits, lo=0.5), draw(st.integers(34, 80))
        A[-1] = [c * a + mp.ldexp(1, -e) * _full_entry(rng, bits, lo=0.5) for a in A[0]]
    return kind, tuple(map(tuple, A))


def _dyadic_rows(A):
    """An mpc matrix as inverse_column_bounds's exact integer rows and scales."""
    rows, scales = [], []
    for row in A:
        q, parts = dyadic_point(row)
        rows.append([_GaussianInt(re, im) for re, im in parts])
        scales.append(q)
    return rows, scales


@pytest.mark.parametrize("bits", [96, 256, 1024])
@settings(max_examples=60, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_inverse_column_bounds_enclose_the_column_norms(bits, data):
    """Accepted bounds lie in [s_j, (1 + 1e-7) s_j], s_j = sum_i |(A^-1)_ij|^2,
    and e bounds ||I - R A||_F, here measured from R and A exactly.

    s_j is taken from solve_columns(A, I) at four times the working
    precision, whose relative error (below 1e-20 at the conditions the
    bound accepts) is far inside the bound's own slack; the working
    precision alone can call a badly scaled A singular, which its pivot
    test measures against the largest entry of the row. Singular and
    near-singular matrices are declined. Shrinking is off, as for the
    sparse elimination above.
    """
    with mp.workprec(bits):
        kind, A = data.draw(bound_cases(bits))
        got = inverse_column_bounds(*_dyadic_rows(A))
        if kind != "scaled":
            assert got is None
        if got is None:
            return
    with mp.workprec(4 * bits):
        X = solve_columns(A, identity(len(A), False), 4 * bits)
        R, e, r_norm, bounds = got
        for c, col in zip(bounds, zip(*X)):
            s = norm_sq(col)
            assert s <= c <= s * (1 + mp.mpf(10) ** -7)
    exact = [[(mpf_to_fraction(v.real), mpf_to_fraction(v.imag)) for v in row] for row in A]
    assert r_norm**2 >= sum(abs(v) ** 2 for row in R for v in row)
    residual = 0
    for i, j in itertools.product(range(len(A)), repeat=2):
        terms = [_mul_exact(R[i][k], exact[k][j]) for k in range(len(A))]
        residual += _abs2_exact(((i == j) - sum(a for a, _ in terms), sum(b for _, b in terms)))
    assert residual <= Fraction(e) ** 2


def _mul_exact(r: complex, a):
    """r a exactly, for a double r and a pair a = (re, im) of Fractions, as a pair."""
    (x, y), (u, v) = (Fraction(r.real), Fraction(r.imag)), a
    return x * u - y * v, x * v + y * u


def _abs2_exact(v):
    return v[0] * v[0] + v[1] * v[1]


@pytest.mark.parametrize("entry,bits", [
    ("1e400", 1024),   # overflows to inf
    ("1e-400", 1024),  # underflows to 0.0
    ("1e-330", 96),    # below the smallest subnormal: rounds to 0.0
    ("1e-310", 96),    # subnormal: rounds with more than a relative u
])
def test_inverse_column_bounds_decline_entries_doubles_cannot_hold(entry, bits):
    with mp.workprec(bits):
        A = [[mp.mpc(2, 1), mp.mpc(0)], [mp.mpc(1), mp.mpc(3)]]
        assert inverse_column_bounds(*_dyadic_rows(A)) is not None
        for i, j, part in ((0, 0, 0), (1, 0, 1), (1, 1, 0)):
            B = [list(row) for row in A]
            parts = [B[i][j].real, B[i][j].imag]
            parts[part] = mp.mpf(entry)
            B[i][j] = mp.mpc(*parts)
            assert inverse_column_bounds(*_dyadic_rows(B)) is None


def test_inverse_column_bounds_of_a_permuted_diagonal_are_tight():
    """R has one nonzero per row, so each bound exceeds |1/a|^2 by little more
    than the a-priori slack of order n u."""
    perm = [2, 0, 3, 1]
    with mp.workprec(96):
        A = tuple(tuple(mp.mpc(i + 1, 1) if j == perm[i] else mp.mpc(0) for j in range(4))
                  for i in range(4))
        _, _, _, got = inverse_column_bounds(*_dyadic_rows(A))
        for i in range(4):
            want = 1 / abs_sq(mp.mpc(i + 1, 1))
            assert want <= got[i] <= want * (1 + mp.mpf(10) ** -13)


@pytest.mark.parametrize("radius", [2.0**-60, 2.0**-30, 2.0**-20])
def test_inverse_column_bounds_fold_a_perturbation_into_e(radius):
    """e grows by about ||R||_F times the radius, and is declined once it
    reaches INVERSE_RESIDUAL_LIMIT."""
    rows, scales = [[3, 1], [_GaussianInt(1, 2), 5]], [1, 2]
    R, e0, r_norm, _ = inverse_column_bounds(rows, scales)
    got = inverse_column_bounds(rows, scales, radius)
    if r_norm * radius >= 2.0**-26:
        assert got is None
        return
    _, e, _, _ = got
    assert e0 + r_norm * radius <= e <= (e0 + r_norm * radius) * (1 + 1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.randoms(use_true_random=False))
def test_product_norm_sq_is_exact(n, rng):
    """||R f||^2 equals the Fraction sum for doubles R and Gaussian-integer
    values over scales with odd factors."""
    R = [[complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) * 2.0 ** rng.randint(-60, 60)
          if rng.random() < 0.8 else 0j for _ in range(n)] for _ in range(n)]
    values = [_GaussianInt(rng.randint(-10**30, 10**30), rng.randint(-10**30, 10**30))
              if rng.random() < 0.8 else 0 for _ in range(n)]
    scales = [rng.choice([1, 3, 2**70, 7 * 2**90]) for _ in range(n)]
    f = [(Fraction(v.real, q), Fraction(v.imag, q)) for v, q in zip(values, scales)]
    want = Fraction(0)
    for row in R:
        y = [_mul_exact(r, fj) for r, fj in zip(row, f)]
        want += _abs2_exact((sum(a for a, _ in y), sum(b for _, b in y)))
    assert product_norm_sq(R, values, scales) == want
