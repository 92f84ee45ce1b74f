"""Linear algebra over both scalar kinds.

The exact path must be bit-reproducible and genuinely exact; the floating
path only needs to be stable enough for the soft certificates built on it.
The Frobenius-dominates-spectral check matters because every operator norm
in the package is silently replaced by a Frobenius bound. solve_columns
skips exact zeros; a verbatim copy of the dense elimination it replaced is
kept here as the reference it must match bit for bit.
"""

import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from expcert.errors import DimensionMismatch, SingularMatrix
from expcert.linalg import (
    identity,
    inverse_column_bounds,
    norm1_sq,
    norm_sq,
    solve_columns,
    vec_sub,
)
from expcert.scalars import ExactComplex, abs_sq

rat = st.fractions(min_value=-50, max_value=50, max_denominator=64)


def solve_vector(A, b, bits=None):
    """Solve A x = b for a single right-hand-side vector."""
    X = solve_columns(A, tuple((v,) for v in b), bits)
    return tuple(row[0] for row in X)


def invert(A, bits=None):
    """Matrix inverse via solve_columns against the identity."""
    exact = not A or isinstance(A[0][0], ExactComplex)
    return solve_columns(A, identity(len(A), exact, bits), bits)


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


def _sparse_entry(rng, exact):
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
    if exact:
        return ExactComplex(*parts)
    return mp.mpc(*(mp.mpf(p.numerator) / p.denominator for p in parts))


@st.composite
def sparse_systems(draw, bits):
    """(A, B) with A square of size 1..12 and density 0.1..0.7, B = b or [b | I].

    Half the matrices get a nonzero entry on a random permutation, so many
    are invertible, and some diagonal entries are zeroed afterwards, which
    forces row exchanges. Two in five get one column scaled by 2^-e, exactly,
    with e around (bits - 16) / 2, so that its pivot falls on either side of
    the floating singularity threshold relative to the rest of its row.
    bits None draws exact entries. Draw under the working precision.
    """
    exact = bits is None
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 12))
    density = draw(st.floats(0.1, 0.7))
    zero = ExactComplex(Fraction(0), Fraction(0)) if exact else mp.mpc(0)
    A = [[_sparse_entry(rng, exact) if rng.random() < density else zero for _ in range(n)]
         for _ in range(n)]
    if draw(st.booleans()):
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            A[i][j] = _sparse_entry(rng, exact)
    for i in range(n):
        if rng.random() < 0.3:
            A[i][i] = zero
    if n > 1 and rng.random() < 0.4:
        j = rng.randrange(n)
        e = rng.randint(20, 40) if exact else (bits - 16) // 2 + rng.randint(-6, 6)
        scale = ExactComplex(Fraction(1, 2**e), Fraction(0)) if exact else mp.ldexp(1, -e)
        for row in A:
            row[j] = row[j] * scale
    b = [_sparse_entry(rng, exact) if rng.random() < max(density, 0.5) else zero
         for _ in range(n)]
    if draw(st.booleans()):
        B = tuple((bi,) for bi in b)
    else:
        B = tuple((bi,) + row for bi, row in zip(b, identity(n, exact)))
    return tuple(map(tuple, A)), B


def _solve_or_error(solve, A, B, bits):
    try:
        return solve(A, B, bits)
    except SingularMatrix as exc:
        return str(exc)


@pytest.mark.parametrize("bits", [53, 96, 256, 1024, None],
                         ids=["float53", "float96", "float256", "float1024", "rational"])
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_sparse_elimination_matches_dense_bit_for_bit(bits, data):
    """Skipping exact zeros changes no pivot, no bit of X, no singular column.

    Shrinking is off: a failing draw is reported as drawn, since shrinking
    systems of up to 12 x 25 entries against the dense reference takes
    minutes per precision.
    """
    exact = bits is None
    with mp.workprec(bits or 64):
        A, B = data.draw(sparse_systems(bits))
        want = _solve_or_error(_dense_solve_columns, A, B, bits)
        got = _solve_or_error(solve_columns, A, B, bits)
    if isinstance(want, str):
        assert got == want  # SingularMatrix, same message and column
    elif exact:
        assert got == want
    else:
        assert [[v._mpc_ for v in row] for row in got] == [
            [v._mpc_ for v in row] for row in want
        ]


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
        mpc_class = type(zero)
        original = mpc_class.__mul__
        calls = []

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(mpc_class, "__mul__", counting)
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


@pytest.mark.parametrize("bits", [96, 256, 1024])
@settings(max_examples=60, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_inverse_column_bounds_enclose_the_column_norms(bits, data):
    """Accepted bounds lie in [s_j, (1 + 1e-7) s_j], s_j = sum_i |(A^-1)_ij|^2.

    s_j is taken from solve_columns(A, I) at the working precision, whose
    relative error (below 1e-20 at the conditions the bound accepts) is far
    inside the bound's own slack. Singular and near-singular matrices are
    declined. Shrinking is off, as for the sparse elimination above.
    """
    with mp.workprec(bits):
        kind, A = data.draw(bound_cases(bits))
        got = inverse_column_bounds(A)
        try:
            X = solve_columns(A, identity(len(A), False), bits)
        except SingularMatrix:
            X = None
        if kind != "scaled" or X is None:
            assert got is None
        if got is None:
            return
        for c, col in zip(got, zip(*X)):
            s = norm_sq(col)
            assert s <= c <= s * (1 + mp.mpf(10) ** -7)


@pytest.mark.parametrize("entry,bits", [
    ("1e400", 1024),   # overflows to inf
    ("1e-400", 1024),  # underflows to 0.0
    ("1e-330", 96),    # below the smallest subnormal: rounds to 0.0
    ("1e-310", 96),    # subnormal: rounds with more than a relative u
    ("nan", 96),
])
def test_inverse_column_bounds_decline_entries_doubles_cannot_hold(entry, bits):
    with mp.workprec(bits):
        A = [[mp.mpc(2, 1), mp.mpc(0)], [mp.mpc(1), mp.mpc(3)]]
        assert inverse_column_bounds(tuple(map(tuple, A))) is not None
        for i, j, part in ((0, 0, 0), (1, 0, 1), (1, 1, 0)):
            B = [list(row) for row in A]
            parts = [B[i][j].real, B[i][j].imag]
            parts[part] = mp.mpf(entry)
            B[i][j] = mp.mpc(*parts)
            assert inverse_column_bounds(tuple(map(tuple, B))) is None


def test_inverse_column_bounds_of_a_permuted_diagonal_are_tight():
    """R has one nonzero per row, so each bound exceeds |1/a|^2 by little more
    than the a-priori slack of order n u."""
    perm = [2, 0, 3, 1]
    with mp.workprec(96):
        A = tuple(tuple(mp.mpc(i + 1, 1) if j == perm[i] else mp.mpc(0) for j in range(4))
                  for i in range(4))
        got = inverse_column_bounds(A)
        for i in range(4):
            want = 1 / abs_sq(mp.mpc(i + 1, 1))
            assert want <= got[i] <= want * (1 + mp.mpf(10) ** -13)
