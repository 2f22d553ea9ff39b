"""Differential tests of the elimination kernel, the image bases and
sections read off it, products, determinants and every other matrix
operation against sympy's DomainMatrix, with each result checked to be in
canonical num / den form; of Smith normal form against sympy's over ZZ; and
of the page-2 derivation's slice solve against the full Leibniz system.

sympy and hypothesis are test-only dependencies; the library never imports
them.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st
from sympy import GF as SGF, QQ as SQQ, ZZ as SZZ, Matrix as SMatrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix

from qrtorsion.fields import QQ, GF
from qrtorsion.generate import canonical_form
from qrtorsion.linalg import LinAlgError, Matrix, smith_normal_form
from qrtorsion.models import (ModelError, NO_DERIVATION, Page2Spec,
                              lift_derivation_page2, realize_morse,
                              solve_leibniz_derivation, _checked_derivation,
                              _unimodular)
from qrtorsion.torsion import _det_beside, _image_and_section
from qrtorsion.threefold import ThreefoldHomology, TripleForm

FIELDS = [QQ, GF(5), GF(7)]


def _to_sympy(A):
    F = A.field
    if F.char:
        K = SGF(F.char)
        rows = [[K(int(a)) for a in r] for r in A.rows]
    else:
        K = SQQ
        rows = [[K(a.numerator, a.denominator) for a in r] for r in A.rows]
    return DomainMatrix(rows, (A.nrows, A.ncols), K)


def _from_sympy(D, F):
    M = D.to_Matrix()
    if F.char:
        return [[int(M[i, j]) % F.char for j in range(M.cols)]
                for i in range(M.rows)]
    return [[Fraction(int(M[i, j].p), int(M[i, j].q)) for j in range(M.cols)]
            for i in range(M.rows)]


@st.composite
def matrices(draw, max_dim=6):
    F = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    # sparse-ish small integers; over F_p they are raw, not canonical residues
    ints = st.one_of(st.just(0), st.integers(-40, 40))
    if F.char:
        entry = ints
    else:
        entry = st.builds(Fraction, ints, st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return Matrix(F, rows, m, n)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_rank_kernel_match_sympy(A):
    R, pivots = A.rref()
    SR, spivots = _to_sympy(A).rref()
    assert pivots == list(spivots)
    _check(R, _from_sympy(SR, A.field))
    assert A.rank() == _to_sympy(A).rank()
    K = _check(A.kernel_basis())
    assert (K.nrows, K.ncols) == (A.ncols, A.ncols - len(pivots))
    assert (A * K).is_zero()
    if K.ncols:
        # same kernel: the row spaces of the two bases have one RREF
        assert K.transpose().rref()[0].rows == \
            _from_sympy(_to_sympy(A).nullspace().rref()[0], A.field)
        for j in set(range(A.ncols)) - set(pivots):
            assert sum(K.rows[j]) == 1      # free columns carry a unit


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_matches_sympy(data):
    A = data.draw(matrices())
    b = data.draw(st.lists(st.integers(-40, 40), min_size=A.nrows,
                           max_size=A.nrows))
    F = A.field
    B = Matrix(F, [[F.from_int(x)] for x in b], A.nrows, 1)
    X = A.solve(B)
    want = _sympy_solution(A, B)
    if want is None:
        assert X is None
        return
    _check(X, want)
    assert A * X == B


def _sympy_solution(A, B):
    """The solution of A X = B read off sympy's RREF of [A B] (free
    variables 0), or None when there is none."""
    SR, spivots = _to_sympy(A.hstack(B)).rref()
    n = A.ncols
    if spivots and spivots[-1] >= n:
        return None
    R = _from_sympy(SR, A.field)
    want = [[A.field.zero()] * B.ncols for _ in range(n)]
    for pi, pc in enumerate(spivots):
        want[pc] = R[pi][n:]
    return want


@settings(max_examples=300, deadline=None)
@given(matrices(), st.one_of(st.none(), st.integers(0, 2 ** 16)))
@example(Matrix(QQ, [], 0, 3), None)
@example(Matrix(GF(5), [[], [], []], 3, 0), None)
@example(Matrix(GF(7), [], 0, 4), 1)
@example(Matrix(QQ, [[], []], 2, 0), 2)
def test_image_and_section_match_sympy(d, seed):
    rng = None if seed is None else random.Random(seed)
    B, S, P = _image_and_section(d, rng)
    r = _to_sympy(d).rank()
    assert (B.nrows, B.ncols) == (d.nrows, r)
    assert (S.nrows, S.ncols) == (d.ncols, r)
    assert B.rank() == r
    assert (d * S - B).is_zero()
    if rng is None or r == 0:
        # the solve that the pivot read replaced, kept as the reference
        assert S == d.solve(B)
        # S is the unit columns at the pivots P
        assert P == d.rref()[1] and S == Matrix.identity(d.field,
                                                         d.ncols).cols(P)
    else:
        assert P is None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_det_beside_unit_columns_is_the_complementary_minor(data):
    # det [M | E_P] read off the minor of M outside the rows P, against the
    # whole determinant and sympy's, over Q, F_3, F_7, F_101 and integer
    # matrices over Q; singular M included
    F = data.draw(st.sampled_from([QQ, GF(3), GF(5), GF(7), GF(101), "Z"]))

    def draw(m, n):
        return _field_or_integer_matrix(data, F, m, n)

    n = data.draw(st.integers(0, 8))
    P = sorted(data.draw(st.sets(st.integers(0, n - 1)))) if n else []
    m = n - len(P)
    M = draw(n, m)
    if m and data.draw(st.booleans()):
        M = draw(n, m - 1) * draw(m - 1, m)     # rank below m
    F = M.field
    S = Matrix.identity(F, n).cols(P)
    det = _det_beside(M, S, P)
    _assert_canonical(F, [det])
    whole = M.hstack(S)
    assert det == whole.determinant() == _det_beside(M, S, None)
    if n:
        W = _to_sympy(whole)
        assert det == _sympy_scalar(W.domain, F, W.det())
    else:
        assert det == F.one()


def _forward_case(data):
    """A matrix over Q (denominators up to 6), F_3, F_5, F_7, F_101 or an
    integer matrix over Q, of shape m x n with m, n in 0..8; sometimes a
    product through a narrower middle (rank deficient), a zeroed column, or
    a zeroed leading entry (so the first pivot needs a row swap)."""
    F = data.draw(st.sampled_from([QQ, GF(3), GF(5), GF(7), GF(101), "Z"]))

    def draw(m, n):
        return _field_or_integer_matrix(data, F, m, n)

    m, n = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    A = draw(m, n)
    if m and n and data.draw(st.booleans()):
        A = draw(m, n - 1) * draw(n - 1, n)     # rank below n
    rows = A.rows
    if n and data.draw(st.booleans()):
        j = data.draw(st.integers(0, n - 1))
        for r in rows:
            r[j] = A.field.zero()
    if m and n and data.draw(st.booleans()):
        rows[0][0] = A.field.zero()
    return Matrix(A.field, rows, m, n) if F != "Z" else \
        Matrix.from_int_rows(QQ, [[int(x) for x in r] for r in rows], m, n)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_forward_pass_matches_sympy_and_rref(data):
    A = _forward_case(data)
    F = A.field
    before = [list(r) for r in A.num]
    rows, _, pivots, det = A._eliminate(reduce=False)
    S = _to_sympy(A)
    assert pivots == A.rref()[1] == list(S.rref()[1])
    assert A.rank() == len(pivots) == S.rank()
    # an echelon form: row i is zero left of pivot i, and rows past the
    # rank are zero
    for i, r in enumerate(rows):
        lead = pivots[i] if i < len(pivots) else A.ncols
        assert not any(r[:lead]) and (lead == A.ncols or r[lead])
    if A.nrows == A.ncols:
        assert det == A._eliminate()[3]
        d = A.determinant()
        _assert_canonical(F, [d])
        assert d == (_sympy_scalar(S.domain, F, S.det()) if A.nrows
                     else F.one())
    # neither pass writes num
    assert A.num == before
    _check_kept_pass(A, S)


# the reads off a matrix's kept forward pass; det is None off square shapes
KEPT_READS = {
    "rank": Matrix.rank,
    "det": lambda A: A.determinant() if A.nrows == A.ncols else None,
    "pivots": lambda A: _image_and_section(A)[2],
}


def _check_kept_pass(A, S):
    """rank, determinant and the pivots of _image_and_section, read from
    one object in either order, equal sympy's (S is A over sympy) and the
    same read from a fresh equal matrix; the first read runs the pass, the
    later ones read it, and a non-square determinant still raises."""
    F = A.field

    def fresh():
        return Matrix._make(F, [list(r) for r in A.num], A.den, A.nrows,
                            A.ncols)

    expected = {"rank": S.rank(), "pivots": list(S.rref()[1]), "det": None}
    if A.nrows == A.ncols:
        expected["det"] = (_sympy_scalar(S.domain, F, S.det()) if A.nrows
                           else F.one())
    for order in (("rank", "det", "pivots"), ("pivots", "det", "rank")):
        B = fresh()
        assert B._pass is None
        got = {}
        for name in order:
            got[name] = KEPT_READS[name](B)
            if name == order[0]:
                kept = B._pass
            assert B._pass is kept is not None
        assert got == expected
        assert got == {name: read(fresh()) for name, read in KEPT_READS.items()}
    if A.nrows != A.ncols:
        for B in (fresh(), A):  # without, and with, a kept pass
            with pytest.raises(LinAlgError,
                               match="^determinant of non-square matrix$"):
                B.determinant()


@pytest.mark.parametrize("F", FIELDS, ids=repr)
@pytest.mark.parametrize("m, n", list(product((0, 1, 3), repeat=2)))
def test_kept_pass_of_empty_matrices(F, m, n):
    # all-zero matrices, empty or not: the kept pass skips the sweep, and
    # must read what the sweep returns
    A = Matrix.zeros(F, m, n)
    _check_kept_pass(A, _to_sympy(A))
    _, _, pivots, det = A._eliminate(reduce=False)
    assert A.rank() == len(pivots) == 0
    if m == n:
        assert A.determinant() == (det if F.char else Fraction(det)) \
            == (F.one() if m == 0 else F.zero())
    B, S, P = _image_and_section(A)
    assert P == pivots and (B.nrows, B.ncols, S.nrows, S.ncols) == (m, 0, n, 0)


@pytest.mark.parametrize("F", [QQ, GF(3), GF(7), GF(101)], ids=repr)
def test_forward_pass_swaps_rows_and_skips_zero_columns(F):
    # the pivots of columns 0 and 1 are found by a swap each: det = 2
    A = Matrix.from_int_rows(F, [[0, 1, 2], [0, 0, 2], [1, 4, 5]])
    assert A._eliminate(reduce=False)[2:] == ([0, 1, 2], F.from_int(2))
    assert A.determinant() == F.from_int(2) and A.rank() == 3
    # a zero column, a swap at column 1, and row 2 = 2 row 1 + row 0
    B = Matrix.from_int_rows(F, [[0, 0, 1, 2], [0, 2, 1, 1], [0, 4, 3, 4]])
    rows, _, pivots, det = B._eliminate(reduce=False)
    assert pivots == B.rref()[1] == [1, 2] and det == 0 and B.rank() == 2
    assert not any(rows[2])


def _field_or_integer_matrix(data, F, m, n):
    """_matrix over the field F, or for F = "Z" an integer matrix over Q
    (den 1) with entries in -9..9."""
    if F != "Z":
        return _matrix(data.draw, F, m, n)
    ints = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return Matrix.from_int_rows(QQ, data.draw(
        st.lists(ints, min_size=m, max_size=m)), m, n)


def _matrix(draw, F, m, n):
    """Raw small integers over F_p (not canonical residues); over Q small
    fractions mixed with plain ints."""
    ints = st.one_of(st.just(0), st.integers(-40, 40))
    entry = ints if F.char else st.one_of(
        st.builds(Fraction, ints, st.integers(1, 6)), ints)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return Matrix(F, rows, m, n)


def _assert_canonical(F, values):
    for x in values:
        if F.char:
            assert type(x) is int and 0 <= x < F.char
        else:
            assert type(x) is Fraction


def _check(M, want=None):
    """M is canonical (den > 0 and gcd(den, num) = 1 over Q; den 1 and
    residues over F_p), its read view holds field values (Fractions over Q)
    and is a fresh copy, and it equals want entry by entry when given."""
    F = M.field
    assert len(M.num) == M.nrows and all(len(r) == M.ncols for r in M.num)
    assert all(type(x) is int for r in M.num for x in r)
    if F.char:
        assert M.den == 1
        assert all(0 <= x < F.char for r in M.num for x in r)
    else:
        assert type(M.den) is int and M.den > 0
        assert gcd(M.den, *(x for r in M.num for x in r)) == 1
    rows = M.rows
    _assert_canonical(F, [x for r in rows for x in r])
    if want is not None:
        assert rows == want
    view = M.rows
    for r in view:
        r[:] = [F.one()] * len(r)
    view.append(None)
    assert M.rows == rows
    return M


def _sympy_scalar(K, F, x):
    x = K.to_sympy(x)
    if F.char:
        return int(x) % F.char
    return Fraction(int(x.p), int(x.q))


def _sympy_product(A, B):
    F = A.field
    if not (A.nrows and A.ncols and B.ncols):
        return [[F.zero()] * B.ncols for _ in range(A.nrows)]
    return _from_sympy(_to_sympy(A).matmul(_to_sympy(B)), F)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matmul_matches_sympy(data):
    F = data.draw(st.sampled_from(FIELDS))
    m, k, n = (data.draw(st.integers(0, 6)) for _ in range(3))
    A, B = _matrix(data.draw, F, m, k), _matrix(data.draw, F, k, n)
    P = A * B
    assert (P.nrows, P.ncols) == (m, n)
    _check(P, _sympy_product(A, B))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
@pytest.mark.parametrize("m,k,n", [(0, 3, 0), (3, 0, 2), (0, 0, 0), (2, 0, 0)])
def test_matmul_through_empty_dimensions(F, m, k, n):
    A = Matrix(F, [[F.from_int(i + j + 1) for j in range(k)]
                   for i in range(m)], m, k)
    B = Matrix(F, [[F.from_int(i - j) for j in range(n)]
                   for i in range(k)], k, n)
    P = A * B
    assert (P.nrows, P.ncols) == (m, n)
    assert _check(P) == Matrix.zeros(F, m, n)


# -- the product kernel on the operands chain-level maps are ----------------

# None draws integer matrices: Matrix over Q at denominator 1
PRODUCT_FIELDS = [QQ, GF(3), GF(7), GF(101), None]


def _sparse_row(draw, F, k):
    """A zero row, a row with one nonzero entry (1, -1, another nonzero
    integer or, over Q, a non-integer fraction), or a row of small
    entries."""
    row = [0] * k
    kind = draw(st.sampled_from(["zero", "one", "dense"]))
    if not k or kind == "zero":
        return row
    nonzero = st.integers(-40, 40).filter(bool)
    if kind == "one":
        scalars = [st.just(1), st.just(-1), nonzero]
        if F is QQ:
            scalars.append(st.builds(Fraction, nonzero, st.integers(2, 6))
                           .filter(lambda x: x.denominator > 1))
        row[draw(st.integers(0, k - 1))] = draw(st.one_of(scalars))
        return row
    entry = st.one_of(st.just(0), st.integers(-40, 40))
    if F is QQ:
        entry = st.one_of(entry, st.builds(Fraction, entry, st.integers(1, 6)))
    return [draw(entry) for _ in range(k)]


def _operand(draw, F, m, k):
    """An m x k zero matrix, the m x m identity, or m x k rows of
    :func:`_sparse_row`; an integer matrix (``from_int_rows`` over Q) when F
    is None."""
    kind = draw(st.sampled_from(["zero", "identity", "rows"]))
    if kind == "zero":
        rows = [[0] * k for _ in range(m)]
    elif kind == "identity":
        k = m
        rows = [[int(i == j) for j in range(m)] for i in range(m)]
    else:
        rows = [_sparse_row(draw, F, k) for _ in range(m)]
    if F is None:
        return Matrix.from_int_rows(QQ, rows, m, k)
    return Matrix(F, rows, m, k)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_product_kernel_matches_sympy_on_sparse_operands(data):
    F = data.draw(st.sampled_from(PRODUCT_FIELDS), label="field")
    m, k, n = (data.draw(st.integers(0, 6)) for _ in range(3))
    A = _operand(data.draw, F, m, k)
    B = _operand(data.draw, F, A.ncols, n)
    m, k, n = A.nrows, A.ncols, B.ncols
    P = A * B
    assert (P.nrows, P.ncols) == (m, n)
    if F is not None:
        _check(P, _sympy_product(A, B))
        return
    assert A.den == B.den == P.den == 1
    S = (SMatrix(m, k, [x for r in A.num for x in r])
         * SMatrix(k, n, [x for r in B.num for x in r]))
    assert P.num == [[int(S[i, j]) for j in range(n)] for i in range(m)]
    assert all(type(x) is int for r in P.num for x in r)
    # every row of the product is fresh: writing it changes no operand
    before = ([list(r) for r in A.num], [list(r) for r in B.num])
    for r in P.num:
        r[:] = [x + 1 for x in r]
    assert (A.num, B.num) == before


@pytest.mark.parametrize("m,k,n", [(0, 3, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0),
                                   (0, 0, 0), (2, 0, 0)])
def test_integer_product_through_empty_dimensions(m, k, n):
    A = Matrix.from_int_rows(QQ, [[i + j + 1 for j in range(k)]
                                  for i in range(m)], m, k)
    B = Matrix.from_int_rows(QQ, [[i - j for j in range(n)]
                                  for i in range(k)], k, n)
    P = A * B
    assert P == Matrix.zeros(QQ, m, n)
    assert (P.nrows, P.ncols) == (m, n) and len(P.num) == m


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_determinant_matches_sympy(data):
    F = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(0, 6))
    A = _matrix(data.draw, F, n, n)
    det = A.determinant()
    _assert_canonical(F, [det])
    if n == 0:
        assert det == F.one()
        return
    S = _to_sympy(A)
    assert det == _sympy_scalar(S.domain, F, S.det())


def test_non_canonical_residues_and_plain_ints():
    F = GF(7)
    A = Matrix(F, [[9, -1], [15, 22]], 2, 2)
    assert (A * A).rows == [[3, 4], [3, 0]]
    assert A.determinant() == 3
    A = Matrix(QQ, [[1, Fraction(1, 2)], [3, 4]], 2, 2)
    assert (A * A).rows == [[Fraction(5, 2), Fraction(5, 2)],
                            [Fraction(15), Fraction(35, 2)]]
    assert A.determinant() == Fraction(5, 2)
    _assert_canonical(QQ, [x for r in (A * A).rows for x in r] +
                      [A.determinant()])
    # plain ints over Q, with a zero row the elimination never touches
    A = Matrix(QQ, [[2, 1, 0], [0, 0, 0], [4, 3, 1]], 3, 3)
    R, _ = A.rref()
    X = A.solve(Matrix(QQ, [[1], [0], [5]], 3, 1))
    Y = Matrix(QQ, [[1, 2], [3, 4]], 2, 2).inverse()
    assert R.rows == [[1, 0, Fraction(-1, 2)], [0, 1, 1], [0, 0, 0]]
    assert X.rows == [[-1], [3], [0]]
    assert Y.rows == [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]]
    for M in (R, X, A.kernel_basis(), Y):
        _check(M)


def _low_rank(draw, F, m, k, n):
    """An m x n product of an m x k and a k x n matrix, so rank <= k."""
    return _matrix(draw, F, m, k) * _matrix(draw, F, k, n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_elimination_matches_sympy_on_large_low_rank_products(data):
    # large enough that the fraction-free pass over Q grows its integers
    F = data.draw(st.sampled_from(FIELDS))
    m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 16))
    A = _low_rank(data.draw, F, m, data.draw(st.integers(0, min(m, n))), n)
    S = _to_sympy(A)
    R, pivots = A.rref()
    SR, spivots = S.rref()
    assert pivots == list(spivots)
    _check(R, _from_sympy(SR, F))
    K = _check(A.kernel_basis())
    assert (K.nrows, K.ncols) == (n, n - len(pivots))
    assert (A * K).is_zero()
    if K.ncols:
        assert K.transpose().rref()[0].rows == \
            _from_sympy(S.nullspace().rref()[0], F)
    consistent = A * _matrix(data.draw, F, n, 2)
    for B in (consistent, _matrix(data.draw, F, m, 2)):
        X = A.solve(B)
        want = _sympy_solution(A, B)
        assert (X is None) == (want is None)
        if X is not None:
            _check(X, want)
            assert (A * X - B).is_zero()
    assert A.solve(consistent) is not None
    s = data.draw(st.integers(1, 12))
    for k in (s, data.draw(st.integers(0, s - 1))):
        # generic (usually nonsingular), then singular
        D = _low_rank(data.draw, F, s, k, s)
        det = D.determinant()
        _assert_canonical(F, [det])
        S = _to_sympy(D)
        assert det == _sympy_scalar(S.domain, F, S.det())
        assert (det == 0) == (len(D.rref()[1]) < s)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_smith_normal_form_matches_sympy(data):
    m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-40, 40))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=m, max_size=m))
    A = Matrix.from_int_rows(QQ, rows, m, n)
    s = smith_normal_form(A)
    # the pass ran on a copy, and its results are integer matrices
    assert A.num == rows
    assert {M.den for M in (s.Uinv, s.D, s.V, s.Vinv)} <= {1}
    assert A * s.V == s.Uinv * s.D
    assert all(s.D.num[i][j] == 0 for i in range(m) for j in range(n)
               if i != j)
    assert abs(s.Uinv.to_field(QQ).determinant()) == 1
    assert s.V * s.Vinv == Matrix.identity(QQ, n)
    if not (m and n):
        assert s.diagonal == []
        return
    S = sympy_snf(SMatrix(rows), domain=SZZ)
    assert s.diagonal == [abs(int(S[i, i])) for i in range(min(m, n))]


def _smith_as_first_written(rows, m, n):
    """(Uinv, D, V, Vinv) of the Smith pass as first written, kept as the
    reference: a full scan for each pivot, a full divisibility scan under
    every pivot, and all four matrices updated entry by entry."""
    D = [list(r) for r in rows]
    U, V, W = ([[int(i == j) for j in range(k)] for i in range(k)]
               for k in (m, n, n))

    def row_op(i, j, q):
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        for r in U:
            r[j] += q * r[i]

    def col_op(i, j, q):
        for M in (D, V):
            for r in M:
                r[i] -= q * r[j]
        W[j] = [a + q * b for a, b in zip(W[j], W[i])]

    for t in range(min(m, n)):
        while True:
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if D[i][j] and (best is None or
                                    abs(D[i][j]) < abs(D[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return U, D, V, W
            bi, bj = best
            D[t], D[bi] = D[bi], D[t]
            for r in U:
                r[t], r[bi] = r[bi], r[t]
            for M in (D, V):
                for r in M:
                    r[t], r[bj] = r[bj], r[t]
            W[t], W[bj] = W[bj], W[t]
            p = D[t][t]
            for i in range(t + 1, m):
                if D[i][t]:
                    row_op(i, t, D[i][t] // p)
            for j in range(t + 1, n):
                if D[t][j]:
                    col_op(j, t, D[t][j] // p)
            if any(D[i][t] for i in range(t + 1, m)) or any(D[t][t + 1:]):
                continue
            bad = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                        if D[i][j] % p), None)
            if bad is None:
                break
            row_op(t, bad, -1)
        if D[t][t] < 0:
            D[t] = [-a for a in D[t]]
            for r in U:
                r[t] = -r[t]
    return U, D, V, W


@st.composite
def smith_inputs(draw):
    """(rows, m, n) of an integer matrix, 0 x n and n x 0 included: units,
    negative entries and factors that need not divide each other, with a
    zero block at the bottom right half of the time."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.sampled_from([1, -1, 2, -3, 4, 6, -9]),
                      st.integers(-40, 40))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, m)), draw(st.integers(0, n))
        for r in rows[i:]:
            r[j:] = [0] * (n - j)
    return rows, m, n


@settings(max_examples=300, deadline=None)
@given(smith_inputs())
@example(([], 0, 3))
@example(([[], []], 2, 0))
@example(([[2, 0], [0, 3]], 2, 2))       # no pivot divides the other
@example(([[0, -4], [6, 0]], 2, 2))      # a negative pivot
@example(([[-1, 2], [3, -1]], 2, 2))     # two -1 pivots
def test_smith_normal_form_matches_the_pass_as_first_written(data):
    rows, m, n = data
    A = Matrix.from_int_rows(QQ, rows, m, n)
    s = smith_normal_form(A)
    # the pass is the pass as first written, operation for operation
    want = _smith_as_first_written(rows, m, n)
    assert [M.num for M in (s.Uinv, s.D, s.V, s.Vinv)] == \
        [list(M) for M in want]
    assert A.num == rows


# -- the representation: integer rows over one denominator -------------------

def _scalar(draw, F):
    ints = st.one_of(st.just(0), st.integers(-40, 40))
    if F.char:
        return draw(ints)
    return draw(st.builds(Fraction, ints, st.integers(1, 6)))


def _to_sympy_scalar(K, F, c):
    return K(int(c)) if F.char else K(c.numerator, c.denominator)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_other_operations_match_sympy_and_are_canonical(data):
    # products, rref, kernel_basis, solve and determinant are checked above
    draw = data.draw
    F = draw(st.sampled_from(FIELDS))
    m, n, k = (draw(st.integers(0, 5)) for _ in range(3))
    A, B = _check(_matrix(draw, F, m, n)), _check(_matrix(draw, F, m, n))
    SA, SB = _to_sympy(A), _to_sympy(B)
    K = SA.domain
    _check(A + B, _from_sympy(SA + SB, F))
    _check(A - B, _from_sympy(SA - SB, F))
    _check(-A, _from_sympy(SA.neg(), F))
    c = _scalar(draw, F)
    _check(A.scale(c), _from_sympy(SA * _to_sympy_scalar(K, F, c), F))
    _check(A.transpose(), _from_sympy(SA.transpose(), F))
    js = draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []
    ris = draw(st.lists(st.integers(0, m - 1), max_size=6)) if m else []
    _check(A.cols(js), _from_sympy(SA.extract(list(range(m)), js), F))
    _check(A.submatrix(ris, js), _from_sympy(SA.extract(ris, js), F))
    D = _matrix(draw, F, m, k)
    _check(A.hstack(D, B), _from_sympy(SA.hstack(_to_sympy(D), SB), F))
    # a 2 x 2 block grid with a zero block
    G = _matrix(draw, F, k, n)
    grid = [[A, D], [G, None]]
    Z = DomainMatrix.zeros((k, k), K)
    want = SA.hstack(_to_sympy(D)).vstack(_to_sympy(G).hstack(Z))
    _check(Matrix.block(F, grid, [m, k], [n, k]), _from_sympy(want, F))
    S = _matrix(draw, F, m, m)
    if F.is_zero(S.determinant()):
        with pytest.raises(LinAlgError):
            S.inverse()
    else:
        _check(S.inverse(), _from_sympy(_to_sympy(S).inv(), F))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equality_is_entrywise(data):
    draw = data.draw
    F = draw(st.sampled_from(FIELDS))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    A = _matrix(draw, F, m, n)
    # small entries, so that equal pairs turn up often
    B = Matrix(F, draw(st.lists(st.lists(
        st.sampled_from([0, 1, -1, Fraction(1, 2)] if not F.char else
                        [0, 1, -1, F.char + 1]),
        min_size=n, max_size=n), min_size=m, max_size=m)), m, n)
    assert (A == B) == (A.rows == B.rows)
    assert A == Matrix(F, A.rows, m, n) == A + Matrix.zeros(F, m, n)
    two = F.from_int(2)
    assert A.scale(two).scale(F.inv(two)) == A
    assert (A == A.scale(two)) == A.is_zero()
    assert A != Matrix.zeros(F, m + 1, n)


def test_representation_of_mixed_denominators():
    A = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [2, Fraction(5, 6)]])
    assert (A.num, A.den) == ([[3, 2], [12, 5]], 6)
    B = A + Matrix(QQ, [[Fraction(1, 2), Fraction(2, 3)], [-2, Fraction(1, 6)]])
    assert (B.num, B.den) == ([[1, 1], [0, 1]], 1)
    assert B == Matrix.from_int_rows(QQ, [[1, 1], [0, 1]])
    assert A.cols([1]).den == 6 and A.submatrix([1], [0]).den == 1
    assert (-A).den == 6 and A.scale(Fraction(-6)).den == 1
    P = Matrix(GF(7), [[9, -1], [15, 22]])
    assert (P.num, P.den) == ([[2, 6], [1, 1]], 1)
    assert all(type(x) is Fraction for r in B.rows for x in r)


# -- the slice solve against the full Leibniz system -------------------------

def _full_leibniz_rows(I, r, F):
    """The system with the degree-2 product family, as it was first built:
    rows (i, j, k) of the pairing family, then for each (i, j) the product
    rows (i, j, m), then antisymmetry and c r = 0."""
    b = I.b
    rF = [F.from_int(x) for x in r]
    delta = lambda a, c: F.one() if a == c else F.zero()
    rows, rhs = [], []
    for i in range(1, b + 1):
        for j in range(1, b + 1):
            for k in range(1, b + 1):
                row = [F.zero()] * (b * b)
                for m in range(1, b + 1):
                    row[(m - 1) * b + (j - 1)] = F.from_int(I.value(i, m, k))
                rows.append(row)
                rhs.append(F.sub(F.mul(rF[i - 1], delta(j, k)),
                                 F.mul(delta(i, j), rF[k - 1])))
            for m in range(1, b + 1):
                row = [F.zero()] * (b * b)
                for k in range(1, b + 1):
                    row[(m - 1) * b + (k - 1)] = F.from_int(I.value(i, j, k))
                rows.append(row)
                rhs.append(F.sub(F.mul(rF[i - 1], delta(j, m)),
                                 F.mul(rF[j - 1], delta(i, m))))
    for i in range(b):
        for j in range(b):
            row = [F.zero()] * (b * b)
            row[i * b + j] = F.one()
            row[j * b + i] = F.add(row[j * b + i], F.one())
            rows.append(row)
            rhs.append(F.zero())
        row = [F.zero()] * (b * b)
        for j in range(b):
            row[i * b + j] = rF[j]
        rows.append(row)
        rhs.append(F.zero())
    return rows, rhs


def _slice_derivation(I, r, F):
    """The derivation the lift accepts: the slice solve once it passes
    _checked_derivation, else None."""
    c = solve_leibniz_derivation(I, r, F)
    try:
        return None if c is None else _checked_derivation(I, r, c)
    except ModelError:
        return None


def _check_same_solution(I, r, F):
    """The slice solve accepts what the full system solves, and only that;
    returns the full system's solution."""
    b = I.b
    rows, rhs = _full_leibniz_rows(I, r, F)
    x = Matrix(F, rows, len(rows), b * b).solve(Matrix(F, [[v] for v in rhs]))
    full = None if x is None else Matrix(
        F, [[x.rows[i * b + j][0] for j in range(b)] for i in range(b)], b, b)
    assert _slice_derivation(I, r, F) == full
    return full


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=repr)
@pytest.mark.parametrize("b", [3, 5, 7])
def test_leibniz_system_matches_full_system_on_transported_forms(b, F):
    rng = random.Random(100 + b)
    for _ in range(2):
        U = _unimodular(rng, b)
        I = canonical_form(b).apply_unimodular(U)
        r = list(U[0])  # U^T e_1
        assert _check_same_solution(I, r, F) is not None


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=repr)
def test_leibniz_system_matches_full_system_on_random_forms(F):
    rng = random.Random(4)
    found = 0
    for b in (1, 3, 4, 5):
        for _ in range(8):
            I = TripleForm(b)
            for i in range(1, b + 1):
                for j in range(i + 1, b + 1):
                    for k in range(j + 1, b + 1):
                        I.set(i, j, k, rng.choice([0, 0, 1, -1, 2, 3]))
            r = [rng.randint(-3, 3) for _ in range(b)]
            if all(F.is_zero(F.from_int(x)) for x in r):
                # the solve needs a rate that is nonzero over the field
                with pytest.raises(ModelError):
                    solve_leibniz_derivation(I, r, F)
                continue
            found += _check_same_solution(I, r, F) is not None
    assert found


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=repr)
def test_slice_solve_is_checked_against_the_full_system(F):
    # the slice system at e_3 has a solution but the full system has none,
    # so only the check after the solve keeps the lift from using it
    b = 5
    I = TripleForm(b, {(1, 3, 4): 1, (2, 3, 5): 1})
    r = [0, 0, -1, -1, 0]
    assert solve_leibniz_derivation(I, r, F) is not None
    assert _check_same_solution(I, r, F) is None
    H = ThreefoldHomology(b)
    with pytest.raises(ModelError) as err:
        lift_derivation_page2(Page2Spec(H, I, r), realize_morse(H, seed=1), F)
    assert str(err.value) == \
        NO_DERIVATION + ": the slice solution fails the duality pairing"
