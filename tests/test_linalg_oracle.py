"""Differential tests of the elimination kernel, the image bases and
sections read off it, products and determinants against sympy's
DomainMatrix, of Smith normal form against sympy's over ZZ, and of the page-2
Leibniz system against the full system it replaced.

sympy and hypothesis are test-only dependencies; the library never imports
them.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st
from sympy import GF as SGF, QQ as SQQ, ZZ as SZZ, Matrix as SMatrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix

from qrtorsion.fields import QQ, GF
from qrtorsion.generate import canonical_form
from qrtorsion.linalg import IntegerMatrix, Matrix, smith_normal_form
from qrtorsion.models import _leibniz_system, _unimodular
from qrtorsion.torsion import _image_and_section
from qrtorsion.threefold import TripleForm

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
    assert R.rows == _from_sympy(SR, A.field)
    assert A.rank() == _to_sympy(A).rank()
    K = A.kernel_basis()
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
    SR, spivots = _to_sympy(A.hstack(B)).rref()
    X = A.solve(B)
    if spivots and spivots[-1] == A.ncols:
        assert X is None
        return
    R = _from_sympy(SR, F)
    want = [[F.zero()] for _ in range(A.ncols)]
    for pi, pc in enumerate(spivots):
        want[pc] = [R[pi][A.ncols]]
    assert X.rows == want
    assert A * X == B


@settings(max_examples=300, deadline=None)
@given(matrices(), st.one_of(st.none(), st.integers(0, 2 ** 16)))
@example(Matrix(QQ, [], 0, 3), None)
@example(Matrix(GF(5), [[], [], []], 3, 0), None)
@example(Matrix(GF(7), [], 0, 4), 1)
@example(Matrix(QQ, [[], []], 2, 0), 2)
def test_image_and_section_match_sympy(d, seed):
    rng = None if seed is None else random.Random(seed)
    B, S = _image_and_section(d, rng)
    r = _to_sympy(d).rank()
    assert (B.nrows, B.ncols) == (d.nrows, r)
    assert (S.nrows, S.ncols) == (d.ncols, r)
    assert B.rank() == r
    assert (d * S - B).is_zero()
    if rng is None:
        # the solve that the pivot read replaced, kept as the reference
        assert S == d.solve(B)


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
    assert P.rows == _sympy_product(A, B)
    _assert_canonical(F, [x for r in P.rows for x in r])


@pytest.mark.parametrize("F", FIELDS, ids=repr)
@pytest.mark.parametrize("m,k,n", [(0, 3, 0), (3, 0, 2), (0, 0, 0), (2, 0, 0)])
def test_matmul_through_empty_dimensions(F, m, k, n):
    A = Matrix(F, [[F.from_int(i + j + 1) for j in range(k)]
                   for i in range(m)], m, k)
    B = Matrix(F, [[F.from_int(i - j) for j in range(n)]
                   for i in range(k)], k, n)
    P = A * B
    assert (P.nrows, P.ncols) == (m, n)
    assert P == Matrix.zeros(F, m, n)
    _assert_canonical(F, [x for r in P.rows for x in r])


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_smith_normal_form_matches_sympy(data):
    m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-40, 40))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=m, max_size=m))
    A = IntegerMatrix(rows, m, n)
    s = smith_normal_form(A)
    assert s.U * A * s.V == s.D
    assert all(s.D.rows[i][j] == 0 for i in range(m) for j in range(n)
               if i != j)
    assert s.U * s.Uinv == IntegerMatrix.identity(m)
    assert s.V * s.Vinv == IntegerMatrix.identity(n)
    if not (m and n):
        assert s.diagonal == []
        return
    S = sympy_snf(SMatrix(rows), domain=SZZ)
    assert s.diagonal == [abs(int(S[i, i])) for i in range(min(m, n))]


# -- the Leibniz system against the full one ---------------------------------

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


def _nonzero_rref(rows, rhs, F):
    aug = Matrix(F, [row + [x] for row, x in zip(rows, rhs)])
    R, pivots = aug.rref()
    return R.rows[:len(pivots)], pivots


def _check_same_system(I, r, F):
    b = I.b
    M, rhs = _leibniz_system(I, r, F)
    assert M.nrows == rhs.nrows == b ** 3 + b * b + b
    old_rows, old_rhs = _full_leibniz_rows(I, r, F)
    assert _nonzero_rref(M.rows, [x for x, in rhs.rows], F) == \
        _nonzero_rref(old_rows, old_rhs, F)
    old = Matrix(F, old_rows, len(old_rows), b * b)
    assert M.solve(rhs) == old.solve(Matrix(F, [[x] for x in old_rhs]))


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=repr)
@pytest.mark.parametrize("b", [3, 5, 7])
def test_leibniz_system_matches_full_system_on_transported_forms(b, F):
    rng = random.Random(100 + b)
    for _ in range(2):
        U = _unimodular(rng, b)
        I = canonical_form(b).apply_unimodular(U)
        r = list(U[0])  # U^T e_1
        _check_same_system(I, r, F)


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=repr)
def test_leibniz_system_matches_full_system_on_random_forms(F):
    rng = random.Random(4)
    for b in (3, 4, 5):
        for _ in range(4):
            I = TripleForm(b)
            for i in range(1, b + 1):
                for j in range(i + 1, b + 1):
                    for k in range(j + 1, b + 1):
                        I.set(i, j, k, rng.choice([0, 0, 1, -1, 2, 3]))
            r = [rng.randint(-3, 3) for _ in range(b)]
            _check_same_system(I, r, F)
            # a zero rate keeps the system feasible, with a nonzero kernel
            _check_same_system(I, [0] * b, F)
