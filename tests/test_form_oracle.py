"""Oracle tests of the triple form's expansions: apply_unimodular,
contract and slice_matrix against brute-force sums of ``value`` over every
index triple, and symplectic_slice against sympy's determinant of the
complement minor, on random sparse forms with b <= 7.

hypothesis and sympy are test-only dependencies; the library never imports
them.
"""

import random
from itertools import combinations, product

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st

from qrtorsion.fields import QQ, GF
from qrtorsion.linalg import Matrix
from qrtorsion.models import _unimodular
from qrtorsion.threefold import TripleForm, symplectic_slice

FIELDS = [QQ, GF(5), GF(7)]


@st.composite
def sparse_forms(draw, max_b=7):
    """A form set on shuffled index triples, so set() has signs to sort."""
    b = draw(st.integers(0, max_b))
    I = TripleForm(b)
    triples = list(combinations(range(1, b + 1), 3))
    if triples:
        for t in draw(st.lists(st.sampled_from(triples), max_size=6)):
            I.set(*draw(st.permutations(t)), draw(st.integers(-4, 4)))
    return I


@settings(max_examples=60, deadline=None)
@given(sparse_forms(), st.integers(0, 2 ** 32 - 1))
def test_apply_unimodular_matches_brute_force(I, seed):
    b = I.b
    U = _unimodular(random.Random(seed), b)
    expected = {}
    for i, j, k in combinations(range(1, b + 1), 3):
        s = sum(I.value(x, y, z) * U[x - 1][i - 1] * U[y - 1][j - 1]
                * U[z - 1][k - 1]
                for x, y, z in product(range(1, b + 1), repeat=3))
        if s:
            expected[i, j, k] = s
    assert I.apply_unimodular(U).coeffs == expected


@settings(max_examples=60, deadline=None)
@given(sparse_forms(), st.integers(1, 3), st.data())
def test_contract_matches_brute_force(I, n, data):
    b = I.b
    W = [data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
         for _ in range(b)]
    expected = [[[sum(W[x][t] * I.value(x + 1, y + 1, z + 1)
                      for x in range(b)) if y < z else 0 for t in range(n)]
                 for z in range(b)] for y in range(b)]
    assert I.contract(W) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), sparse_forms(), st.data())
def test_slice_matrix_matches_brute_force(F, I, data):
    b = I.b
    v = [F.div(F.from_int(data.draw(st.integers(-9, 9))),
               F.from_int(data.draw(st.integers(1, 4)))) for _ in range(b)]
    rows = [[F.zero()] * b for _ in range(b)]
    for j, k in product(range(b), repeat=2):
        for i in range(b):
            rows[j][k] = F.add(rows[j][k], F.mul(
                v[i], F.from_int(I.value(i + 1, j + 1, k + 1))))
    assert I.slice_matrix(v, F) == Matrix(F, rows, b, b)


@st.composite
def odd_forms(draw):
    """A form of odd rank with up to 14 coefficients, so that a good share
    of its slices is nondegenerate."""
    b = draw(st.sampled_from([3, 5, 7]))
    triples = list(combinations(range(1, b + 1), 3))
    return TripleForm(b, {t: draw(st.integers(-4, 4)) for t in
                          draw(st.lists(st.sampled_from(triples),
                                        max_size=14, unique=True))})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.one_of(sparse_forms(), odd_forms()),
       st.data())
def test_symplectic_slice_matches_sympy_minor(F, I, data):
    # over Q, v has denominators up to 4; over F_p its entries are the
    # residues of the same fractions
    b = I.b
    nums = [data.draw(st.integers(-9, 9)) for _ in range(b)]
    dens = [data.draw(st.integers(1, 4)) for _ in range(b)]
    if b == 0 or all(F.is_zero(F.from_int(n)) for n in nums):
        return
    v = [F.div(F.from_int(n), F.from_int(d)) for n, d in zip(nums, dens)]
    pivot = next(i for i, x in enumerate(v) if not F.is_zero(x))
    keep = [i for i in range(b) if i != pivot]
    minor = sympy.Matrix(len(keep), len(keep), lambda j, k: sum(
        sympy.Rational(n, d) * I.value(i + 1, keep[j] + 1, keep[k] + 1)
        for i, (n, d) in enumerate(zip(nums, dens))))
    det = minor.det()
    if F.char:
        p = F.char
        det = det.p * pow(det.q, -1, p) % p
        expected = None if det == 0 else det
    else:
        expected = None if det == 0 else F.parse(str(det))
    assert symplectic_slice(I, v, F) == expected
