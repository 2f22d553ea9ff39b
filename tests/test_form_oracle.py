"""Oracle tests of the triple form's expansions: apply_unimodular and
slice_matrix against brute-force sums of ``value`` over every index triple,
on random sparse forms with b <= 7.

hypothesis is a test-only dependency; the library never imports it.
"""

import random
from itertools import combinations, product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qrtorsion.fields import QQ, GF
from qrtorsion.linalg import Matrix
from qrtorsion.models import _unimodular
from qrtorsion.threefold import TripleForm

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
