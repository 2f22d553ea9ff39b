"""Oracle test of the page-3 pairing's invariants: q_form reads det Q and
antisymmetry of Q = r A^{-1} off A, and sympy builds Q itself, over Q, F_5
and F_101, on random invertible A (antisymmetric and not) and r != 0.

sympy and hypothesis are test-only dependencies; the library never imports
them.
"""

from fractions import Fraction

import pytest

pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st
from sympy import GF as SGF, QQ as SQQ
from sympy.polys.matrices import DomainMatrix

from qrtorsion.fields import QQ, GF
from qrtorsion.linalg import Matrix
from qrtorsion.verifier import q_form

FIELDS = [QQ, GF(5), GF(101)]


@st.composite
def pairings(draw):
    """A field, an integer matrix A (antisymmetric when asked, so of even
    size), and a rate r, before the invertibility filter."""
    F = draw(st.sampled_from(FIELDS))
    antisymmetric = draw(st.booleans())
    b = draw(st.sampled_from([2, 4, 6]) if antisymmetric else st.integers(1, 6))
    entry = st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entry, min_size=b, max_size=b),
                         min_size=b, max_size=b))
    if antisymmetric:
        rows = [[rows[i][j] if i < j else -rows[j][i] if i > j else 0
                 for j in range(b)] for i in range(b)]
    r = draw(st.integers(-20, 20))
    return F, rows, r


def _sympy(F, rows, r):
    """det(r A^{-1}) as a field value and whether r A^{-1} is antisymmetric,
    or None when A or r is singular in the field."""
    K = SGF(F.char) if F.char else SQQ
    A = DomainMatrix([[K(a) for a in row] for row in rows],
                     (len(rows), len(rows)), K)
    if A.det() == K(0) or K(r) == K(0):
        return None
    Q = A.inv() * K(r)
    det = Q.det()
    det = int(det) % F.char if F.char else Fraction(int(det.numerator),
                                                     int(det.denominator))
    return det, (Q + Q.transpose()).is_zero_matrix


@settings(max_examples=300, deadline=None)
@given(pairings())
@example((GF(5), [[1, 2], [4, 1]], 2))               # not antisymmetric
@example((QQ, [[0, 3], [-3, 0]], -2))
@example((GF(101), [[0, 1, 0, 0], [-1, 0, 0, 0],
                    [0, 0, 0, 7], [0, 0, -7, 0]], 5))
def test_q_form_matches_sympy(data):
    F, rows, r = data
    expected = _sympy(F, rows, r)
    assume(expected is not None)
    b = len(rows)
    A = Matrix.from_int_rows(F, rows, b, b)
    qf = q_form(A, F.from_int(r), F)
    assert (qf.det, qf.antisymmetric) == expected
