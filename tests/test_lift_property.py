"""Property test of the closed-form chain-level lift: on realize_morse
complexes, with surplus and torsion, every square-zero homology-level
structure delta lifts to a valid pearl complex that induces delta on
page 1.

hypothesis is a test-only dependency; the library never imports it.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qrtorsion import models
from qrtorsion.complexes import validate_pearl
from qrtorsion.fields import QQ, GF
from qrtorsion.linalg import Matrix
from qrtorsion.spectral import page1
from qrtorsion.threefold import ThreefoldHomology


def _int_matrix(draw, field, m, n):
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return Matrix.from_int_rows(field, rows, m, n)


@st.composite
def lift_cases(draw):
    F = draw(st.sampled_from([QQ, GF(3), GF(5)]))
    b = draw(st.integers(0, 4))
    torsion = draw(st.sampled_from([(), (7,)]))
    p10, p21, p32 = (draw(st.integers(0, 2)) for _ in range(3))
    surplus = (p10, p10 + p21, p21 + p32, p32)
    morse = models.realize_morse(ThreefoldHomology(b, torsion), surplus,
                                 seed=draw(st.integers(0, 2 ** 16)))
    # delta_1 = ker(delta_2) R ker(delta_0^T)^T makes delta square to zero
    d0 = _int_matrix(draw, F, b, 1)
    d2 = _int_matrix(draw, F, 1, b)
    K2, K0 = d2.kernel_basis(), d0.transpose().kernel_basis()
    d1 = K2 * _int_matrix(draw, F, K2.ncols, K0.ncols) * K0.transpose()
    return morse, F, [d0, d1, d2], draw(st.integers(0, 2 ** 32))


@settings(max_examples=60, deadline=None)
@given(lift_cases())
def test_lift_is_valid_and_induces_delta(case):
    morse, F, delta, seed = case
    assert (delta[1] * delta[0]).is_zero() and (delta[2] * delta[1]).is_zero()
    H = models.homology_bases(morse, F)
    P, _ = models._lift_chain(morse.to_field(F), H, delta,
                              random.Random(seed))
    assert validate_pearl(P) == []
    assert page1(P, H).d1star == delta
