"""Oracle tests of the potential's second derivatives: hessian and
discriminant against sympy's hessian of the same Laurent polynomial, over
Q, F_5 and F_101, on random potentials in at most three variables.

sympy and hypothesis are test-only dependencies; the library never imports
them.
"""

from math import lcm

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qrtorsion.fields import QQ, GF
from qrtorsion.superpotential import (DiscSystem, Representation,
                                      PotentialError, build_potential,
                                      discriminant, hessian, log_gradient)

FIELDS = [QQ, GF(5), GF(101)]


@st.composite
def potentials(draw, max_b=3):
    """A field, disc data on at most max_b variables and a torus point."""
    F = draw(st.sampled_from(FIELDS))
    b = draw(st.integers(1, max_b))
    vector = st.lists(st.integers(-3, 3), min_size=b, max_size=b)
    discs = draw(st.lists(st.tuples(vector, st.integers(-4, 4)), max_size=5))
    if F.char:
        units = st.integers(1, F.char - 1).map(F.from_int)
    else:
        units = st.builds(lambda n, d: F.div(F.from_int(n), F.from_int(d)),
                          st.integers(-5, 5).filter(bool), st.integers(1, 4))
    point = draw(st.lists(units, min_size=b, max_size=b))
    return F, discs, point


def _to_field(F, q):
    q = sympy.Rational(q)
    return F.div(F.from_int(int(q.p)), F.from_int(int(q.q)))


def _sympy_hessian(F, discs, point):
    """sympy's Hessian of sum c z^d at the point, as a sympy matrix of
    rationals: over F_p the point's residues are read as integers, and the
    denominators (powers of them) are units mod p."""
    z = sympy.symbols(f"z0:{len(point)}")
    W = sympy.Add(*(c * sympy.Mul(*(x ** e for x, e in zip(z, d)))
                    for d, c in discs))
    at = [sympy.Rational(v.numerator, v.denominator) for v in point]
    return sympy.hessian(W, z).subs(dict(zip(z, at)))


@settings(max_examples=150, deadline=None)
@given(potentials())
def test_hessian_matches_sympy(data):
    F, discs, point = data
    b = len(point)
    H = _sympy_hessian(F, discs, point)
    W = build_potential(DiscSystem(b, discs))
    assert hessian(W, Representation(F, point)) == [
        [_to_field(F, H[i, j]) for j in range(b)] for i in range(b)]


@settings(max_examples=150, deadline=None)
@given(potentials())
def test_discriminant_matches_sympy(data):
    F, discs, point = data
    b = len(point)
    phi = Representation(F, point)
    grad = log_gradient(build_potential(DiscSystem(b, discs)), phi)
    if any(not F.is_zero(g) for g in grad):
        with pytest.raises(PotentialError, match="only defined at critical"):
            discriminant(build_potential(DiscSystem(b, discs)), phi)
    # scale W by N and add -N g_i / z_i times z_i, for an integer N that
    # clears the denominators: the point is then critical
    shifts = [F.div(F.neg(g), v) for g, v in zip(grad, point)]
    N = lcm(*(s.denominator for s in shifts)) if not F.char else 1
    crit = [(d, N * c) for d, c in discs] + [
        ([int(i == j) for j in range(b)], int(N * s))
        for i, s in enumerate(shifts)]
    W = build_potential(DiscSystem(b, crit))
    assert all(F.is_zero(g) for g in log_gradient(W, phi))
    det = _to_field(F, _sympy_hessian(F, crit, point).det())
    weight = F.one()
    for v in point:
        weight = F.mul(weight, F.mul(v, v))
    sign = F.from_int((-1) ** (3 * b + 1))
    assert discriminant(W, phi) == F.mul(sign, F.mul(weight, det))
