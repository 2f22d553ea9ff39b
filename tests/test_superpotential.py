import random

import pytest

from qrtorsion.fields import QQ, GF
from qrtorsion.superpotential import (DiscSystem, Representation,
                                      PotentialError, build_potential,
                                      log_gradient, discriminant,
                                      d1_from_discs)


def kirby(b, discs):
    return DiscSystem(b, discs)


def test_build_potential_collects_monomials():
    D = kirby(1, [([1], 1), ([-1], 1), ([1], 2)])
    W = build_potential(D)
    phi = Representation(QQ, [QQ.from_int(2)])
    # 3*z + 1/z at z = 2
    assert W.evaluate(phi) == QQ.parse("13/2")
    # counts on one class that cancel leave no term: W = 3 is constant
    D = kirby(2, [([1, 0], 2), ([1, 0], -2), ([0, 0], 3)])
    W = build_potential(D)
    assert W.is_constant()
    phi = Representation(QQ, [QQ.from_int(2), QQ.parse("1/3")])
    assert log_gradient(W, phi) == [QQ.zero(), QQ.zero()]


def test_log_gradient_example():
    # W = z1 + z2 + 1/(z1 z2); at (1, 2): z1 dW1 = 1 - 1/2, z2 dW2 = 2 - 1/2
    D = kirby(2, [([1, 0], 1), ([0, 1], 1), ([-1, -1], 1)])
    W = build_potential(D)
    phi = Representation(QQ, [QQ.from_int(1), QQ.from_int(2)])
    assert log_gradient(W, phi) == [QQ.parse("1/2"), QQ.parse("3/2")]


def test_discriminant_z_plus_inverse():
    D = kirby(1, [([1], 1), ([-1], 1)])
    W = build_potential(D)
    for z, expect in ((1, 2), (-1, -2)):
        phi = Representation(QQ, [QQ.from_int(z)])
        assert discriminant(W, phi) == QQ.from_int(expect)


def test_discriminant_rejects_noncritical_point():
    D = kirby(1, [([1], 1), ([-1], 1)])
    W = build_potential(D)
    with pytest.raises(PotentialError):
        discriminant(W, Representation(QQ, [QQ.from_int(2)]))


def test_constant_potential_everything_vanishes():
    D = kirby(2, [([0, 0], 3)])
    W = build_potential(D)
    assert W.is_constant()
    rng = random.Random(1)
    for _ in range(10):
        phi = Representation(QQ, [QQ.from_int(rng.choice([1, -1, 2, 3]))
                                  for _ in range(2)])
        assert log_gradient(W, phi) == [QQ.zero(), QQ.zero()]
        assert discriminant(W, phi) == QQ.zero()


def test_disc_differential_duality_random():
    rng = random.Random(2)
    for F in (QQ, GF(7)):
        for _ in range(25):
            b = rng.randint(1, 4)
            discs = [([rng.randint(-2, 2) for _ in range(b)],
                      rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
            D = kirby(b, discs)
            vals = [F.from_int(rng.choice([1, -1, 2, 3])) for _ in range(b)]
            phi = Representation(F, vals)
            row, col = d1_from_discs(build_potential(D), phi)
            # the divisor axiom disc by disc, before W merges equal classes
            weights = [F.zero()] * b
            for bd, m0 in D.discs:
                val = F.mul(F.from_int(m0), phi.monomial(bd))
                for i, e in enumerate(bd):
                    weights[i] = F.add(weights[i], F.mul(F.from_int(e), val))
            assert list(row.rows[0]) == weights
            assert row.transpose() == col


def test_representation_rejects_zero_coordinate():
    with pytest.raises(PotentialError):
        Representation(QQ, [QQ.zero()])
