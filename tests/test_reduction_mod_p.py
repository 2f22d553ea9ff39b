"""Torsion commutes with reduction mod p.

A complex over Z_(p) that is acyclic over Q reduces mod p to an acyclic
complex exactly when its torsion is a p-adic unit, and then the reduction's
torsion is the torsion mod p (Milnor, "Whitehead torsion", Bull. AMS 72,
1966).  Reducing whole generated Q instances and verifying them over F_p
compares the fraction-free Q kernels with the F_p kernels on both torsion
paths.
"""

from fractions import Fraction

import pytest

from qrtorsion.complexes import TwistedPearlComplex
from qrtorsion.fields import QQ, GF, SignClass
from qrtorsion.generate import generate_instance
from qrtorsion.linalg import Matrix
from qrtorsion.verifier import Instance, verify_main_theorem

PRIMES = (5, 7, 11, 101)


class BadPrime(Exception):
    """p divides a denominator: the matrix has no reduction mod p."""


def reduce_mod(M: Matrix, F) -> Matrix:
    """The Q matrix M = num / den reduced entrywise into F = F_p, as num
    times den^-1 mod p."""
    p = F.char
    if M.den % p == 0:
        raise BadPrime
    inv = pow(M.den, -1, p)
    return Matrix.from_int_rows(F, [[x * inv for x in r] for r in M.num],
                                M.nrows, M.ncols)


def reduce_instance(inst: Instance, F) -> Instance:
    P = inst.pearl
    pearl = TwistedPearlComplex(
        F, P.ranks, [reduce_mod(P.dM(k), F) for k in range(1, 4)],
        [reduce_mod(P.d1_map(k), F) for k in range(3)], reduce_mod(P.d2, F))
    return Instance(inst.homology, inst.form, F, pearl,
                    [reduce_mod(B, F) for B in inst.bases])


@pytest.mark.parametrize("torsion", [(), (3,)])
@pytest.mark.parametrize("page, b", [(2, 3), (2, 5), (3, 2), (3, 4)])
def test_torsion_commutes_with_reduction_mod_p(page, b, torsion):
    narrow = 0
    for seed in range(8):
        inst = generate_instance(page, b, QQ, seed, torsion=torsion,
                                 surplus=(1, 2, 2, 1))
        rep = verify_main_theorem(inst)
        assert rep.all_pass
        tau = Fraction(rep.torsion_direct.value)
        for p in PRIMES:
            if any(t % p == 0 for t in torsion):
                continue
            F = GF(p)
            try:
                red = reduce_instance(inst, F)
            except BadPrime:
                continue
            rep_p = verify_main_theorem(red)
            if rep_p.flags["narrow"]:
                narrow += 1
                assert rep_p.all_pass, (seed, p, rep_p.flags)
                expected = F.div(F.from_int(tau.numerator),
                                 F.from_int(tau.denominator))
                assert rep_p.torsion_direct == SignClass(F, expected)
            else:
                assert tau.numerator % p == 0 or tau.denominator % p == 0
    assert narrow >= 16
