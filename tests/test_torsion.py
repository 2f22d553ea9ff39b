import random

import pytest

from qrtorsion.fields import QQ, GF, SignClass
from qrtorsion.linalg import Matrix
from qrtorsion.complexes import (BasedChainComplex, PeriodicComplex,
                                 fold_periodic)
from qrtorsion.generate import generate_instance
from qrtorsion.torsion import (milnor_torsion, torsion_basis_change,
                               periodic_torsion, morse_torsion_identity,
                               NotNarrowError, TorsionError)
from qrtorsion.threefold import ThreefoldHomology
from qrtorsion.models import ModelError, realize_morse, homology_bases
from util import random_acyclic, random_invertible


def empty_bases(C):
    return [Matrix.zeros(C.field, C.ranks[k], 0)
            for k in range(C.top_degree + 1)]


def test_two_term_scaling():
    # 0 -> F -a-> F -> 0 has torsion a
    F = QQ
    for a in (2, -3, 7):
        C = BasedChainComplex(F, [1, 1],
                              [Matrix.from_int_rows(F, [[a]], 1, 1)])
        tau = milnor_torsion(C, empty_bases(C))
        assert tau == SignClass(F, F.from_int(a))


def test_internal_choices_do_not_matter():
    rng = random.Random(4)
    for F in (QQ, GF(5)):
        for _ in range(25):
            C = random_acyclic(F, rng)
            e = empty_bases(C)
            vals = {milnor_torsion(C, e, random.Random(s)) for s in range(4)}
            vals.add(milnor_torsion(C, e))
            assert len(vals) == 1


def test_nonacyclic_without_bases_fails():
    C = BasedChainComplex(QQ, [1, 1], [Matrix.zeros(QQ, 1, 1)])
    with pytest.raises(TorsionError):
        milnor_torsion(C, empty_bases(C))
    one = Matrix.from_int_rows(QQ, [[1]], 1, 1)
    assert milnor_torsion(C, [one, one]) == SignClass(QQ, QQ.one())


def test_basis_change_law():
    rng = random.Random(8)
    for F in (QQ, GF(7)):
        for _ in range(20):
            C = random_acyclic(F, rng)
            h = empty_bases(C)
            new_c = [random_invertible(F, C.ranks[k], rng)
                     for k in range(C.top_degree + 1)]
            # the law is asserted inside; a silent pass is the point
            torsion_basis_change(C, h, new_c, h, rng)


def test_basis_change_with_homology():
    rng = random.Random(13)
    F = GF(5)
    spec = ThreefoldHomology(3)
    C = realize_morse(spec, (1, 1, 1, 1), seed=21).to_field(F)
    h = homology_bases(realize_morse(spec, (1, 1, 1, 1), seed=21), F)
    new_c = [random_invertible(F, C.ranks[k], rng) for k in range(4)]
    new_h = [h[k] * random_invertible(F, h[k].ncols, rng) if h[k].ncols
             else h[k] for k in range(4)]
    torsion_basis_change(C, h, new_c, new_h, rng)


def test_periodic_torsion_diagonal():
    F = QQ
    P = PeriodicComplex(F, 1, 1, Matrix.from_int_rows(F, [[3]], 1, 1),
                        Matrix.zeros(F, 1, 1))
    assert periodic_torsion(P) == SignClass(F, F.from_int(3))


def test_periodic_torsion_requires_acyclicity():
    F = QQ
    P = PeriodicComplex(F, 1, 1, Matrix.zeros(F, 1, 1),
                        Matrix.zeros(F, 1, 1))
    with pytest.raises(NotNarrowError):
        periodic_torsion(P)


def test_periodic_internal_choices():
    rng = random.Random(3)
    F = GF(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        # acyclic periodic complex: d_oe invertible, d_eo = 0
        d = random_invertible(F, n, rng)
        P = PeriodicComplex(F, n, n, d, Matrix.zeros(F, n, n))
        vals = {periodic_torsion(P, random.Random(s)) for s in range(3)}
        assert vals == {SignClass(F, d.determinant())}


@pytest.mark.parametrize("page, b, field, torsion", [
    (2, 3, GF(7), ()), (2, 5, QQ, ()), (3, 2, GF(5), (3,)), (3, 4, QQ, (3, 9))],
    ids=str)
def test_minors_agree_with_randomized_bases_on_pearls(page, b, field, torsion):
    # without an rng each torsion takes minors beside the unit sections; with
    # one the sections are mixed and the whole bases are eliminated
    for seed in range(3):
        inst = generate_instance(page, b, field, seed, torsion, (1, 1, 1, 1))
        fold = fold_periodic(inst.pearl)
        tau = periodic_torsion(fold)
        assert {periodic_torsion(fold, random.Random(s))
                for s in range(3)} == {tau}
        C = BasedChainComplex(field, inst.pearl.ranks,
                              [inst.pearl.dM(k) for k in (1, 2, 3)])
        tau = milnor_torsion(C, inst.bases)
        assert {milnor_torsion(C, inst.bases, random.Random(s))
                for s in range(3)} == {tau}


def test_torsion_equals_torsion():
    F7 = GF(7)
    spec = ThreefoldHomology(2, [5])
    C = realize_morse(spec, (0, 1, 1, 0), seed=6)
    lhs, rhs = morse_torsion_identity(C, F7)
    # |Tor H_1| = 5 enters inverted; 1/5 = 3 = -4 mod 7
    assert lhs == SignClass(F7, F7.from_int(3))


def test_torsion_equals_torsion_inadmissible():
    spec = ThreefoldHomology(2, [5])
    C = realize_morse(spec, (0, 1, 1, 0), seed=6)
    with pytest.raises(TorsionError) as err:
        morse_torsion_identity(C, GF(5))
    assert str(err.value) == "characteristic 5 divides invariant factor 5"
    with pytest.raises(ModelError) as err:
        homology_bases(C, GF(5))
    assert str(err.value) == "characteristic 5 divides invariant factor 5"


@pytest.mark.parametrize("tor, surplus", [((), (0, 0, 0, 0)),
                                          ((3,), (1, 1, 1, 1)),
                                          ((5, 25), (2, 3, 3, 2))])
def test_milnor_torsion_of_an_integral_complex_is_its_torsion_over_q(
        tor, surplus):
    # an integral complex is a complex over Q, so milnor_torsion takes it
    # as it is, and to_field(QQ) changes nothing
    C = realize_morse(ThreefoldHomology(3, tor), surplus, seed=4)
    h = homology_bases(C, QQ)
    CQ = C.to_field(QQ)
    assert CQ.field == QQ and CQ is not C
    assert [CQ.boundary(k) for k in range(5)] == [C.boundary(k)
                                                  for k in range(5)]
    assert milnor_torsion(C, h) == milnor_torsion(CQ, h)
    assert milnor_torsion(C, h, random.Random(1)) == milnor_torsion(CQ, h)
