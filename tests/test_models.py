import random

import pytest

from qrtorsion.fields import QQ, GF, SignClass
from qrtorsion.complexes import integral_homology, validate_pearl
from qrtorsion.threefold import ThreefoldHomology, TripleForm
from qrtorsion.models import (Page2Spec, Page3Spec, ModelError, realize_morse,
                              homology_bases, lift_derivation_page2,
                              lift_derivation_page3, random_pearl,
                              solve_leibniz_derivation, _unimodular)
from qrtorsion import models
from qrtorsion.generate import (canonical_form, canonical_derivation,
                                generate_instance, _congruence)
from qrtorsion.linalg import Matrix
from qrtorsion.verifier import verify_main_theorem
from qrtorsion.spectral import (page1, page2_rate, collapsing_page, Spectrum,
                                PAGE2, PAGE3, NOT_NARROW)
from qrtorsion.torsion import quantum_torsion


def test_realize_morse_shapes_and_homology():
    H0 = ThreefoldHomology(3)
    C = realize_morse(H0, seed=1)
    assert C.ranks == [1, 3, 3, 1]
    H5 = ThreefoldHomology(3, [5])
    C5 = realize_morse(H5, (0, 1, 1, 0), seed=2)
    got, _ = integral_homology(C5)
    assert got.free_ranks == [1, 3, 3, 1]
    assert got.torsion == [[], [5], [], []]


def test_realize_morse_rejects_unpairable_surplus():
    with pytest.raises(ModelError):
        realize_morse(ThreefoldHomology(3), (1, 0, 0, 0), seed=0)


def test_page2_lift_volume_form():
    H0 = ThreefoldHomology(3)
    C = realize_morse(H0, seed=1)
    spec = Page2Spec(H0, TripleForm(3, {(1, 2, 3): 1}), [1, 0, 0])
    P = lift_derivation_page2(spec, C, QQ, seed=3)
    assert not validate_pearl(P)
    Hb = homology_bases(C, QQ)
    assert collapsing_page(P, Hb) == PAGE2
    assert quantum_torsion(P, random.Random(0)).canonical() == QQ.one()


def test_page2_lift_with_birth_pairs():
    H0 = ThreefoldHomology(3)
    Cb = realize_morse(H0, (1, 2, 2, 1), seed=4)
    spec = Page2Spec(H0, TripleForm(3, {(1, 2, 3): 1}), [1, 0, 0])
    P = lift_derivation_page2(spec, Cb, QQ, seed=5)
    assert collapsing_page(P, homology_bases(Cb, QQ)) == PAGE2
    assert quantum_torsion(P, random.Random(0)).canonical() == QQ.one()


def test_page2_lift_rejects_zero_form():
    H0 = ThreefoldHomology(3)
    C = realize_morse(H0, seed=1)
    with pytest.raises(ModelError):
        lift_derivation_page2(Page2Spec(H0, TripleForm(3), [1, 0, 0]), C, QQ,
                              seed=6)


def test_page2_scaled_form_torsion():
    # I(1,2,3) = m gives quantum torsion 1/m^2
    H0 = ThreefoldHomology(3)
    C = realize_morse(H0, seed=1)
    for m in (2, 3):
        spec = Page2Spec(H0, TripleForm(3, {(1, 2, 3): m}), [1, 0, 0])
        P = lift_derivation_page2(spec, C, QQ, seed=m)
        tau = quantum_torsion(P, random.Random(0))
        assert tau == SignClass(QQ, QQ.parse(f"1/{m * m}"))


def test_page3_lift_standard_pairing():
    H2 = ThreefoldHomology(2)
    C = realize_morse(H2, seed=7)
    spec = Page3Spec(H2, [[0, 2], [-2, 0]], 2)
    P = lift_derivation_page3(spec, C, QQ, seed=8)
    Hb = homology_bases(C, QQ)
    assert collapsing_page(P, Hb) == PAGE3
    assert page2_rate(P, Hb) == QQ.from_int(2)
    # A = r * Qprime^{-1} has determinant 1 here, so tau = det A / r = 1/2
    tau = quantum_torsion(P, random.Random(0))
    assert tau == SignClass(QQ, QQ.parse("1/2"))


def _negated_page1(self, P, H):
    Spectrum.__init__(self, P, H)
    self.page1.d1star = [-d for d in self.page1.d1star]


@pytest.mark.parametrize("name, value, rejected", [
    ("validate_pearl", lambda P: ["d^2 fails"],
     "invalid pearl complex: d^2 fails"),
    ("Spectrum", type("S", (Spectrum,), {"__init__": _negated_page1}),
     "induced page-1 differential differs from the target"),
    ("Spectrum", type("S", (Spectrum,), {"collapse": NOT_NARROW}),
     "collapses at NotNarrow, not Page3"),
    ("Spectrum", type("S", (Spectrum,), {"rate": QQ.from_int(3)}),
     "page-2 rate differs from the target"),
], ids=["invalid", "induced-map", "collapse", "rate"])
def test_lift_failure_names_the_condition(monkeypatch, name, value, rejected):
    H2 = ThreefoldHomology(2)
    C = realize_morse(H2, seed=7)
    spec = Page3Spec(H2, [[0, 2], [-2, 0]], 2)
    monkeypatch.setattr(models, name, value)
    with pytest.raises(ModelError) as err:
        lift_derivation_page3(spec, C, QQ, seed=8)
    assert str(err.value) == f"chain-level lift failed: {rejected}"


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5), GF(7)], ids=str)
@pytest.mark.parametrize("b", [3, 5, 7])
def test_transported_leibniz_system_has_full_column_rank(field, b):
    # so c is unique (rank b - 1)
    U = _unimodular(random.Random(b), b)
    I = canonical_form(b).apply_unimodular(U)
    r = list(U[0])  # U^T e_1
    M, _ = models._leibniz_system(I, r, field)
    assert M.rank() == b * b


@pytest.mark.parametrize("page, b", [(2, 1), (2, 3), (3, 0), (3, 2)])
def test_generate_lifts_once(monkeypatch, page, b):
    calls = []

    def counted(*args):
        calls.append(args)
        return lift(*args)

    lift = models._lift_chain
    monkeypatch.setattr(models, "_lift_chain", counted)
    for field in (QQ, GF(5)):
        calls.clear()
        generate_instance(page, b, field, seed=2, surplus=(1, 1, 1, 1))
        assert len(calls) == 1


@pytest.mark.parametrize("b", [1, 3, 5])
def test_generate_solves_no_leibniz_system(monkeypatch, b):
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    solve = models.solve_leibniz_derivation
    monkeypatch.setattr(models, "solve_leibniz_derivation", counted)
    for field in (QQ, GF(5)):
        assert verify_main_theorem(generate_instance(2, b, field, seed=3)).all_pass
    assert calls == []


def _transported_spec(b, rng):
    """I = I0 o U, r = U^T e_1 and the closed form U^-1 c0 U^-T, as
    generate_instance builds them; also U^T c0 U, a mis-transport."""
    U, Uinv = _unimodular(rng, b, inverse=True)
    I = canonical_form(b).apply_unimodular(U)
    r = list(U[0])  # U^T e_1
    c0 = canonical_derivation(b)
    return I, r, _congruence(Uinv, c0), _congruence(list(zip(*U)), c0)


@pytest.mark.parametrize("b", [1, 3, 5, 7, 9])
def test_canonical_derivation_is_exact_and_kills_e1(b):
    c0 = canonical_derivation(b)
    assert all(c0[i][j] == -c0[j][i] for i in range(b) for j in range(b))
    assert [row[0] for row in c0] == [0] * b
    for field in (QQ, GF(3)):
        assert Matrix.from_int_rows(field, c0, b, b).rank() == b - 1


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7), GF(101)], ids=str)
@pytest.mark.parametrize("b", [1, 3, 5, 7, 9])
def test_closed_form_derivation_equals_the_solve(field, b):
    rng = random.Random(50 + b)
    for _ in range(10):
        I, r, c, _ = _transported_spec(b, rng)
        solved = solve_leibniz_derivation(I, r, field)
        assert solved == models._checked_derivation(I, r, c, field)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("b", [3, 5])
def test_closed_form_derivation_is_checked(field, b):
    H = ThreefoldHomology(b)
    C = realize_morse(H, seed=b)
    rng = random.Random(b)
    for _ in range(5):
        I, r, c, wrong = _transported_spec(b, rng)
        lift_derivation_page2(Page2Spec(H, I, r, c), C, field, seed=1)
        bumped = [list(row) for row in c]
        i, j = rng.randrange(b), rng.randrange(b)
        bumped[i][j] += 1
        for bad in (wrong, bumped):
            with pytest.raises(ModelError) as err:
                lift_derivation_page2(Page2Spec(H, I, r, bad), C, field, seed=1)
            assert str(err.value) == \
                "closed-form derivation fails the duality pairing"


def test_closed_form_derivation_antisymmetry_is_checked():
    H = ThreefoldHomology(1)
    C = realize_morse(H, seed=1)
    with pytest.raises(ModelError) as err:
        lift_derivation_page2(Page2Spec(H, TripleForm(1), [2], [[1]]), C, QQ)
    assert str(err.value) == "closed-form derivation fails antisymmetry"


def test_page2_b1_rate_vanishing_mod_p_becomes_1():
    F3 = GF(3)
    seed = 4
    master = random.Random(seed)
    for _ in range(3):
        master.getrandbits(32)
    assert random.Random(master.getrandbits(32)).randint(1, 4) == 3
    inst = generate_instance(2, 1, F3, seed)
    assert verify_main_theorem(inst).all_pass
    d1star = Spectrum(inst.pearl, inst.bases).page1.d1star
    assert d1star[0] == Matrix(F3, [[F3.one()]], 1, 1)


def test_page3_spec_rejects_odd_rank():
    with pytest.raises(ModelError) as err:
        Page3Spec(ThreefoldHomology(3), [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], 1)
    assert "antisymmetric" in str(err.value)


def test_page3_spec_rejects_symmetric_pairing():
    with pytest.raises(ModelError):
        Page3Spec(ThreefoldHomology(2), [[0, 1], [1, 0]], 1)


def test_page3_lift_with_torsion_field():
    H2t = ThreefoldHomology(2, [5])
    C = realize_morse(H2t, (0, 1, 1, 0), seed=9)
    F7 = GF(7)
    P = lift_derivation_page3(Page3Spec(H2t, [[0, 1], [-1, 0]], 1), C, F7,
                              seed=10)
    tau = quantum_torsion(P, random.Random(0))
    # ratio 1/|Tor H_1| = 1/5 = 3 mod 7
    assert tau == SignClass(F7, F7.from_int(3))


def test_leibniz_derivation_constraints():
    F = QQ
    I = TripleForm(3, {(1, 2, 3): 1})
    r = [1, 0, 0]
    c = solve_leibniz_derivation(I, r, F)
    assert c.nrows == 3 and c.ncols == 3
    assert c == -c.transpose()
    # c * r = 0 and rank b - 1 for exactness
    rF = [F.from_int(x) for x in r]
    assert all(F.is_zero(sum((F.mul(c.rows[i][j], rF[j]) for j in range(3)),
                             start=F.zero())) for i in range(3))
    assert c.rank() == 2


def test_random_pearl_reproducible_and_valid():
    C = realize_morse(ThreefoldHomology(3), seed=1)
    P1 = random_pearl(C, GF(3), seed=11)
    P2 = random_pearl(C, GF(3), seed=11)
    assert all(P1.d1[k] == P2.d1[k] for k in range(3))
    assert P1.d2 == P2.d2
    assert not validate_pearl(P1)


def test_random_pearl_with_morse_part():
    C = realize_morse(ThreefoldHomology(3, [5]), (1, 1, 1, 1), seed=12)
    for s in range(5):
        P = random_pearl(C, GF(3), seed=s)
        assert not validate_pearl(P)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_random_pearl_on_b0(field):
    # ranks (1, 0, 0, 1): the empty middle maps keep their shapes
    C = realize_morse(ThreefoldHomology(0), seed=1)
    P = random_pearl(C, field, seed=2)
    assert [P.d1[k].ncols for k in range(3)] == [1, 0, 0]
    assert not validate_pearl(P)
