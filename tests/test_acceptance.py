"""Acceptance gate: ten exact-arithmetic criteria, one printed line each.

Every comparison is exact (SignClass or field equality, tolerance zero).
The generated corpora are seeded, so the whole gate is deterministic.
"""

import random
import sys

import pytest

from qrtorsion.fields import QQ, GF, SignClass
from qrtorsion.linalg import Matrix
from qrtorsion.torsion import (milnor_torsion, torsion_basis_change,
                               morse_torsion_identity, quantum_torsion)
from qrtorsion.spectral import (page1, page2_rate, closed_form_r,
                                collapsing_page, minimal_model,
                                PAGE2, PAGE3, NOT_NARROW)
from qrtorsion.threefold import ThreefoldHomology, TripleForm, find_slice
from qrtorsion.models import (Page2Spec, Page3Spec, ModelError, realize_morse,
                              homology_bases, lift_derivation_page2,
                              lift_derivation_page3, random_pearl)
from qrtorsion.complexes import fold_periodic
from qrtorsion.generate import generate_instance, mutate_d2
from qrtorsion.verifier import (torsion_ratio, e1_milnor_torsion,
                                torsion_via_page2_formula,
                                torsion_via_page3_formula,
                                verify_main_theorem)
from util import random_acyclic, random_invertible


def report(num, name, ok):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    assert ok, line.strip()


def empty_bases(C):
    return [Matrix.zeros(C.field, C.ranks[k], 0)
            for k in range(C.top_degree + 1)]


F3, F5, F7, F11 = GF(3), GF(5), GF(7), GF(11)

# torsion menus keep the characteristic coprime to every invariant factor
FULL_MENU = ((QQ, ([], [5], [3, 9])), (F3, ([], [5])),
             (F5, ([], [7])), (F7, ([], [3, 9])))
FF_MENU = FULL_MENU[1:]
SURPLUSES = ((0, 0, 0, 0), (1, 1, 1, 1))

# larger ranks over the rationals are the expensive corner, so the bulk of
# the big-b corpus lives over the prime fields
PAGE2_COMBOS = (
    [(1, F, tor, sur, s) for F, tors in FULL_MENU for tor in tors
     for sur in SURPLUSES for s in range(5)]
    + [(3, F, tor, sur, s) for F, tors in FF_MENU for tor in tors
       for sur in SURPLUSES for s in range(5)]
    + [(3, QQ, [], (0, 0, 0, 0), 0), (3, QQ, [], (0, 0, 0, 0), 1),
       (3, QQ, [], (1, 1, 1, 1), 0), (3, QQ, [5], (1, 1, 1, 1), 0),
       (3, QQ, [3, 9], (1, 1, 1, 1), 0)]
    + [(5, F, tor, sur, s) for F, tors in FF_MENU for tor in tors
       for sur in SURPLUSES for s in range(4)]
    + [(5, QQ, [], (0, 0, 0, 0), 0)]
)
PAGE3_COMBOS = (
    [(2, F, tor, sur, s) for F, tors in FULL_MENU for tor in tors
     for sur in SURPLUSES for s in range(6)]
    + [(4, F, tor, sur, s) for F, tors in FF_MENU for tor in tors
       for sur in SURPLUSES for s in range(8)]
    + [(4, QQ, [], (0, 0, 0, 0), 0), (4, QQ, [], (0, 0, 0, 0), 1),
       (4, QQ, [5], (1, 1, 1, 1), 0), (4, QQ, [3, 9], (1, 1, 1, 1), 0)]
)


@pytest.fixture(scope="module")
def page2_corpus():
    return [generate_instance(2, b, F, seed, tor, sur)
            for b, F, tor, sur, seed in PAGE2_COMBOS]


@pytest.fixture(scope="module")
def page3_corpus():
    return [generate_instance(3, b, F, seed, tor, sur)
            for b, F, tor, sur, seed in PAGE3_COMBOS]


def test_criterion_01_torsion_well_defined():
    rng = random.Random(101)
    checked = 0
    ok = True
    for F in (QQ, F5):
        for _ in range(100):
            C = random_acyclic(F, rng)
            e = empty_bases(C)
            base = milnor_torsion(C, e)
            ok = ok and all(milnor_torsion(C, e, random.Random(s)) == base
                            for s in range(3))
            checked += 1
    report(1, "milnor torsion well defined", ok and checked == 200)


def test_criterion_02_basis_change_law():
    rng = random.Random(202)
    count = 0
    for _ in range(60):
        F = rng.choice([QQ, F7])
        C = random_acyclic(F, rng)
        h = empty_bases(C)
        new_c = [random_invertible(F, C.ranks[k], rng)
                 for k in range(C.top_degree + 1)]
        torsion_basis_change(C, h, new_c, h, rng)  # law asserted inside
        count += 1
    for seed in range(40):
        F = F5 if seed % 2 else QQ
        spec = ThreefoldHomology(seed % 3 + 1)
        CZ = realize_morse(spec, (1, 1, 1, 1), seed=seed)
        C = CZ.to_field(F)
        h = homology_bases(CZ, F)
        new_c = [random_invertible(F, C.ranks[k], rng) for k in range(4)]
        new_h = [h[k] * random_invertible(F, h[k].ncols, rng) if h[k].ncols
                 else h[k] for k in range(4)]
        torsion_basis_change(C, h, new_c, new_h, rng)
        count += 1
    report(2, "basis-change law", count == 100)


def test_criterion_03_torsion_equals_torsion():
    rng = random.Random(303)
    menus = [([3], F5), ([3], F7), ([5], F7), ([7], F5), ([9], F5),
             ([3, 9], F5), ([3, 9], F7), ([5], QQ), ([7], QQ), ([9], QQ)]
    count = 0
    for i in range(100):
        tor, F = menus[i % len(menus)]
        spec = ThreefoldHomology(rng.randint(1, 3), tor)
        shape = (0, len(tor), len(tor), 0) if rng.random() < 0.5 else \
            (1, len(tor) + 1, len(tor) + 1, 1)
        C = realize_morse(spec, shape, seed=i)
        lhs, rhs = morse_torsion_identity(C, F)  # equality asserted inside
        assert lhs == rhs
        count += 1
    spot = realize_morse(ThreefoldHomology(2, [5]), (0, 1, 1, 0), seed=1)
    lhs, _ = morse_torsion_identity(spot, F7)
    report(3, "torsion equals torsion",
           count == 100 and lhs == SignClass(F7, F7.from_int(3)))


def test_criterion_04_page2_pipeline(page2_corpus):
    assert len(page2_corpus) >= 200
    for inst in page2_corpus:
        direct = quantum_torsion(inst.pearl, random.Random(0))
        assert direct == torsion_via_page2_formula(inst)
        ratio = torsion_ratio(inst.homology, inst.field)
        assert direct == e1_milnor_torsion(inst) * ratio
    # spot values: the volume form gives 1, the scaled form 1/m^2
    H0 = ThreefoldHomology(3)
    C = realize_morse(H0, seed=1)
    vol, _, _ = lift_derivation_page2(
        Page2Spec(H0, TripleForm(3, {(1, 2, 3): 1}), [1, 0, 0]), C, QQ, seed=2)
    assert quantum_torsion(vol, random.Random(0)).canonical() == QQ.one()
    for m in (2, 3):
        Pm, _, _ = lift_derivation_page2(
            Page2Spec(H0, TripleForm(3, {(1, 2, 3): m}), [1, 0, 0]), C, QQ,
            seed=m)
        assert quantum_torsion(Pm, random.Random(0)) == \
            SignClass(QQ, QQ.parse(f"1/{m * m}"))
    report(4, "page-2 pipeline", True)


def test_criterion_05_page3_pipeline(page3_corpus):
    assert len(page3_corpus) >= 200
    for inst in page3_corpus:
        F = inst.field
        b = inst.homology.b
        direct = quantum_torsion(inst.pearl, random.Random(0))
        pg = page1(inst.pearl, inst.bases)
        A = pg.d1star[1]
        assert direct == torsion_via_page3_formula(inst)
        r = page2_rate(inst.pearl, inst.bases)
        ratio = torsion_ratio(inst.homology, F)
        assert direct == SignClass(F, F.mul(ratio,
                                            F.div(A.determinant(), r)))
    # the power identity tau^b = ratio^b det A^(b-1) / det Q' on the spec's
    # own pairing Q'; every generated Q' = U^T J U has det 1, so these
    # pairings have det 4 and 36
    Q2 = [[0, 2], [-2, 0]]
    Q4 = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
    for Qp, r, tor, F in [(Q2, 2, (), QQ), (Q2, 2, (), F11),
                          (Q4, 5, (3,), QQ), (Q4, 5, (3,), F11)]:
        H = ThreefoldHomology(len(Qp), tor)
        P, bases, _ = lift_derivation_page3(
            Page3Spec(H, Qp, r), realize_morse(H, seed=7), F, seed=8)
        b = H.b
        tau = quantum_torsion(P, random.Random(0))
        A_det = page1(P, bases).d1star[1].determinant()
        Qp_det = Matrix.from_int_rows(F, Qp).determinant()
        assert SignClass(F, Qp_det) != SignClass(F, F.one())
        ratio = torsion_ratio(H, F)
        rhs = F.div(F.mul(pow_scalar(F, ratio, b),
                          pow_scalar(F, A_det, b - 1)), Qp_det)
        assert tau.pow(b) == SignClass(F, rhs)
        if F is QQ and Qp is Q2:
            assert tau == SignClass(QQ, QQ.parse("1/2"))
    report(5, "page-3 pipeline", True)


def pow_scalar(F, x, n):
    out = F.one()
    for _ in range(n):
        out = F.mul(out, x)
    return out


def test_criterion_06_rate_two_paths(page3_corpus):
    for inst in page3_corpus:
        F = inst.field
        lit = page2_rate(inst.pearl, inst.bases)
        cf = closed_form_r(inst.pearl, inst.bases)
        assert SignClass(F, lit) == SignClass(F, cf)
    report(6, "page-2 rate two paths", True)


def test_criterion_07_dichotomy(page2_corpus, page3_corpus):
    for inst in page2_corpus:
        assert inst.homology.b % 2 == 1
        assert collapsing_page(inst.pearl, inst.bases) == PAGE2
        assert find_slice(inst.form, inst.field) is not None
    for inst in page3_corpus:
        assert inst.homology.b % 2 == 0
        assert collapsing_page(inst.pearl, inst.bases) == PAGE3
        assert inst.form.is_zero_over(inst.field)
    with pytest.raises(ModelError) as err:
        Page3Spec(ThreefoldHomology(3), [[0] * 3 for _ in range(3)], 1)
    assert "antisymmetric" in str(err.value)
    # fuzz: narrowness (acyclic fold) coincides with spectral collapse
    bases = {}
    for b in (2, 3):
        CZ = realize_morse(ThreefoldHomology(b), seed=b)
        bases[b] = (CZ, homology_bases(CZ, F3))
    for trial in range(10 ** 4):
        b = 2 + trial % 2
        CZ, H = bases[b]
        P = random_pearl(CZ, F3, seed=trial)
        narrow = fold_periodic(P).is_acyclic()
        collapse = collapsing_page(P, H)
        assert narrow == (collapse in (PAGE2, PAGE3)), (b, trial, collapse)
    report(7, "dichotomy and fuzz", True)


def test_criterion_08_superpotential_identities():
    from qrtorsion.superpotential import (DiscSystem, Representation,
                                          build_potential, log_gradient,
                                          discriminant, d1_from_discs)
    rng = random.Random(808)
    for _ in range(200):
        b = rng.randint(1, 4)
        D = DiscSystem(b, [([rng.randint(-2, 2) for _ in range(b)],
                            rng.randint(1, 3))
                           for _ in range(rng.randint(1, 5))])
        phi = Representation(QQ, [QQ.parse(rng.choice(["1", "-1", "2", "1/2",
                                                       "3", "-2/3"]))
                                  for _ in range(b)])
        row, col = d1_from_discs(build_potential(D), phi)
        assert list(row.rows[0]) == log_gradient(build_potential(D), phi)
        assert row.transpose() == col
    W = build_potential(DiscSystem(1, [([1], 1), ([-1], 1)]))
    assert discriminant(W, Representation(QQ, [QQ.one()])) == QQ.from_int(2)
    assert discriminant(W, Representation(QQ, [QQ.from_int(-1)])) == \
        QQ.from_int(-2)
    Wc = build_potential(DiscSystem(2, [([0, 0], 2)]))
    for _ in range(20):
        phi = Representation(QQ, [QQ.from_int(rng.choice([1, -1, 2, 5])),
                                  QQ.from_int(rng.choice([1, -1, 3]))])
        assert log_gradient(Wc, phi) == [QQ.zero(), QQ.zero()]
        assert discriminant(Wc, phi) == QQ.zero()
    report(8, "superpotential identities", True)


def test_criterion_09_minimal_model_preservation(page2_corpus, page3_corpus):
    mixed = (page2_corpus[:50] + page3_corpus[:50])
    assert len(mixed) == 100
    for inst in mixed:
        F = inst.field
        mm = minimal_model(inst.pearl, inst.bases)
        pg = page1(inst.pearl, inst.bases)
        for k in range(3):
            assert mm.d1[k] == pg.d1star[k]
        ratio = torsion_ratio(inst.homology, F)
        tau_model = quantum_torsion(mm, random.Random(0))
        tau_full = quantum_torsion(inst.pearl, random.Random(0))
        assert tau_full == tau_model * ratio
        if collapsing_page(inst.pearl, inst.bases) == PAGE3:
            assert mm.d2.rows[0][0] == page2_rate(inst.pearl, inst.bases)
    report(9, "minimal model preservation", True)


def test_criterion_10_mutation_sensitivity():
    detected = 0
    total = 0
    for base_seed in range(50):
        F = QQ if base_seed % 2 else F5
        inst = generate_instance(3, 2, F, base_seed, surplus=(2, 2, 2, 2))
        for m_seed in range(10):
            bad = mutate_d2(inst, seed=base_seed * 31 + m_seed)
            rep = verify_main_theorem(bad)
            total += 1
            if not rep.all_pass:
                detected += 1
            else:
                # survivors must be genuine narrow instances
                again = verify_main_theorem(bad)
                assert again.all_pass and again.collapse == PAGE3
    assert total == 500
    report(10, "mutation sensitivity",
           detected >= 475)
