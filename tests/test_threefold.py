import random

import pytest

from qrtorsion.fields import QQ, GF
from qrtorsion import threefold
from qrtorsion.threefold import (ThreefoldHomology, ThreefoldError, TripleForm,
                                 symplectic_slice, find_slice, dichotomy_class,
                                 exhaustive_search, no_slice_exists,
                                 SLICE_TRIALS,
                                 SLICED_ODD_B, ZERO_FORM, INCOMPATIBLE)


def test_homology_validation():
    H = ThreefoldHomology(3, [3, 9])
    assert H.torsion_order() == 27
    with pytest.raises(ThreefoldError):
        ThreefoldHomology(-1)
    with pytest.raises(ThreefoldError):
        ThreefoldHomology(2, [4, 6])  # no divisibility chain


def test_betti_number_is_bounded():
    # classify slices b x b matrices, so b is bounded where it enters
    assert ThreefoldHomology(256).b == TripleForm(256).b == threefold.MAX_B
    with pytest.raises(ThreefoldError, match="Betti number 257 exceeds 256"):
        ThreefoldHomology(257)
    with pytest.raises(ThreefoldError, match="rank 257 exceeds 256"):
        TripleForm(257, {(1, 2, 3): 1})


def test_form_alternation():
    I = TripleForm(4)
    I.set(1, 2, 3, 5)
    assert I.value(1, 2, 3) == 5
    assert I.value(2, 1, 3) == -5
    assert I.value(2, 3, 1) == 5
    assert I.value(1, 1, 3) == 0
    assert I.entries() == [((1, 2, 3), 5)]


def test_slice_matrix_volume_form():
    I = TripleForm(3, {(1, 2, 3): 1})
    F = QQ
    v = [F.one(), F.zero(), F.zero()]
    M = I.slice_matrix(v, F)
    assert M.rows[1][2] == F.one() and M.rows[2][1] == F.neg(F.one())
    # slice determinant: the 2x2 alternating block has determinant 1
    assert symplectic_slice(I, v, F) == F.one()


def test_symplectic_slice_degenerate():
    I = TripleForm(3, {(1, 2, 3): 1})
    F = QQ
    # the form vanishes against this vector only on a 1-dim complement: any
    # vector works here, but the zero form never slices
    Z = TripleForm(3)
    assert symplectic_slice(Z, [F.one(), F.zero(), F.zero()], F) is None


def test_find_slice_exhaustive_small_field():
    I = TripleForm(3, {(1, 2, 3): 1})
    assert find_slice(I, GF(3)) is not None
    assert find_slice(TripleForm(3), GF(3)) is None


# every standard-basis slice of this b = 7 form is degenerate, so the
# search reaches its enumeration (GF(3)) or its random trials (Q)
NO_BASIS_SLICE = TripleForm(7, {(1, 2, 7): -1, (1, 3, 5): -1, (2, 4, 7): 2,
                                (2, 5, 6): 1, (3, 6, 7): 2})


@pytest.mark.parametrize("field, exhaustive", [(GF(3), True), (QQ, False)])
def test_find_slice_beyond_the_standard_basis(field, exhaustive):
    I = NO_BASIS_SLICE
    one, zero = field.one(), field.zero()
    for i in range(I.b):
        e = [one if j == i else zero for j in range(I.b)]
        assert symplectic_slice(I, e, field) is None
    assert exhaustive_search(field, I.b) == exhaustive
    v, det = find_slice(I, field)
    assert sum(not field.is_zero(x) for x in v) > 1
    assert symplectic_slice(I, v, field) == det and not field.is_zero(det)
    if exhaustive:
        assert v == [field.from_int(x) for x in (1, 1, 0, 0, 1, 0, 0)]


def test_find_slice_random_trial_witness_over_q_is_pinned():
    # the first seeded random vector with a nondegenerate slice, and its
    # determinant: the search and the slice arithmetic must not move them
    v, det = find_slice(NO_BASIS_SLICE, QQ)
    assert v == [QQ.from_int(x) for x in (3, 4, -8, -1, 7, 6, 3)]
    assert det == QQ.from_int(14400)


def test_slice_vector_must_be_nonzero_and_of_length_b():
    I = TripleForm(3, {(1, 2, 3): 1})
    for F in (QQ, GF(5)):
        with pytest.raises(ThreefoldError, match="must be nonzero"):
            symplectic_slice(I, [F.zero()] * 3, F)
        for v in ([F.one()] * 2, [F.one()] * 4):
            with pytest.raises(ThreefoldError, match="length mismatch"):
                symplectic_slice(I, v, F)
            with pytest.raises(ThreefoldError, match="length mismatch"):
                I.slice_matrix(v, F)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_set_after_a_slice_shows_in_the_next_slice(field):
    I = TripleForm(5, {(1, 2, 3): 1})
    e1 = [field.one()] + [field.zero()] * 4
    assert symplectic_slice(I, e1, field) is None
    I.set(5, 4, 1, 2)  # I(1, 4, 5) = -2
    M = I.slice_matrix(e1, field)
    assert M.rows[3][4] == field.from_int(-2)
    assert M.rows[4][3] == field.from_int(2)
    assert symplectic_slice(I, e1, field) == field.from_int(4)
    I.set(1, 4, 5, 0)
    assert I.slice_matrix(e1, field) == \
        TripleForm(5, {(1, 2, 3): 1}).slice_matrix(e1, field)


def test_slices_and_the_derivation_check_build_no_expansion(monkeypatch):
    # both read coeffs through packed_contract: no signed_terms, nothing cached
    from qrtorsion import models
    from qrtorsion.models import _unimodular, solve_leibniz_derivation
    from qrtorsion.generate import canonical_form
    b, F = 7, GF(7)
    U = _unimodular(random.Random(3), b)
    I = canonical_form(b).apply_unimodular(U)
    r = list(U[0])
    calls = []
    real = TripleForm.signed_terms

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(TripleForm, "signed_terms", counting)
    # solve_leibniz_derivation takes one slice, and four more follow
    c = solve_leibniz_derivation(I, r, F)
    assert models._checked_derivation(I, r, c) is c
    for i in range(4):
        I.slice_matrix([F.from_int(int(j == i)) for j in range(b)], F)
    assert calls == []
    assert set(vars(I)) == {"b", "coeffs"}


def _count_slices(monkeypatch):
    calls = []
    real = threefold.symplectic_slice

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(threefold, "symplectic_slice", counting)
    return calls


def test_find_slice_uses_up_its_trials(monkeypatch):
    # no slice exists: iota_v of a decomposable 3-form has rank <= 2 < 4 =
    # b - 1, and over Q the search is not exhaustive
    I = TripleForm(5, {(1, 2, 3): 1})
    calls = _count_slices(monkeypatch)
    assert not exhaustive_search(QQ, I.b)
    assert find_slice(I, QQ) is None
    # the five basis vectors, then one call per nonzero random vector
    assert len(calls) == I.b + SLICE_TRIALS


@pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=repr)
@pytest.mark.parametrize("b", [0, 2, 4, 6])
def test_even_b_search_evaluates_no_slice(monkeypatch, field, b):
    I = TripleForm(b, {(1, 2, 3): 1} if b >= 3 else {})
    calls = _count_slices(monkeypatch)
    assert no_slice_exists(b)
    assert find_slice(I, field) is None
    assert calls == []


def test_dichotomy_classes():
    F = QQ
    assert dichotomy_class(TripleForm(3), F) == ZERO_FORM
    assert dichotomy_class(TripleForm(3, {(1, 2, 3): 1}), F) == SLICED_ODD_B
    # even rank, nonzero form: no odd-rank slice can exist
    assert dichotomy_class(TripleForm(4, {(1, 2, 3): 1}), GF(3)) == INCOMPATIBLE


def test_dichotomy_respects_characteristic():
    I = TripleForm(3, {(1, 2, 3): 3})
    assert dichotomy_class(I, QQ) == SLICED_ODD_B
    assert dichotomy_class(I, GF(3)) == ZERO_FORM


def test_unimodular_transport_preserves_dichotomy():
    rng = random.Random(11)
    from qrtorsion.linalg import Matrix
    from qrtorsion.models import _unimodular
    I = TripleForm(5, {(1, 2, 3): 1, (1, 4, 5): 1})
    for _ in range(10):
        state = rng.getstate()
        U, Ui = _unimodular(rng, 5, inverse=True)
        after = rng.getstate()
        rng.setstate(state)
        assert _unimodular(rng, 5) == U and rng.getstate() == after
        assert (Matrix.from_int_rows(QQ, U) * Matrix.from_int_rows(QQ, Ui)
                == Matrix.identity(QQ, 5))
        J = I.apply_unimodular(U)
        assert dichotomy_class(J, GF(3)) == SLICED_ODD_B
        assert dichotomy_class(J, QQ) == SLICED_ODD_B
