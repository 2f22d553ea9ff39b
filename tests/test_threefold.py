import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from qrtorsion.fields import QQ, GF
from qrtorsion import threefold
from qrtorsion.models import solve_leibniz_derivation
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
    v = [1, 0, 0]
    S = I.slice_rows(v)
    assert S[1][2] == 1 and S[2][1] == -1
    # slice determinant: the 2x2 alternating block has determinant 1
    assert symplectic_slice(I, v, QQ) == QQ.one()


def test_symplectic_slice_degenerate():
    # the zero form never slices, whatever the vector
    Z = TripleForm(3)
    for F in (QQ, GF(5)):
        assert symplectic_slice(Z, [1, 0, 0], F) is None
        assert symplectic_slice(Z, [-4, 7, 2], F) is None


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
    for i in range(I.b):
        e = [int(j == i) for j in range(I.b)]
        assert symplectic_slice(I, e, field) is None
    assert exhaustive_search(field, I.b) == exhaustive
    v, det = find_slice(I, field)
    assert all(type(x) is int for x in v)
    assert sum(not field.is_zero(x) for x in v) > 1
    assert symplectic_slice(I, v, field) == det and not field.is_zero(det)
    if exhaustive:
        assert v == [1, 1, 0, 0, 1, 0, 0]


def test_find_slice_random_trial_witness_over_q_is_pinned():
    # the first seeded random vector with a nondegenerate slice, and its
    # determinant: the search and the slice arithmetic must not move them
    v, det = find_slice(NO_BASIS_SLICE, QQ)
    assert v == [3, 4, -8, -1, 7, 6, 3]
    assert det == QQ.from_int(14400)


def test_no_basis_slice_form_is_compatible_but_not_liftable():
    # a slice exists, so the form is compatible with page 2, yet no nonzero
    # rate over F3 has a page-2 derivation for it
    F = GF(3)
    assert dichotomy_class(NO_BASIS_SLICE, F) == SLICED_ODD_B
    rates = [list(r) for r in product(range(3), repeat=7) if any(r)]
    assert len(rates) == 2186
    assert all(solve_leibniz_derivation(NO_BASIS_SLICE, r, F) is None
               for r in rates)


GRID_FIELDS = [QQ, GF(3), GF(5), GF(7), GF(101), GF(2 ** 61 - 1)]


def _grid_forms(b):
    """Seeded random forms of rank b with 1 to 8 coefficients (9 and 18 at
    b = 7, where sparse forms would make the F_5 enumeration long), and
    NO_BASIS_SLICE at b = 7."""
    rng = random.Random(b)
    triples = list(combinations(range(1, b + 1), 3))
    forms = [TripleForm(b, {t: rng.randint(-3, 3)
                            for t in rng.sample(triples, min(k, len(triples)))})
             for k in ((1, 2, 3, 5, 8) if b < 7 else (9, 18))]
    return forms + [NO_BASIS_SLICE] * (b == 7)


def test_search_over_a_seeded_grid_is_pinned():
    # the class and the (witness in the field, det) pair of every form of
    # the grid, through all three branches of the search
    h = hashlib.sha256()
    branches = set()
    for b in (1, 3, 4, 5, 7):
        for I in _grid_forms(b):
            for F in GRID_FIELDS:
                found = find_slice(I, F)
                line = [repr(F), b, str(I.entries()), dichotomy_class(I, F)]
                if found is not None:
                    v, det = found
                    branches.add("unit" if sorted(v) == [0] * (b - 1) + [1]
                                 else "lines" if exhaustive_search(F, b)
                                 else "random")
                    line += [[F.format(F.from_int(x)) for x in v],
                             F.format(det)]
                h.update(repr(line).encode())
    assert branches == {"unit", "lines", "random"}
    assert h.hexdigest() == ("2def0a6787a658b9c8bd293c4c028e2f"
                             "74d7a41bfeac7c2b8306e95ffee6566c")


def test_slice_vector_must_be_nonzero_and_of_length_b():
    I = TripleForm(3, {(1, 2, 3): 1})
    for F in (QQ, GF(5)):
        with pytest.raises(ThreefoldError, match="must be nonzero"):
            symplectic_slice(I, [0] * 3, F)
        for v in ([1] * 2, [1] * 4):
            with pytest.raises(ThreefoldError, match="length mismatch"):
                symplectic_slice(I, v, F)
    # zero is read in the field
    with pytest.raises(ThreefoldError, match="must be nonzero"):
        symplectic_slice(I, [5, -10, 0], GF(5))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_symplectic_slice_refuses_fractions(field):
    # slice vectors are integers: a Fraction entry is refused, integral or
    # not, before the vector is checked for zero or for its length
    I = TripleForm(3, {(1, 2, 3): 1})
    for v in ([Fraction(1), 0, 0], [1, Fraction(1, 2), 0], [Fraction(0)] * 3,
              [0, Fraction(1)]):
        with pytest.raises(TypeError):
            symplectic_slice(I, v, field)
    # the zero check comes before the length check
    for v in ([0] * 2, [0] * 4):
        with pytest.raises(ThreefoldError, match="must be nonzero"):
            symplectic_slice(I, v, field)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_set_after_a_slice_shows_in_the_next_slice(field):
    I = TripleForm(5, {(1, 2, 3): 1})
    e1 = [1, 0, 0, 0, 0]
    assert symplectic_slice(I, e1, field) is None
    I.set(5, 4, 1, 2)  # I(1, 4, 5) = -2
    S = I.slice_rows(e1)
    assert S[3][4] == -2 and S[4][3] == 2
    assert symplectic_slice(I, e1, field) == field.from_int(4)
    I.set(1, 4, 5, 0)
    assert I.slice_rows(e1) == TripleForm(5, {(1, 2, 3): 1}).slice_rows(e1)


def test_slices_and_the_derivation_check_build_no_expansion(monkeypatch):
    # both read coeffs through packed_contract, once each: nothing cached
    from qrtorsion import models
    from qrtorsion.models import _unimodular, solve_leibniz_derivation
    from qrtorsion.generate import canonical_form
    b, F = 7, GF(7)
    U = _unimodular(random.Random(3), b)
    I = canonical_form(b).apply_unimodular(U)
    r = list(U[0])
    calls = []
    real = TripleForm.packed_contract

    def counting(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(TripleForm, "packed_contract", counting)
    # solve_leibniz_derivation takes one slice and the check one contraction;
    # four more slices follow
    c = solve_leibniz_derivation(I, r, F)
    assert models._checked_derivation(I, r, c) is c
    for i in range(4):
        symplectic_slice(I, [int(j == i) for j in range(b)], F)
    assert calls == [I] * 6
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
