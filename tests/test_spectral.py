import random

import pytest

from qrtorsion.fields import QQ, GF, SignClass
from qrtorsion.linalg import Matrix
from qrtorsion.complexes import TwistedPearlComplex
from qrtorsion.spectral import (page1, page2_rate, closed_form_r,
                                collapsing_page, minimal_model, Contraction,
                                PAGE2, PAGE3, NOT_NARROW, SpectralError,
                                WrongPageError)
from qrtorsion.threefold import ThreefoldHomology, TripleForm
from qrtorsion.models import (Page2Spec, Page3Spec, realize_morse,
                              homology_bases, lift_derivation_page2,
                              lift_derivation_page3, random_pearl)


def perfect_b1(field, rho, mu, lam, alpha):
    """Ranks (1,1,1,1), vanishing Morse part, d1 with diagonal entries
    (rho, mu, lam), d2 = alpha."""
    z = Matrix.zeros(field, 1, 1)
    d1 = [Matrix.from_int_rows(field, [[v]], 1, 1) for v in (rho, mu, lam)]
    return TwistedPearlComplex(field, [1, 1, 1, 1], [z, z, z], d1,
                               Matrix.from_int_rows(field, [[alpha]], 1, 1))


def identity_bases(field, ranks):
    return [Matrix.identity(field, r) for r in ranks]


def test_page1_hand_example():
    F = QQ
    P = perfect_b1(F, 0, 3, 0, 5)
    H = identity_bases(F, P.ranks)
    pg = page1(P, H)
    assert pg.ranks == [1, 1, 1, 1]
    assert pg.d1star[1].rows[0][0] == F.from_int(3)
    assert pg.homology_ranks() == [1, 0, 0, 1]


def test_page2_rate_hand_example():
    # with no Morse part the corrections vanish: the rate is the d2 entry
    F = QQ
    P = perfect_b1(F, 0, 3, 0, 5)
    H = identity_bases(F, P.ranks)
    assert page2_rate(P, H) == F.from_int(5)
    assert closed_form_r(P, H) == F.from_int(5)


def test_page2_rate_wrong_page():
    F = QQ
    z = Matrix.zeros(F, 1, 1)
    P = TwistedPearlComplex(F, [1, 1, 1, 1], [z, z, z], [z, z, z], z)
    H = identity_bases(F, P.ranks)
    with pytest.raises(WrongPageError):
        page2_rate(P, H)


def test_collapse_classification():
    F = QQ
    H = identity_bases(F, [1, 1, 1, 1])
    assert collapsing_page(perfect_b1(F, 0, 3, 0, 5), H) == PAGE3
    assert collapsing_page(perfect_b1(F, 2, 0, 3, 0), H) == PAGE2
    z = Matrix.zeros(F, 1, 1)
    dead = TwistedPearlComplex(F, [1, 1, 1, 1], [z, z, z], [z, z, z], z)
    assert collapsing_page(dead, H) == NOT_NARROW
    exact = TwistedPearlComplex(
        F, [1, 1, 1, 1], [z, z, z],
        [Matrix.from_int_rows(F, [[1]], 1, 1) for _ in range(3)], z)
    # d1 squared nonzero: not a valid pearl structure
    with pytest.raises(Exception):
        collapsing_page(exact, H)


def test_page2_spec_collapses_at_two():
    spec = ThreefoldHomology(3)
    C = realize_morse(spec, seed=1)
    P, H, _ = lift_derivation_page2(
        Page2Spec(spec, TripleForm(3, {(1, 2, 3): 1}), [1, 0, 0]), C, QQ,
        seed=2)
    assert collapsing_page(P, H) == PAGE2


def test_rate_paths_agree_with_spec():
    for b, seed in [(2, 3), (4, 5)]:
        spec = ThreefoldHomology(b)
        C = realize_morse(spec, (1, 1, 1, 1), seed=seed)
        J = [[0] * b for _ in range(b)]
        for i in range(0, b, 2):
            J[i][i + 1], J[i + 1][i] = 1, -1
        for F in (QQ, GF(7)):
            P, H, _ = lift_derivation_page3(Page3Spec(spec, J, 3), C, F,
                                            seed=seed + 1)
            lit = page2_rate(P, H)
            assert lit == F.from_int(3)
            assert SignClass(F, lit) == SignClass(F, closed_form_r(P, H))


def test_rate_invariant_under_internal_choices():
    spec = ThreefoldHomology(2)
    C = realize_morse(spec, (0, 1, 1, 0), seed=9)
    F = GF(5)
    P, H, _ = lift_derivation_page3(Page3Spec(spec, [[0, 1], [-1, 0]], 2),
                                    C, F, seed=10)
    vals = {page2_rate(P, H, random.Random(s)) for s in range(4)}
    assert vals == {F.from_int(2)}


def test_contraction_side_conditions():
    spec = ThreefoldHomology(3, [5])
    C = realize_morse(spec, (1, 2, 2, 1), seed=14)
    F = GF(7)
    P = random_pearl(C, F, seed=3)
    H = homology_bases(C, F)
    con = Contraction(C.to_field(F), H)
    for k in range(4):
        K = con.K(k)
        assert (con.pi(k) * H[k]) == Matrix.identity(F, H[k].ncols)
        # d K + K d = 1 - iota pi, checked degreewise
        lhs = P.dM(k + 1) * K + (con.K(k - 1) * P.dM(k) if k >= 1 else
                                 Matrix.zeros(F, C.ranks[k], C.ranks[k]))
        rhs = Matrix.identity(F, C.ranks[k]) - H[k] * con.pi(k)
        assert lhs == rhs


MORSE_CASES = [(QQ, ThreefoldHomology(3, [3, 9]), (1, 2, 2, 1)),
               (GF(5), ThreefoldHomology(4), (2, 3, 3, 2)),
               (GF(101), ThreefoldHomology(2, [3]), (2, 3, 3, 2))]


@pytest.mark.parametrize("F, spec, surplus", MORSE_CASES,
                         ids=["Q", "F5", "F101"])
def test_contraction_reads_the_rows_of_the_whole_inverse(F, spec, surplus):
    # pi and b_coords come from the complementary minor of [h | b] only;
    # they are the rows of the whole [h | b | s]^-1
    C = realize_morse(spec, surplus, seed=21)
    CF, H = C.to_field(F), homology_bases(C, F)
    con = Contraction(CF, H)
    for k in range(4):
        n, h, nb = CF.ranks[k], H[k].ncols, con.b[k].ncols
        s = con.s[k - 1] if k else Matrix.zeros(F, n, 0)
        Tinv = H[k].hstack(con.b[k], s).inverse()
        assert con.pi(k) == Tinv.submatrix(range(h), range(n))
        assert con.b_coords(k) == Tinv.submatrix(range(h, h + nb), range(n))


@pytest.mark.parametrize("F, spec, surplus", MORSE_CASES,
                         ids=["Q", "F5", "F101"])
@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("seed", [None, 3], ids=["minor", "rng"])
def test_contraction_refuses_dependent_representatives(F, spec, surplus, k,
                                                       seed):
    # the first representative in degree k replaced by a boundary (zero in
    # degree 3, which has none): still cycles of the right count, but no
    # longer a basis of the homology
    C = realize_morse(spec, surplus, seed=21)
    CF, H = C.to_field(F), homology_bases(C, F)
    d = CF.boundary(k + 1)
    j = next((j for j in range(d.ncols) if not d.cols([j]).is_zero()), None)
    v = d.cols([j]) if j is not None else Matrix.zeros(F, CF.ranks[k], 1)
    H = list(H)
    H[k] = v.hstack(H[k].cols(range(1, H[k].ncols)))
    rng = None if seed is None else random.Random(seed)
    with pytest.raises(SpectralError, match=f"^degree {k}: homology "
                       "representatives do not base the Morse homology$"):
        Contraction(CF, H, rng)


def test_minimal_model_preserves_pages():
    spec = ThreefoldHomology(2, [3])
    C = realize_morse(spec, (1, 1, 1, 1), seed=4)
    F = GF(5)
    P, H, _ = lift_derivation_page3(Page3Spec(spec, [[0, 1], [-1, 0]], 1),
                                    C, F, seed=5)
    mm = minimal_model(P, H)
    assert all(mm.dM(k).is_zero() for k in range(1, 4))
    pg = page1(P, H)
    for k in range(3):
        assert mm.d1[k] == pg.d1star[k]
    assert mm.d2.rows[0][0] == page2_rate(P, H)
    modelH = identity_bases(F, mm.ranks)
    assert collapsing_page(mm, modelH) == collapsing_page(P, H)


def test_minimal_model_returns_the_minimal_complex_and_checks_it(monkeypatch):
    spec = ThreefoldHomology(2, [3])
    C = realize_morse(spec, (1, 1, 1, 1), seed=4)
    F = GF(5)
    P, H, _ = lift_derivation_page3(Page3Spec(spec, [[0, 1], [-1, 0]], 1),
                                    C, F, seed=5)
    mm = minimal_model(P, H)
    assert isinstance(mm, TwistedPearlComplex)
    assert list(mm.ranks) == [h.ncols for h in H]
    assert all(mm.dM(k).is_zero() for k in range(1, 4))
    # with a zero homotopy the comparison maps are still built and checked
    monkeypatch.setattr(Contraction, "K", lambda self, k: Matrix.zeros(
        F, self.ranks[k + 1], self.ranks[k]))
    with pytest.raises(SpectralError, match="^phi is not a chain map$"):
        minimal_model(P, H)
