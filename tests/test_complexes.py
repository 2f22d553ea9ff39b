import hashlib
import random
from fractions import Fraction

import pytest

from qrtorsion import linalg
from qrtorsion.fields import QQ, GF
from qrtorsion.linalg import LinAlgError, Matrix, smith_normal_form
from qrtorsion.complexes import (BasedChainComplex, ComplexError,
                                 TwistedPearlComplex, fold_periodic,
                                 integral_homology, validate_pearl,
                                 admissibility_error)
from qrtorsion.threefold import ThreefoldHomology
from qrtorsion.models import realize_morse, _unimodular
from util import random_acyclic


def test_square_zero_enforced():
    d1 = Matrix.from_int_rows(QQ, [[1]], 1, 1)
    d2 = Matrix.from_int_rows(QQ, [[1]], 1, 1)
    with pytest.raises(ComplexError):
        BasedChainComplex(QQ, [1, 1, 1], [d1, d2])


def test_boundary_padding():
    C = BasedChainComplex(QQ, [2, 1], [Matrix.zeros(QQ, 2, 1)])
    assert C.boundary(0).ncols == 2 and C.boundary(0).nrows == 0
    assert C.boundary(5).is_zero()


def test_integral_homology_circle_like():
    # 0 -> Z -0-> Z -> 0 : two free classes
    C = BasedChainComplex(QQ, [1, 1], [Matrix.zeros(QQ, 1, 1)])
    H, reps = integral_homology(C)
    assert H.free_ranks == [1, 1]
    assert H.torsion == [[], []]
    assert reps[0].ncols == 1


def test_integral_homology_torsion():
    C = BasedChainComplex(QQ, [1, 1], [Matrix.from_int_rows(QQ, [[6]], 1, 1)])
    H, _ = integral_homology(C)
    assert H.free_ranks == [0, 0]
    assert H.torsion == [[6], []]
    assert H.torsion_order(0) == 6
    assert admissibility_error(H.torsion[0], GF(5)) is None
    assert admissibility_error(H.torsion[0], GF(3)) == \
        "characteristic 3 divides invariant factor 6"
    assert admissibility_error(H.torsion[0], QQ) is None


@pytest.mark.parametrize("field, rows", [(QQ, [[Fraction(1, 2)]]),
                                         (GF(5), [[1]])],
                         ids=["Q-den-2", "F5"])
def test_integer_matrix_guards_refuse_other_matrices(field, rows):
    # an integer matrix is a Matrix over Q at denominator 1; Smith normal
    # form, reduction to a field and integral homology refuse any other
    A = Matrix(field, rows)
    with pytest.raises(LinAlgError):
        smith_normal_form(A)
    with pytest.raises(LinAlgError):
        A.to_field(GF(3))
    with pytest.raises(ComplexError):
        # the Smith pass of d_1 = A refuses
        BasedChainComplex(field, [1, 1], [A]).homology


def test_to_field_reduces_an_integer_matrix():
    A = Matrix.from_int_rows(QQ, [[6, -1], [0, 12]])
    assert A.den == 1
    assert A.to_field(GF(5)) == Matrix.from_int_rows(GF(5), [[1, 4], [0, 2]])
    assert A.to_field(QQ) == A


def test_integral_homology_matches_realize_morse():
    for tor, shape in [([], (0, 0, 0, 0)), ([3, 9], (0, 2, 2, 0)),
                       ([5], (1, 1, 1, 1))]:
        spec = ThreefoldHomology(3, tor)
        C = realize_morse(spec, shape, seed=11)
        H, _ = integral_homology(C)
        assert H.free_ranks == [1, 3, 3, 1]
        assert H.torsion == [[], tor, [], []]


def _q_solve_homology(C):
    """integral_homology with the boundaries' coordinates from a solve over
    Q, kept as the reference: d_k = Z Y with Z the kernel basis of degree
    k - 1 (the unit basis in degree 0), and the Smith pass of Y gives
    degree k - 1's factors and representatives and, past its rank, the
    kernel basis of degree k."""
    free_ranks, torsion, reps = [], [], []
    Z = Matrix.identity(QQ, C.ranks[0])
    for k in range(1, C.top_degree + 1):
        Y = Z.solve(C.boundary(k))
        assert Y is not None
        assert all(x.denominator == 1 for r in Y.rows for x in r)
        s = smith_normal_form(Matrix.from_int_rows(
            QQ, [[x.numerator for x in r] for r in Y.rows], Y.nrows, Y.ncols))
        rank = sum(1 for a in s.diagonal if a != 0)
        free_ranks.append(Y.nrows - rank)
        torsion.append([a for a in s.diagonal if a > 1])
        reps.append(Z * Matrix.from_int_rows(
            QQ, [r[rank:] for r in s.Uinv.num], Y.nrows, Y.nrows - rank))
        Z = Matrix.from_int_rows(QQ, [r[rank:] for r in s.V.num],
                                 Y.ncols, Y.ncols - rank)
    free_ranks.append(Z.ncols)
    torsion.append([])
    reps.append(Z)
    return free_ranks, torsion, reps


def _random_integral_complex(rng):
    """Free summands, torsion blocks (not in divisibility order) and unit
    birth pairs in up to five degrees, behind a unimodular basis change."""
    n = rng.randint(1, 4)
    free = [rng.randint(0, 2) for _ in range(n + 1)]
    # the entries of d_k: sources in degree k, targets in degree k - 1
    vals = [[]] + [[rng.choice([1, 2, 3, 4, 6, 9, 10])
                    for _ in range(rng.randint(0, 3))] for _ in range(n)]
    size = [len(v) for v in vals] + [0]
    ranks = [free[k] + size[k] + size[k + 1] for k in range(n + 1)]
    pairs = [_unimodular(rng, r, inverse=True) for r in ranks]
    bnds = []
    for k in range(1, n + 1):
        m, c = ranks[k - 1], ranks[k]
        d = [[0] * c for _ in range(m)]
        for a, v in enumerate(vals[k]):
            d[free[k - 1] + size[k - 1] + a][free[k] + a] = v
        bnds.append(Matrix.from_int_rows(QQ, pairs[k - 1][1], m, m)
                    * Matrix.from_int_rows(QQ, d, m, c)
                    * Matrix.from_int_rows(QQ, pairs[k][0], c, c))
    return BasedChainComplex(QQ, ranks, bnds)


def _check_against_q_solve(C):
    H, reps = integral_homology(C)
    free_ranks, torsion, want = _q_solve_homology(C)
    assert (H.free_ranks, H.torsion) == (free_ranks, torsion)
    assert list(reps) == want


def test_integral_homology_matches_q_solve_on_random_complexes():
    rng = random.Random(8)
    for _ in range(150):
        _check_against_q_solve(_random_integral_complex(rng))


@pytest.mark.parametrize("b", [0, 1, 2, 3, 5])
def test_integral_homology_matches_q_solve_on_morse_complexes(b):
    for tor, shape in [([], (0, 0, 0, 0)), ([3], (1, 1, 1, 1)),
                       ([2, 6], (0, 2, 2, 0)), ([5, 25], (2, 3, 3, 2))]:
        for seed in range(3):
            C = realize_morse(ThreefoldHomology(b, tor), shape, seed=seed)
            _check_against_q_solve(C)


def _check_representatives_base_the_free_part(C):
    """What integral_homology promises, whatever representatives it picks:
    integral cycles whose classes stay independent modulo the boundaries
    over Q and over every prime field dividing no invariant factor,
    rank [d_{k+1} | R_k] = rank d_{k+1} + free_k."""
    H, reps = integral_homology(C)
    factors = [a for t in H.torsion for a in t]
    fields = [QQ] + [F for F in map(GF, (3, 5, 7, 11, 101))
                     if admissibility_error(factors, F) is None]
    for k, R in enumerate(reps):
        assert R.field == QQ and R.den == 1
        assert (R.nrows, R.ncols) == (C.ranks[k], H.free_ranks[k])
        assert (C.boundary(k) * R).is_zero()
        for F in fields:
            d, Rp = C.boundary(k + 1).to_field(F), R.to_field(F)
            both = Matrix.block(F, [[d, Rp]], [C.ranks[k]],
                                [d.ncols, Rp.ncols])
            assert both.rank() == d.rank() + H.free_ranks[k]


def test_representatives_base_the_free_part_modulo_admissible_primes():
    rng = random.Random(8)
    for _ in range(150):
        _check_representatives_base_the_free_part(
            _random_integral_complex(rng))
    for b in (0, 1, 2, 3, 5):
        for tor, shape in [([], (0, 0, 0, 0)), ([3], (1, 1, 1, 1)),
                           ([2, 6], (0, 2, 2, 0)), ([5, 25], (2, 3, 3, 2)),
                           ([3, 9], (2, 3, 3, 2))]:
            for seed in range(3):
                _check_representatives_base_the_free_part(
                    realize_morse(ThreefoldHomology(b, tor), shape, seed))


def _digest(complexes):
    """sha256 of what the Morse layer hands on, complex by complex: the
    boundaries, free ranks, invariant factors and representative rows."""
    h = hashlib.sha256()
    for C in complexes:
        H, reps = integral_homology(C)
        h.update(repr((H.free_ranks, H.torsion, [R.num for R in reps],
                       [d.num for d in C.boundaries[1:]])).encode())
    return h.hexdigest()


def test_morse_layer_output_is_pinned():
    grid = (realize_morse(ThreefoldHomology(b, tor), shape, seed)
            for b in (1, 2, 3, 4, 9) for tor in ((), (3,), (3, 9))
            for shape in ((0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2),
                          (0, 2, 2, 0))
            for seed in range(50))
    assert _digest(grid) == \
        "64e721776762cbe5bcae350de738da16f152c646f922aee887541c25eeadcd90"


def test_integral_homology_of_random_complexes_is_pinned():
    rng = random.Random(8)
    assert _digest(_random_integral_complex(rng) for _ in range(150)) == \
        "b4821661f776d4ab14064cf3fae879dc2eb56cd32a198b91bade67d9117bc117"


def test_integral_homology_is_computed_once_on_integers(monkeypatch):
    C = realize_morse(ThreefoldHomology(3, [3]), (1, 1, 1, 1), seed=2)
    fresh = BasedChainComplex(QQ, C.ranks, C.boundaries[1:])
    built, snf = [], []
    real_init, real_snf = Matrix.__init__, linalg.smith_normal_form

    def init(self, field, *args, **kwargs):
        built.append(field)
        real_init(self, field, *args, **kwargs)

    def counting(A):
        snf.append(A)
        return real_snf(A)

    monkeypatch.setattr(Matrix, "__init__", init)
    monkeypatch.setattr("qrtorsion.complexes.smith_normal_form", counting)
    first = integral_homology(fresh)
    # three Smith passes, one per boundary in the kernel basis below it:
    # each pass's Uinv serves the degree below and its V the degree of the
    # boundary; the top degree has no boundaries.  No matrix is read from
    # field values (Matrix.__init__)
    assert len(snf) == 3 and built == []
    assert integral_homology(fresh) is first and len(snf) == 3
    assert first == integral_homology(C)


def test_random_acyclic_is_acyclic():
    rng = random.Random(1)
    for _ in range(20):
        C = random_acyclic(GF(5), rng)
        for k in range(C.top_degree + 1):
            # ker d_k = im d_{k+1} degreewise
            assert C.boundary(k).rank() + C.boundary(k + 1).rank() == C.ranks[k]


def test_validate_pearl_flags_bad_anticommutation():
    F = GF(3)
    ranks = [1, 1, 1, 1]
    dM = [Matrix.zeros(F, 1, 1) for _ in range(3)]
    d1 = [Matrix.from_int_rows(F, [[1]], 1, 1) for _ in range(3)]
    d2 = Matrix.zeros(F, 1, 1)
    P = TwistedPearlComplex(F, ranks, dM, d1, d2)
    assert validate_pearl(P)  # d1 squared is nonzero


def test_fold_periodic_blocks():
    F = GF(5)
    spec = ThreefoldHomology(1)
    morse = realize_morse(spec, seed=0).to_field(F)
    P = TwistedPearlComplex(F, morse.ranks, morse.boundaries[1:],
                            [Matrix.zeros(F, morse.ranks[k + 1],
                                          morse.ranks[k]) for k in range(3)],
                            Matrix.zeros(F, morse.ranks[3], morse.ranks[0]))
    assert not validate_pearl(P)
    fold = fold_periodic(P)
    assert fold.n_odd == morse.ranks[1] + morse.ranks[3]
    assert fold.n_even == morse.ranks[0] + morse.ranks[2]
    assert not fold.is_acyclic()  # no quantum corrections, homology survives
