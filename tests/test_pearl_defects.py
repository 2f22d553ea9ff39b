"""d^2 = 0 of a pearl, read off the two squares of its 2-periodic fold,
against the graded computation: the same failing components, named and
ordered the same, on generated, random, edited and degenerate pearls."""

import random
import re
from itertools import product

import pytest

from qrtorsion.complexes import (ComplexError, PeriodicComplex,
                                 TwistedPearlComplex, fold_periodic,
                                 validate_pearl)
from qrtorsion.fields import GF, QQ
from qrtorsion.generate import generate_instance
from qrtorsion.linalg import Matrix
from qrtorsion.models import random_pearl, realize_morse
from qrtorsion.threefold import ThreefoldHomology

FIELDS = [QQ, GF(5), GF(7)]


def graded_defects(P):
    """The graded components of d^2 that fail, by their 12 products: two in
    each degree of d_M d1 + d1 d_M, two in each of d1^2 + d_M d2 + d2 d_M."""
    bad = []
    for k in range(4):
        t = P.dM(k + 1) * P.d1_map(k) + P.d1_map(k - 1) * P.dM(k)
        if not t.is_zero():
            bad.append(f"d_M d1 + d1 d_M != 0 in degree {k}")
    for k, t in enumerate([P.d1_map(1) * P.d1_map(0) + P.dM(3) * P.d2,
                           P.d1_map(2) * P.d1_map(1) + P.d2 * P.dM(1)]):
        if not t.is_zero():
            bad.append(f"d1^2 + d_M d2 + d2 d_M != 0 in degree {k}")
    return bad


def edited(P, which, rng):
    """P with one seeded entry of d1[which] (d2 when which is 3) set to a
    seeded value in -2..2, which may leave it unchanged."""
    F = P.field
    d1, d2 = list(P.d1), P.d2
    M = d2 if which == 3 else d1[which]
    rows = M.rows
    rows[rng.randrange(M.nrows)][rng.randrange(M.ncols)] = \
        F.from_int(rng.randint(-2, 2))
    M = Matrix(F, rows, M.nrows, M.ncols)
    if which == 3:
        d2 = M
    else:
        d1[which] = M
    return TwistedPearlComplex(F, P.ranks, [P.dM(k) for k in (1, 2, 3)],
                               d1, d2)


def random_disc_maps(F, ranks, rng):
    """A pearl with d_M = 0 and random d1, d2: d^2 = 0 mostly fails."""
    def rand(m, n):
        return Matrix.from_int_rows(
            F, [[rng.choice([0, 0, 1, -1, 2]) for _ in range(n)]
                for _ in range(m)], m, n)
    return TwistedPearlComplex(
        F, ranks, [Matrix.zeros(F, ranks[k - 1], ranks[k]) for k in (1, 2, 3)],
        [rand(ranks[k + 1], ranks[k]) for k in range(3)],
        rand(ranks[3], ranks[0]))


def pearls(F):
    """Generated and random pearls, pearls with a zero-rank degree, and
    seeded single-entry edits of d1 and d2 of each."""
    base = []
    for seed in range(2):
        for page, b in [(2, 3), (3, 2)]:
            base.append(generate_instance(page, b, F, seed,
                                          surplus=(1, 1, 1, 1)).pearl)
        # d_M = 0, so every edit of d2 keeps d^2 = 0
        base.append(generate_instance(3, 4, F, seed).pearl)
        for b, surplus in [(0, (0, 0, 0, 0)), (1, (1, 1, 1, 1)),
                           (2, (0, 2, 2, 0))]:
            morse = realize_morse(ThreefoldHomology(b), surplus, seed=seed)
            base.append(random_pearl(morse, F, seed=seed))
    rng = random.Random(F.char)
    for ranks in [[0, 0, 0, 0], [0, 2, 2, 0], [2, 0, 0, 2], [1, 0, 3, 1],
                  [0, 1, 1, 2], [2, 3, 3, 2]]:
        base.append(random_disc_maps(F, ranks, rng))
    out = list(base)
    for P in base:
        for which in range(4):
            # d1[which] maps C_which -> C_which+1, and d2 C_0 -> C_3
            if min(P.ranks[which], P.ranks[(which + 1) % 4]):
                out.extend(edited(P, which, rng) for _ in range(3))
    return out


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_fold_squares_name_what_the_graded_products_name(monkeypatch, F):
    valid = invalid = 0
    products = []
    multiply = Matrix.__mul__
    for P in pearls(F):
        expected = graded_defects(P)
        assert validate_pearl(P) == expected
        if expected:
            invalid += 1
            with pytest.raises(ComplexError, match="^" + re.escape(
                    "invalid pearl complex: " + "; ".join(expected)) + "$"):
                fold_periodic(P)
            # built directly, a periodic complex checks its own squares
            d_oe, d_eo = P._fold
            with pytest.raises(ComplexError, match="do not compose to zero"):
                PeriodicComplex(F, d_oe.ncols, d_oe.nrows, d_oe, d_eo)
            continue
        valid += 1
        # validated, the fold multiplies nothing, and both squares vanish
        with monkeypatch.context() as m:
            m.setattr(Matrix, "__mul__",
                      lambda A, B: products.append(A) or multiply(A, B))
            fold = fold_periodic(P)
        assert products == []
        assert (fold.d_oe * fold.d_eo).is_zero()
        assert (fold.d_eo * fold.d_oe).is_zero()
        r = P.ranks
        assert (fold.n_odd, fold.n_even) == (r[1] + r[3], r[0] + r[2])
    assert valid >= 20 and invalid >= 20


def test_every_rank_one_pearl_over_f3():
    # every pearl of ranks (1, 1, 1, 1) over F3: d_M is (a, 0, c) or
    # (0, b, 0), and d1, d2 are arbitrary
    F = GF(3)
    m = [Matrix.from_int_rows(F, [[x]], 1, 1) for x in range(3)]
    dMs = [(a, 0, c) for a in range(3) for c in range(3)] + \
        [(0, b, 0) for b in (1, 2)]
    seen = set()
    for dM, d1, d2 in product(dMs, product(range(3), repeat=3), range(3)):
        P = TwistedPearlComplex(F, [1, 1, 1, 1], [m[x] for x in dM],
                                [m[x] for x in d1], m[d2])
        got = validate_pearl(P)
        assert got == graded_defects(P)
        seen.add(tuple(got))
    # valid pearls, and all six components failing at once (d_M = (1, 0, 1),
    # d1 = d2 = 1), are among them
    assert () in seen and len(max(seen, key=len)) == 6
