"""Oracle tests of the triple form's expansions: apply_unimodular, the
contraction (``packed_contract`` read back through ``unpack_row``) and
the slice rows along integer vectors (``slice_rows``) against brute-force
sums of ``value`` over every index triple, and symplectic_slice against
sympy's determinant of the complement minor, on random sparse forms with
b <= 7.  The packed kernel (``packed_contract``) is also checked at its
edges: entries and coefficients up to 2^80 of mixed signs, dense forms,
zero rows, sums that cancel, and neighbouring slots at opposite extremes,
which carry a borrow through every slot; and models._checked_derivation
against the equations it checks, written out over the field.

hypothesis and sympy are test-only dependencies; the library never imports
them.
"""

import random
from itertools import combinations, product

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st

from qrtorsion.fields import QQ, GF
from qrtorsion.linalg import Matrix
from qrtorsion.models import (ModelError, NO_DERIVATION, _checked_derivation,
                              _unimodular, solve_leibniz_derivation)
from qrtorsion.generate import canonical_form
from qrtorsion.threefold import (TripleForm, pack_row, symplectic_slice,
                                 unpack_row)

FIELDS = [QQ, GF(5), GF(7)]


@st.composite
def sparse_forms(draw, max_b=7):
    """A form set on shuffled index triples, so set() has signs to sort."""
    b = draw(st.integers(0, max_b))
    I = TripleForm(b)
    triples = list(combinations(range(1, b + 1), 3))
    if triples:
        for t in draw(st.lists(st.sampled_from(triples), max_size=6)):
            I.set(*draw(st.permutations(t)), draw(st.integers(-4, 4)))
    return I


@settings(max_examples=60, deadline=None)
@given(sparse_forms(), st.integers(0, 2 ** 32 - 1))
def test_apply_unimodular_matches_brute_force(I, seed):
    b = I.b
    U = _unimodular(random.Random(seed), b)
    expected = {}
    for i, j, k in combinations(range(1, b + 1), 3):
        s = sum(I.value(x, y, z) * U[x - 1][i - 1] * U[y - 1][j - 1]
                * U[z - 1][k - 1]
                for x, y, z in product(range(1, b + 1), repeat=3))
        if s:
            expected[i, j, k] = s
    assert I.apply_unimodular(U).coeffs == expected


@settings(max_examples=60, deadline=None)
@given(sparse_forms(), st.integers(1, 3), st.data())
def test_contract_matches_brute_force(I, n, data):
    b = I.b
    W = [data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
         for _ in range(b)]
    expected = [[[sum(W[x][t] * I.value(x + 1, y + 1, z + 1)
                      for x in range(b)) if y < z else 0 for t in range(n)]
                 for z in range(b)] for y in range(b)]
    assert _unpacked_contract(I, W) == expected


@settings(max_examples=60, deadline=None)
@given(sparse_forms(), st.data())
def test_slice_matrix_matches_brute_force(I, data):
    b = I.b
    v = data.draw(st.lists(st.integers(-9, 9), min_size=b, max_size=b))
    assert I.slice_rows(v) == _brute_slice(I, v)


@st.composite
def odd_forms(draw):
    """A form of odd rank with up to 14 coefficients, so that a good share
    of its slices is nondegenerate."""
    b = draw(st.sampled_from([3, 5, 7]))
    triples = list(combinations(range(1, b + 1), 3))
    return TripleForm(b, {t: draw(st.integers(-4, 4)) for t in
                          draw(st.lists(st.sampled_from(triples),
                                        max_size=14, unique=True))})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.one_of(sparse_forms(), odd_forms()),
       st.data())
def test_symplectic_slice_matches_sympy_minor(F, I, data):
    b = I.b
    v = data.draw(st.lists(st.integers(-9, 9), min_size=b, max_size=b))
    if b == 0 or all(F.is_zero(x) for x in v):
        return
    pivot = next(i for i, x in enumerate(v) if not F.is_zero(x))
    keep = [i for i in range(b) if i != pivot]
    minor = sympy.Matrix(len(keep), len(keep), lambda j, k: sum(
        x * I.value(i + 1, keep[j] + 1, keep[k] + 1) for i, x in enumerate(v)))
    det = minor.det()
    if F.char:
        det %= F.char
    expected = None if det == 0 else F.from_int(int(det))
    assert symplectic_slice(I, v, F) == expected


BIG = 2 ** 80
big_ints = st.one_of(st.integers(-BIG, BIG),
                     st.sampled_from([BIG, -BIG, BIG - 1, 1 - BIG, 1, -1]))


@st.composite
def big_forms(draw, max_b=8):
    """A form with coefficients up to 2^80 of either sign: every triple set
    (dense) or a few, for b <= max_b."""
    b = draw(st.integers(0, max_b))
    triples = list(combinations(range(1, b + 1), 3))
    if triples and not draw(st.booleans()):
        triples = draw(st.lists(st.sampled_from(triples), unique=True,
                                max_size=8))
    return TripleForm(b, {t: draw(big_ints) for t in triples})


@st.composite
def big_rows(draw, b):
    """b integer rows of one width 1..b+2: each all zero, alternating
    between +-2^80 (neighbouring slots at opposite extremes), or random
    entries up to 2^80."""
    n = draw(st.integers(1, b + 2))
    sign = draw(st.sampled_from([1, -1]))
    return [draw(st.one_of(
        st.just([0] * n),
        st.just([sign * BIG * (-1) ** t for t in range(n)]),
        st.lists(big_ints, min_size=n, max_size=n))) for _ in range(b)]


def _denominator(F, data):
    """A denominator up to 2^80 that is nonzero in F."""
    d = data.draw(st.integers(1, BIG))
    return F.from_int(d + 1 if F.char and d % F.char == 0 else d)


def _brute_slice(I, v):
    """The slice along the integer column v, summed over every index."""
    b = I.b
    return [[sum(v[i] * I.value(i + 1, j + 1, k + 1) for i in range(b))
             for k in range(b)] for j in range(b)]


def _unpacked_contract(I, W):
    """The rows of I.packed_contract(W) through unpack_row, as
    _checked_derivation reads them: the row sum_x I(x,y,z) W[x] at y < z,
    and a zero row elsewhere, where the packed sum is 0."""
    n = len(W[0]) if W else 0
    acc, s = I.packed_contract(W)
    return [[unpack_row(v, s, n) for v in row] for row in acc]


def _brute_contract(I, W):
    b, n = I.b, len(W[0]) if W else 0
    return [[[sum(W[x][t] * I.value(x + 1, y + 1, z + 1) for x in range(b))
              if y < z else 0 for t in range(n)]
             for z in range(b)] for y in range(b)]


@settings(max_examples=60, deadline=None)
@given(big_forms().flatmap(lambda I: st.tuples(st.just(I), big_rows(I.b))))
def test_packed_contract_matches_brute_force_at_large_entries(case):
    I, W = case
    assert _unpacked_contract(I, W) == _brute_contract(I, W)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 90), st.data())
def test_rows_at_the_slot_bound_unpack_through_the_borrow(n, s, data):
    # every slot at +-(2^(s-1) - 1), the most a slot holds, with neighbours
    # of opposite signs: each signed digit borrows from the next
    top = (1 << (s - 1)) - 1 if n > 1 else BIG
    row = data.draw(st.lists(st.sampled_from([top, -top, 0]), min_size=n,
                             max_size=n))
    assert unpack_row(pack_row(row, s), s, n) == row
    alternating = [top * (-1) ** t for t in range(n)]
    assert unpack_row(pack_row(alternating, s), s, n) == alternating


def test_contract_sums_that_cancel_to_zero():
    # I(2,3,1) = I(2,3,4) = 2^80, so the (2, 3) row is 2^80 (W[1] + W[4])
    # and vanishes for W[4] = -W[1], beside nonzero neighbours
    b = 5
    I = TripleForm(b, {(1, 2, 3): BIG, (2, 3, 4): BIG, (1, 4, 5): -BIG})
    row = [BIG, -BIG, 1, -1, BIG - 1, 0]
    W = [row, [7] * 6, [0] * 6, [-x for x in row], [BIG] * 6]
    up = _unpacked_contract(I, W)
    assert up == _brute_contract(I, W)
    assert up[1][2] == [0] * 6
    assert any(any(r) for line in up for r in line)
    acc, _ = I.packed_contract(W)
    assert acc[1][2] == 0


@settings(max_examples=60, deadline=None)
@given(big_forms(), st.data())
def test_slice_matrix_matches_brute_force_at_large_entries(I, data):
    b = I.b
    v = data.draw(st.lists(big_ints, min_size=b, max_size=b))
    assert I.slice_rows(v) == _brute_slice(I, v)


@settings(max_examples=30, deadline=None)
@given(big_forms(max_b=6), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_apply_unimodular_matches_brute_force_at_large_entries(I, seed,
                                                               unimodular):
    # the pull-back sums are the same for any integer U: one with entries
    # up to 2^40 of either sign fills the slots further
    b = I.b
    rng = random.Random(seed)
    U = _unimodular(rng, b) if unimodular else \
        [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(b)] for _ in range(b)]
    expected = {}
    for i, j, k in combinations(range(1, b + 1), 3):
        s = sum(I.value(x, y, z) * U[x - 1][i - 1] * U[y - 1][j - 1]
                * U[z - 1][k - 1]
                for x, y, z in product(range(1, b + 1), repeat=3))
        if s:
            expected[i, j, k] = s
    assert I.apply_unimodular(U).coeffs == expected


def _first_failure(I, r, c):
    """The first equation of solve_leibniz_derivation that c fails over its
    field, written out entry by entry, or None."""
    F, b = c.field, I.b
    C, rF = c.rows, [F.from_int(x) for x in r]
    for i, k, j in product(range(b), repeat=3):
        lhs = F.zero()
        for m in range(b):
            lhs = F.add(lhs, F.mul(F.from_int(I.value(i + 1, m + 1, k + 1)),
                                   C[m][j]))
        rhs = F.sub(rF[i] if j == k else F.zero(),
                    rF[k] if i == j else F.zero())
        if not F.is_zero(F.sub(lhs, rhs)):
            return "the duality pairing"
    if any(not F.is_zero(F.add(C[i][j], C[j][i]))
           for i in range(b) for j in range(b)):
        return "antisymmetry"
    for row in C:
        total = F.zero()
        for x, y in zip(row, rF):
            total = F.add(total, F.mul(x, y))
        if not F.is_zero(total):
            return "c r = 0"
    return None


def _check(I, r, c):
    want = _first_failure(I, r, c)
    if want is None:
        assert _checked_derivation(I, r, c) is c
    else:
        with pytest.raises(ModelError) as err:
            _checked_derivation(I, r, c)
        assert str(err.value) == \
            f"{NO_DERIVATION}: the slice solution fails {want}"


@st.composite
def page2_specs(draw):
    """(I, r): a big form with a big rate vector, or a transported block
    form scaled by a big K with r = U^T e_1, which has a derivation."""
    if draw(st.booleans()):
        I = draw(big_forms(max_b=6))
        return I, draw(st.lists(big_ints, min_size=I.b, max_size=I.b))
    b = draw(st.sampled_from([1, 3, 5]))
    U = _unimodular(random.Random(draw(st.integers(0, 2 ** 32 - 1))), b)
    K = draw(st.sampled_from([1, -3, BIG + 1]))
    base = canonical_form(b).apply_unimodular(U)
    return TripleForm(b, {t: K * v for t, v in base.entries()}), list(U[0])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), page2_specs(), st.data())
def test_checked_derivation_matches_its_equations(F, spec, data):
    # random candidates (large, mixed signs, over large denominators over
    # Q), the slice solve where it has one, and that solve bumped at one
    # entry
    I, r = spec
    b = I.b
    den = _denominator(F, data)
    rows = [[F.div(F.from_int(data.draw(big_ints)), den) for _ in range(b)]
            for _ in range(b)]
    _check(I, r, Matrix(F, rows, b, b))
    if not any(F.from_int(x) for x in r):
        return
    c = solve_leibniz_derivation(I, r, F)
    if c is not None:
        _check(I, r, c)
        m, j = data.draw(st.integers(0, b - 1)), data.draw(
            st.integers(0, b - 1))
        bumped = c.rows
        bumped[m][j] = F.add(bumped[m][j], F.div(F.one(), den))
        _check(I, r, Matrix(F, bumped, b, b))


@pytest.mark.parametrize("b", [3, 5, 7])
def test_bumped_derivation_fails_the_pairing_at_large_denominators(b):
    # the transported form scaled by K = 2^80 + 1 has the derivation c / K:
    # a denominator of 81 bits, and every single-entry bump by 1 / K^2
    # must still fail the duality pairing
    K = BIG + 1
    rng = random.Random(b)
    U = _unimodular(rng, b)
    base = canonical_form(b).apply_unimodular(U)
    I = TripleForm(b, {t: K * v for t, v in base.entries()})
    r = list(U[0])
    c = _checked_derivation(I, r, solve_leibniz_derivation(I, r, QQ))
    assert c.den % K == 0 and c.den > BIG
    for m, j in product(range(b), repeat=2):
        rows = c.rows
        rows[m][j] += QQ.parse(f"1/{K * K}")
        with pytest.raises(ModelError) as err:
            _checked_derivation(I, r, Matrix(QQ, rows, b, b))
        assert str(err.value) == \
            f"{NO_DERIVATION}: the slice solution fails the duality pairing"
