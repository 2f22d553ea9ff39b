"""Cohomology rings of closed orientable 3-folds, presented by triple
intersection forms.

The degree-2 part has a basis e_1..e_b and the degree-1 part the dual basis
eb_1..eb_b; the product of two degree-2 classes is read off the alternating
triple form coordinatewise.  The central question answered here is the
dichotomy: either some degree-2 vector induces a symplectic form on a
complement (possible only for odd b), or the triple form vanishes.
"""

from __future__ import annotations

import random
from math import prod

from .fields import Field, FieldError, PrimeField
from .linalg import Matrix


SLICED_ODD_B = "SlicedOddB"
ZERO_FORM = "ZeroForm"
INCOMPATIBLE = "Incompatible"


class ThreefoldError(Exception):
    pass


class ThreefoldHomology:
    """Betti number b and the H_1 invariant factors of a closed orientable
    3-fold; free ranks are then (1, b, b, 1) by duality."""

    def __init__(self, b: int, torsion=()):
        if b < 0:
            raise ThreefoldError("negative Betti number")
        tor = [int(t) for t in torsion]
        if any(t <= 1 for t in tor):
            raise ThreefoldError("invariant factors must exceed 1")
        for a, c in zip(tor, tor[1:]):
            if c % a != 0:
                raise ThreefoldError("invariant factors must form a divisibility chain")
        self.b = b
        self.torsion = tor

    @property
    def free_ranks(self):
        return [1, self.b, self.b, 1]

    def torsion_order(self):
        return prod(self.torsion)


class TripleForm:
    """Alternating integer 3-form on b generators, stored on sorted triples
    with 1-based indices."""

    def __init__(self, b: int, entries=None):
        if b < 0:
            raise ThreefoldError("negative rank")
        self.b = b
        self.coeffs = {}
        for (i, j, k), v in (entries or {}).items() if isinstance(entries, dict) \
                else (entries or []):
            self.set(i, j, k, v)

    def set(self, i, j, k, v):
        key, sign = self._normalize(i, j, k)
        if key is None:
            if v != 0:
                raise ThreefoldError(f"repeated index in ({i},{j},{k}) forces 0")
            return
        v = sign * int(v)
        if v == 0:
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = v

    def _normalize(self, i, j, k):
        for t in (i, j, k):
            if not (1 <= t <= self.b):
                raise ThreefoldError(f"index {t} out of range 1..{self.b}")
        if len({i, j, k}) < 3:
            return None, 0
        key = tuple(sorted((i, j, k)))
        # parity of the permutation sorting the triple
        perm = [i, j, k]
        sign = 1
        for a in range(3):
            for c in range(a + 1, 3):
                if perm[a] > perm[c]:
                    sign = -sign
        return key, sign

    def value(self, i, j, k) -> int:
        key, sign = self._normalize(i, j, k)
        if key is None:
            return 0
        return sign * self.coeffs.get(key, 0)

    def entries(self):
        """Sorted (triple, value) pairs with nonzero values."""
        return sorted(self.coeffs.items())

    def is_zero_over(self, field: Field) -> bool:
        return all(field.is_zero(field.from_int(v)) for v in self.coeffs.values())

    def signed_terms(self):
        """The nonzero values of the form on ordered triples, as
        ((i, j, k), value) pairs: each stored coefficient under its six
        orderings.  Cyclic rotations keep the sign and transpositions flip
        it; every other method reads the alternating expansion from here."""
        out = []
        for (i, j, k), v in self.coeffs.items():
            out += (((i, j, k), v), ((j, k, i), v), ((k, i, j), v),
                    ((j, i, k), -v), ((i, k, j), -v), ((k, j, i), -v))
        return out

    def slice_matrix(self, v, field: Field) -> Matrix:
        """The alternating matrix of the pairing (x, y) -> form(v, x, y); v is
        a length-b column of field scalars and has itself in the kernel.
        Entries are summed as bare values and reduced once each."""
        if len(v) != self.b:
            raise ThreefoldError("vector length mismatch")
        rows = [[0] * self.b for _ in range(self.b)]
        for (i, j, k), s in self.signed_terms():
            rows[j - 1][k - 1] += s * v[i - 1]
        return Matrix.from_int_rows(field, rows, self.b, self.b)

    def apply_unimodular(self, U) -> "TripleForm":
        """Pull the form back along the integer basis change e_i -> sum_j
        U[j][i] e_j (columns of U are the new basis vectors): the value at
        i < j < k is the sum of s U[x][i] U[y][j] U[z][k] over the signed
        terms ((x, y, z), s), contracted one index at a time."""
        b = self.b
        out = TripleForm(b)
        terms = [(s, U[x - 1], U[y - 1], U[z - 1])
                 for (x, y, z), s in self.signed_terms()]
        for i in range(b):
            ti = [(s * Ux[i], Uy, Uz) for s, Ux, Uy, Uz in terms if Ux[i]]
            for j in range(i + 1, b):
                tj = [(a * Uy[j], Uz) for a, Uy, Uz in ti if Uy[j]]
                for k in range(j + 1, b):
                    val = sum(a * Uz[k] for a, Uz in tj)
                    if val:
                        out.coeffs[i + 1, j + 1, k + 1] = val
        return out


def product_h2(I: TripleForm, i: int, j: int):
    """Product of the i-th and j-th degree-2 basis classes, as integer
    coordinates in the dual degree-1 basis: the k-th coordinate is the form
    evaluated at (i, j, k)."""
    for t in (i, j):
        if not (1 <= t <= I.b):
            raise ThreefoldError(f"index {t} out of range 1..{I.b}")
    return [I.value(i, j, k) for k in range(1, I.b + 1)]


def symplectic_slice(I: TripleForm, v, field: Field):
    """Determinant of the alternating pairing induced by v on the complement
    obtained by dropping v's pivot coordinate; None when degenerate.

    A successful slice forces b odd, which is checked.
    """
    if all(field.is_zero(x) for x in v):
        raise ThreefoldError("slice vector must be nonzero")
    M = I.slice_matrix(v, field)
    pivot = next(i for i, x in enumerate(v) if not field.is_zero(x))
    keep = [i for i in range(I.b) if i != pivot]
    sub = M.submatrix(keep, keep)
    det = sub.determinant()
    if field.is_zero(det):
        return None
    if I.b % 2 == 0:
        raise ThreefoldError("nondegenerate alternating forms need even dimension")
    return det


def _projective_vectors(p: int, b: int):
    """All length-b vectors over F_p with leading nonzero coordinate 1."""
    for lead in range(b):
        tail = b - lead - 1
        count = p ** tail
        for code in range(count):
            vec = [0] * lead + [1]
            c = code
            for _ in range(tail):
                vec.append(c % p)
                c //= p
            yield vec


EXHAUSTIVE_BOUND = 10 ** 5


def find_slice(I: TripleForm, field: Field, trials: int = 200, seed: int = 0):
    """Search for a vector with a nondegenerate slice.

    Standard basis vectors first; over a prime field with at most 10^5
    candidate vectors the search is exhaustive (so absence is definitive),
    otherwise `trials` seeded random vectors follow and absence is only
    evidence.  Returns (vector, determinant) or None.
    """
    b = I.b
    if b == 0:
        return None
    one, zero = field.one(), field.zero()
    for i in range(b):
        v = [one if j == i else zero for j in range(b)]
        det = symplectic_slice(I, v, field)
        if det is not None:
            return v, det
    if isinstance(field, PrimeField) and field.p ** b <= EXHAUSTIVE_BOUND:
        for ints in _projective_vectors(field.p, b):
            v = [field.from_int(x) for x in ints]
            det = symplectic_slice(I, v, field)
            if det is not None:
                return v, det
        return None
    rng = random.Random(seed)
    for _ in range(trials):
        v = [field.from_int(rng.randint(-9, 9)) for _ in range(b)]
        if all(field.is_zero(x) for x in v):
            continue
        det = symplectic_slice(I, v, field)
        if det is not None:
            return v, det
    return None


def ring_generated_by_h2(I: TripleForm, field: Field) -> bool:
    """Whether the degree-2 classes generate the whole ring over the field:
    their pairwise products must span the degree-1 part (degree 0 is then
    reached through the duality pairing)."""
    b = I.b
    if b == 0:
        return False
    cols = []
    for i in range(1, b + 1):
        for j in range(i + 1, b + 1):
            cols.append(Matrix.from_int_rows(
                field, [[c] for c in product_h2(I, i, j)], nrows=b, ncols=1))
    if not cols:
        return False
    span = Matrix.hstack_all(field, cols, nrows=b)
    return span.rank() == b


def dichotomy_class(I: TripleForm, field: Field, trials: int = 200,
                    seed: int = 0) -> str:
    """Classify the form over the field: ZeroForm, SlicedOddB, or
    Incompatible (nonzero form with no slice, so no narrow representation
    can exist)."""
    if I.is_zero_over(field):
        return ZERO_FORM
    found = find_slice(I, field, trials, seed)
    if found is not None:
        if I.b % 2 == 0:
            raise ThreefoldError("a slice exists only for odd b")
        return SLICED_ODD_B
    return INCOMPATIBLE
