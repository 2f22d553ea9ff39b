"""Cohomology rings of closed orientable 3-folds, presented by triple
intersection forms.

The degree-2 part has a basis e_1..e_b and the degree-1 part the dual basis
eb_1..eb_b; the product of two degree-2 classes is read off the alternating
triple form coordinatewise.  The central question answered here is the
dichotomy: either some degree-2 vector induces a symplectic form on a
complement (possible only for odd b), or the triple form vanishes.

A form is stored by its coefficients on sorted triples and read straight
from them.  Its one kernel, ``contract``, sums rows W[x] against the form's
first index: a slice along v is contract([[w_i]]) mirrored into an
alternating matrix, and the page-2 derivation check
(``models._checked_derivation``) is contract(C).  The sign convention is
written once, in ``_upper_terms``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm, prod

from .fields import Field
from .linalg import Matrix


SLICED_ODD_B = "SlicedOddB"
ZERO_FORM = "ZeroForm"
INCOMPATIBLE = "Incompatible"


# The largest Betti number accepted: classify slices b x b matrices, so its
# time grows as b^3.
MAX_B = 256
# The most H_1 invariant factors accepted: each adds a pair of Morse cells,
# and the lift's eliminations over Q slow steeply with their number.
MAX_TORSION_FACTORS = 16


class ThreefoldError(Exception):
    pass


class ThreefoldHomology:
    """Betti number b and the H_1 invariant factors of a closed orientable
    3-fold; free ranks are then (1, b, b, 1) by duality."""

    def __init__(self, b: int, torsion=()):
        if b < 0:
            raise ThreefoldError("negative Betti number")
        if b > MAX_B:
            raise ThreefoldError(f"Betti number {b} exceeds {MAX_B}")
        tor = [int(t) for t in torsion]
        if len(tor) > MAX_TORSION_FACTORS:
            raise ThreefoldError(f"{len(tor)} invariant factors exceed "
                                 f"{MAX_TORSION_FACTORS}")
        if any(t <= 1 for t in tor):
            raise ThreefoldError("invariant factors must exceed 1")
        for a, c in zip(tor, tor[1:]):
            if c % a != 0:
                raise ThreefoldError("invariant factors must form a divisibility chain")
        self.b = b
        self.torsion = tor

    def torsion_order(self):
        return prod(self.torsion)


class TripleForm:
    """Alternating integer 3-form on b generators, stored on sorted triples
    with 1-based indices."""

    def __init__(self, b: int, entries=None):
        if b < 0:
            raise ThreefoldError("negative rank")
        if b > MAX_B:
            raise ThreefoldError(f"rank {b} exceeds {MAX_B}")
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
        b = self.b
        if not (1 <= i <= b and 1 <= j <= b and 1 <= k <= b):
            t = next(t for t in (i, j, k) if not 1 <= t <= b)
            raise ThreefoldError(f"index {t} out of range 1..{b}")
        if i == j or i == k or j == k:
            return None, 0
        # the parity of the permutation sorting the triple is that of its
        # inversion count
        inversions = (i > j) + (i > k) + (j > k)
        return tuple(sorted((i, j, k))), -1 if inversions & 1 else 1

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

    def _upper_terms(self):
        """Each stored coefficient I(a,c,e) = v, a < c < e, under the three
        orderings (x, y, z, s) with y < z and I(x,y,z) = s, 0-based.  Cyclic
        rotations keep the sign and transpositions flip it; this is the one
        place the sign convention is written."""
        for (a, c, e), v in self.coeffs.items():
            a, c, e = a - 1, c - 1, e - 1
            yield a, c, e, v
            yield c, a, e, -v
            yield e, a, c, v

    def signed_terms(self):
        """The nonzero values of the form on ordered triples, as flat
        (x, y, z, value) tuples with 0-based indices: each of _upper_terms
        and its mirror (x, z, y, -value), six per stored coefficient."""
        out = []
        for x, y, z, s in self._upper_terms():
            out += ((x, y, z, s), (x, z, y, -s))
        return out

    def contract(self, W):
        """The upper triangle of sum_x W[x] I(x, ., .) for b integer rows W
        of one width: up[y][z] is the row sum_x I(x,y,z) W[x] for y < z and
        a zero row otherwise, read off coeffs in three signed row updates
        per stored coefficient, skipping the zero rows of W."""
        b = self.b
        n = len(W[0]) if W else 0
        live = [any(row) for row in W]
        up = [[[0] * n for _ in range(b)] for _ in range(b)]
        for x, y, z, s in self._upper_terms():
            if live[x]:
                row = up[y]
                row[z] = [t + s * u for t, u in zip(row[z], W[x])]
        return up

    def slice_matrix(self, v, field: Field) -> Matrix:
        """The alternating matrix of the pairing (x, y) -> form(v, x, y); v is
        a length-b column of integers or field scalars and has itself in the
        kernel.  Over Q, v is scaled to integers w = d v by the lcm d of its
        denominators; the slice is contract([[w_i]]), summed in integers,
        and the integer matrix is scaled back by 1/d."""
        b = self.b
        if len(v) != b:
            raise ThreefoldError("vector length mismatch")
        if field.char:
            d, w = 1, v
        else:
            d = lcm(*(x.denominator for x in v))
            w = [x.numerator * (d // x.denominator) for x in v]
        up = self.contract([[x] for x in w])
        rows = [[up[y][z][0] - up[z][y][0] for z in range(b)]
                for y in range(b)]
        M = Matrix.from_int_rows(field, rows, b, b)
        return M if d == 1 else M.scale(Fraction(1, d))

    def apply_unimodular(self, U) -> "TripleForm":
        """Pull the form back along the integer basis change e_i -> sum_j
        U[j][i] e_j (columns of U are the new basis vectors): the value at
        i < j < k is the sum of s U[x][i] U[y][j] U[z][k] over the signed
        terms (x, y, z, s), contracted one index at a time."""
        b = self.b
        out = TripleForm(b)
        terms = [(s, U[x], U[y], U[z]) for x, y, z, s in self.signed_terms()]
        for i in range(b):
            ti = [(s * Ux[i], Uy, Uz) for s, Ux, Uy, Uz in terms if Ux[i]]
            for j in range(i + 1, b):
                tj = [(a * Uy[j], Uz) for a, Uy, Uz in ti if Uy[j]]
                for k in range(j + 1, b):
                    val = sum(a * Uz[k] for a, Uz in tj)
                    if val:
                        out.coeffs[i + 1, j + 1, k + 1] = val
        return out


def symplectic_slice(I: TripleForm, v, field: Field):
    """Determinant of the alternating pairing induced by v on the complement
    obtained by dropping v's pivot coordinate; None when degenerate, as it
    always is for even b, where the minor is an odd alternating matrix.
    """
    if all(field.is_zero(x) for x in v):
        raise ThreefoldError("slice vector must be nonzero")
    M = I.slice_matrix(v, field)
    pivot = next(i for i, x in enumerate(v) if not field.is_zero(x))
    keep = [i for i in range(I.b) if i != pivot]
    sub = M.submatrix(keep, keep)
    det = sub.determinant()
    return None if field.is_zero(det) else det


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
SLICE_TRIALS = 200


def no_slice_exists(b: int) -> bool:
    """Whether no form of rank b has a slice: for even b the complement of
    v's pivot coordinate has odd dimension b - 1, and an alternating matrix
    of odd size is singular.  find_slice then evaluates no slice."""
    return b % 2 == 0


def exhaustive_search(field: Field, b: int) -> bool:
    """Whether find_slice enumerates every line of F_p^b, so that finding no
    slice is definitive: over a prime field with at most EXHAUSTIVE_BOUND
    candidate vectors.  Otherwise it tries SLICE_TRIALS seeded random
    vectors, and absence is only evidence."""
    return field.char != 0 and field.char ** b <= EXHAUSTIVE_BOUND


def find_slice(I: TripleForm, field: Field, seed: int = 0):
    """Search for a vector with a nondegenerate slice: standard basis
    vectors first, then every line (see exhaustive_search) or seeded random
    vectors.  Returns (vector, determinant) or None, at once for even b
    (see no_slice_exists).
    """
    b = I.b
    if no_slice_exists(b):
        return None
    one, zero = field.one(), field.zero()
    for i in range(b):
        v = [one if j == i else zero for j in range(b)]
        det = symplectic_slice(I, v, field)
        if det is not None:
            return v, det
    if exhaustive_search(field, b):
        for ints in _projective_vectors(field.char, b):
            v = [field.from_int(x) for x in ints]
            det = symplectic_slice(I, v, field)
            if det is not None:
                return v, det
        return None
    rng = random.Random(seed)
    for _ in range(SLICE_TRIALS):
        v = [field.from_int(rng.randint(-9, 9)) for _ in range(b)]
        if all(field.is_zero(x) for x in v):
            continue
        det = symplectic_slice(I, v, field)
        if det is not None:
            return v, det
    return None


def dichotomy_class(I: TripleForm, field: Field, seed: int = 0) -> str:
    """Classify the form over the field: ZeroForm, SlicedOddB, or
    Incompatible (nonzero form with no slice, so no narrow representation
    can exist)."""
    if I.is_zero_over(field):
        return ZERO_FORM
    return INCOMPATIBLE if find_slice(I, field, seed) is None else SLICED_ODD_B
