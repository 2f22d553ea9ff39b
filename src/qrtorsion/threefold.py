"""Cohomology rings of closed orientable 3-folds, presented by triple
intersection forms.

The degree-2 part has a basis e_1..e_b and the degree-1 part the dual basis
eb_1..eb_b; the product of two degree-2 classes is read off the alternating
triple form coordinatewise.  The central question answered here is the
dichotomy: either some degree-2 vector induces a symplectic form on a
complement (possible only for odd b), or the triple form vanishes.

A form is stored by its coefficients on sorted triples and read straight
from them.  Its one kernel, ``packed_contract``, sums rows W[x] against the
form's first index with each row packed into one integer (Kronecker
substitution): entry t of a row sits in an s-bit slot at bit s t, and s
holds max|W| * sum|coeff| plus any slack the caller adds, and a sign bit,
so every slot of every sum is a signed digit below 2^(s-1) in size and the
packed sum determines its slots, which ``unpack_row`` reads back.  Each
of the three signed terms per coefficient is then one multiply-add of
integers.  A slice vector v is a column of integers, and so is each
witness of the search; a slice reads the accumulated integers of the
one-slot rows [[v_i]] (at one slot the packed row is the entry), and only
its minor is reduced into the field.  The page-2 derivation check
(``models._checked_derivation``) tests the packed rows of
packed_contract(C).  The sign convention is written once, in
``_upper_terms``; ``apply_unimodular`` reads each of its terms with its
mirror and packs its last index the same way.
"""

from __future__ import annotations

import random
from itertools import chain
from math import prod
from operator import index

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
        return all(map(field.is_zero, self.coeffs.values()))

    def _upper_terms(self, live=None):
        """Each stored coefficient I(a,c,e) = v, a < c < e, under the three
        orderings (x, y, z, s) with y < z and I(x,y,z) = s, 0-based.  Cyclic
        rotations keep the sign and transpositions flip it; this is the one
        place the sign convention is written.  Given a set live of 0-based
        indices, only the terms with x in live."""
        if live is None:
            live = range(self.b)
        for (a, c, e), v in self.coeffs.items():
            a, c, e = a - 1, c - 1, e - 1
            if a in live:
                yield a, c, e, v
            if c in live:
                yield c, a, e, -v
            if e in live:
                yield e, a, c, v

    def packed_contract(self, W, slack=0):
        """(acc, s): acc[y][z] is the packed row sum_x I(x,y,z) W[x] for
        y < z and 0 otherwise, for b integer rows W of one width n, in
        s-bit slots (module docstring) with room for slack more in each
        slot.  Each row is packed once and each signed term of
        ``_upper_terms`` with x at a nonzero row of W is one multiply-add.
        At n = 1 the packed row is the entry itself and s is 0."""
        b = self.b
        n = len(W[0]) if W else 0
        s = 0
        if n > 1:
            bound = (max(abs(x) for row in W for x in row)
                     * sum(map(abs, self.coeffs.values())) + slack)
            s = bound.bit_length() + 1
        P = [pack_row(row, s) for row in W]
        acc = [[0] * b for _ in range(b)]
        live = {x for x, u in enumerate(P) if u}
        for x, y, z, t in self._upper_terms(live):
            acc[y][z] += t * P[x]
        return acc, s

    def slice_rows(self, v):
        """The integer rows of the slice along the integer column v: the
        one-slot sums acc[y][z] of packed_contract([[v_i]]), mirrored into
        an alternating matrix."""
        b = self.b
        acc, _ = self.packed_contract([[x] for x in v])
        return [[acc[y][z] - acc[z][y] for z in range(b)] for y in range(b)]

    def apply_unimodular(self, U) -> "TripleForm":
        """Pull the form back along the integer basis change e_i -> sum_j
        U[j][i] e_j (columns of U are the new basis vectors): the value at
        i < j < k is the sum of s U[x][i] U[y][j] U[z][k] over the terms
        (x, y, z, s) of ``_upper_terms`` and their mirrors (x, z, y, -s),
        contracted one index at a time.  The last index is packed (module
        docstring): the rows U[z] are packed once, in slots with room for
        6 sum|coeff| max|U|^3, and for each i < j one packed sum of
        a U[y][j] U[z] over the terms holds the values at every k.  Its
        slots k <= j sum to less than 2^(s (j + 1) - 1) in size, so adding
        that and shifting by s (j + 1) drops them exactly; the rest are
        unpacked."""
        b = self.b
        out = TripleForm(b)
        if not self.coeffs:
            return out
        bound = (6 * sum(map(abs, self.coeffs.values()))
                 * max(abs(x) for row in U for x in row) ** 3)
        s = bound.bit_length() + 1
        P = [pack_row(row, s) for row in U]
        terms = []
        for x, y, z, t in self._upper_terms():
            terms += ((t, U[x], U[y], P[z]), (-t, U[x], U[z], P[y]))
        for i in range(b):
            ti = [(t * Ux[i], Uy, Pz) for t, Ux, Uy, Pz in terms if Ux[i]]
            for j in range(i + 1, b):
                tot = 0
                for a, Uy, Pz in ti:
                    if Uy[j]:
                        tot += a * Uy[j] * Pz
                if tot:
                    low = s * (j + 1)
                    high = (tot + (1 << (low - 1))) >> low
                    for k, val in enumerate(unpack_row(high, s, b - j - 1),
                                            j + 2):
                        if val:
                            out.coeffs[i + 1, j + 1, k] = val
        return out


def pack_row(row, s):
    """The integer sum_t row[t] 2^(s t): the row's entries in s-bit slots,
    lowest first."""
    v = 0
    for x in reversed(row):
        v = (v << s) + x
    return v


def unpack_row(v, s, n):
    """The n slots of v = sum_t d_t 2^(s t) with |d_t| < 2^(s-1), lowest
    first: each is the low s bits of v read as a signed digit, and v less
    that digit, shifted down, carries the borrow to the next slot; the top
    slot is what is left."""
    if n < 2:
        return [v] * n
    mask, half = (1 << s) - 1, 1 << (s - 1)
    out = []
    for _ in range(n - 1):
        d = v & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        v = (v - d) >> s
    out.append(v)
    return out


def symplectic_slice(I: TripleForm, v, field: Field):
    """Determinant of the alternating pairing induced by the integer vector
    v on the complement obtained by dropping v's pivot coordinate, its
    first entry nonzero in the field; None when degenerate, as it always is
    for even b, where the minor is an odd alternating matrix.  Entries are
    read through operator.index, so a Fraction raises TypeError.
    """
    v = [index(x) for x in v]
    pivot = next((i for i, x in enumerate(v) if not field.is_zero(x)), None)
    if pivot is None:
        raise ThreefoldError("slice vector must be nonzero")
    if len(v) != I.b:
        raise ThreefoldError("vector length mismatch")
    minor = [row[:pivot] + row[pivot + 1:]
             for i, row in enumerate(I.slice_rows(v)) if i != pivot]
    det = Matrix.from_int_rows(field, minor, I.b - 1, I.b - 1).determinant()
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
    """Search for an integer vector with a nondegenerate slice: standard
    basis vectors first, then every line (see exhaustive_search) or seeded
    random vectors with entries in [-9, 9].  Returns (vector, determinant)
    with the vector as integers, or None, at once for even b (see
    no_slice_exists).
    """
    b = I.b
    if no_slice_exists(b):
        return None
    units = ([int(j == i) for j in range(b)] for i in range(b))
    if exhaustive_search(field, b):
        rest = _projective_vectors(field.char, b)
    else:
        rng = random.Random(seed)
        rest = ([rng.randint(-9, 9) for _ in range(b)]
                for _ in range(SLICE_TRIALS))
    for v in chain(units, rest):
        if not all(map(field.is_zero, v)):
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
