"""Exact dense linear algebra over a field, plus integer Smith normal form.

A :class:`Matrix` is integer rows over one denominator: ``num`` holds the
integer rows and ``den`` one positive integer, and the matrix is num / den.
Over F_p, ``num`` holds residues in [0, p) and ``den`` is 1.  Over Q the
pair is canonical (gcd of ``den`` and every entry of ``num`` is 1), so equal
matrices have equal pairs.  Products, sums, stacking and elimination work
on ``num`` in integers; Fractions are built only at the boundary, by the
``rows`` read view and by ``determinant`` (after von zur Gathen-Gerhard,
Modern Computer Algebra, ch. 5).  The constructor reads raw field values
(Fractions or ints); ``from_parsed`` takes a document's scalars as
(numerator, denominator) pairs, so reading a document builds no Fraction.

An integer matrix is a :class:`Matrix` over Q at denominator 1
(``from_int_rows``): ``smith_normal_form`` takes no other, and ``to_field``
reduces one mod p.  ``smith_normal_form`` is the one Smith pass, carrying
Uinv, V and V^-1.

Every product goes through one kernel on integer rows, ``_product``, a
row-wise product after Gustavson (ACM TOMS 4(3), 1978) for the sparse maps
of chain complexes: a zero operand gives a zero result with no dot product,
a zero row of the left factor gives a zero row, a row with one nonzero
entry a at column j gives a times row j of the right factor, and every
other row takes the column dot products.  Every result row is a fresh
list.

Elimination is where verification spends its time (the pearl complexes of
large instances are tens of rows by tens of columns).  ``Matrix._eliminate``
is the only elimination pass; over Q it is Bareiss's fraction-free
elimination on ``num``.  ``rank``, ``determinant`` and the pivot read of
``torsion._image_and_section`` need only its forward sweep to an echelon
form, which fixes the pivots, the row swaps and det; a matrix keeps the
pivots and det of that sweep (not its rows) from the first such read, so it
is swept forward at most once.  ``rref``, ``solve``, ``kernel_basis`` and
``inverse`` carry a pass of their own, not kept, to Gauss-Jordan form, and
the last three read its rows directly, so only their own result is put in
canonical form.  ``inverse`` eliminates [num | den I] and checks its
product in place, building no identity or stacked matrix.
0 x n and n x 0 matrices are legal everywhere; the determinant of the 0 x 0
matrix is 1 (empty-product convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from .fields import Field


class LinAlgError(Exception):
    pass


def _scaled(num, k):
    return [[k * x for x in r] for r in num]


def _shape(rows, nrows, ncols):
    """(nrows, ncols) of a list of rows, unless given; ragged rows raise."""
    ncols = (len(rows[0]) if rows else 0) if ncols is None else ncols
    if any(len(r) != ncols for r in rows):
        raise LinAlgError("ragged rows")
    return len(rows) if nrows is None else nrows, ncols


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _product(A, B, ncols, p):
    """The integer rows of A·B for integer rows A (m x k) and B (k x ncols),
    each entry reduced ``% p`` when p is nonzero.

    If either operand is all zero the result is zero with no dot product; a
    zero row of A gives a zero row, and a row with one nonzero entry a, at
    column j, gives a times B[j] (a copy of B[j] when a = 1); every other
    row takes the column dot products.  A product with no such sparse row
    is one comprehension, so a dense product pays only one ``count(0)`` per
    row of A.  Every result row is a new list.
    """
    if not any(map(any, A)) or not any(map(any, B)):
        return [[0] * ncols for _ in A]
    # A and B are nonzero, so k, ncols >= 1; nz[i] is row i's nonzero count
    k = len(B)
    nz = [k - r.count(0) for r in A]
    if min(nz) > 1:
        cols = list(zip(*B))
        if p:
            return [[sum(map(mul, r, c)) % p for c in cols] for r in A]
        return [[sum(map(mul, r, c)) for c in cols] for r in A]
    cols = None
    out = []
    for r, n in zip(A, nz):
        if n == 0:
            out.append([0] * ncols)
        elif n == 1:
            a = sum(r)  # the one nonzero entry
            b = B[r.index(a)]
            out.append(list(b) if a == 1 else
                       [a * x % p for x in b] if p else [a * x for x in b])
        else:
            if cols is None:
                cols = list(zip(*B))
            out.append([sum(map(mul, r, c)) % p for c in cols] if p
                       else [sum(map(mul, r, c)) for c in cols])
    return out


class Matrix:
    """Dense matrix over a :class:`Field`, stored as ``num`` / ``den``.

    ``num`` is a list of integer rows and ``den`` a positive integer.  Over
    F_p the rows hold residues in [0, p) and ``den`` is 1; over Q the pair
    is canonical: ``den > 0`` and the gcd of ``den`` and all of ``num`` is
    1.  A row list, once a matrix holds it, is never written again, so
    results may share rows with their operands.  ``rows`` is the read view:
    a fresh list of rows of field values (Fractions over Q).
    """

    __slots__ = ("field", "nrows", "ncols", "num", "den", "_pass")

    def __init__(self, field: Field, rows, nrows=None, ncols=None):
        """The matrix of raw field values (Fractions or ints over Q)."""
        rows = [list(r) for r in rows]
        self.field = field
        self._pass = None
        self.nrows, self.ncols = _shape(rows, nrows, ncols)
        p = field.char
        if p:
            self.num = [[x % p for x in r] for r in rows]
            self.den = 1
        else:
            # over the lcm of lowest-terms denominators: already canonical
            d = lcm(*(x.denominator for r in rows for x in r))
            self.num = [[x.numerator * (d // x.denominator) for x in r]
                        for r in rows]
            self.den = d

    @classmethod
    def _make(cls, field, num, den, nrows, ncols):
        """Wrap integer rows over den, reducing the pair to canonical form
        over Q; the rows are taken over, not copied."""
        if den != 1:
            g = den
            for r in num:
                if g == 1:
                    break
                g = gcd(g, *r)
            if den < 0:
                g = -g
            if g != 1:
                num = [[x // g for x in r] for r in num]
                den //= g
        m = cls.__new__(cls)
        m.field, m.num, m.den, m.nrows, m.ncols = field, num, den, nrows, ncols
        m._pass = None
        return m

    @property
    def rows(self):
        """A fresh list of rows of field values: Fractions over Q."""
        if self.field.char:
            return [list(r) for r in self.num]
        d = self.den
        return [[Fraction(x, d) for x in r] for r in self.num]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls._make(field, [[0] * ncols for _ in range(nrows)], 1,
                         nrows, ncols)

    @classmethod
    def identity(cls, field, n):
        return cls._make(field, _identity_rows(n), 1, n, n)

    @classmethod
    def from_int_rows(cls, field, int_rows, nrows=None, ncols=None):
        """The matrix of integer rows: over Q an integer matrix (den 1),
        built with no per-entry denominator read."""
        p = field.char
        rows = [[x % p for x in r] if p else list(r) for r in int_rows]
        return cls._make(field, rows, 1, *_shape(rows, nrows, ncols))

    @classmethod
    def from_parsed(cls, field, rows, nrows, ncols):
        """The matrix of rows of nrows x ncols parsed scalars: residues in
        [0, p) over F_p, whose rows are taken over, and (numerator,
        denominator) pairs in lowest terms over Q."""
        if field.char:
            return cls._make(field, rows, 1, nrows, ncols)
        d = lcm(*(q for r in rows for _, q in r))
        return cls._make(field, [[n * (d // q) for n, q in r] for r in rows],
                         d, nrows, ncols)

    # -- basic algebra -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.nrows == self.nrows and other.ncols == self.ncols
                and other.den == self.den and other.num == self.num)

    def _combine(self, other, op):
        """Entrywise op (add or sub) over the lcm of the denominators."""
        self._check_shape(other, same=True)
        A, B, d = self.num, other.num, lcm(self.den, other.den)
        if d != self.den:
            A = _scaled(A, d // self.den)
        if d != other.den:
            B = _scaled(B, d // other.den)
        p = self.field.char
        num = [[op(a, b) % p for a, b in zip(r1, r2)] if p
               else list(map(op, r1, r2)) for r1, r2 in zip(A, B)]
        return Matrix._make(self.field, num, d, self.nrows, self.ncols)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        F = self.field
        p = F.char
        num = [[-a % p for a in r] if p else [-a for a in r] for r in self.num]
        return Matrix._make(F, num, self.den, self.nrows, self.ncols)

    def __mul__(self, other):
        """Matrix product: :func:`_product` on the two ``num``s (``% p`` per
        entry over F_p), over the product of the denominators over Q.  A
        zero operand or zero row of self costs no dot product, a row of
        self with one nonzero entry a at column j is a times row j of
        other, and every row of the result is a fresh list."""
        if self.ncols != other.nrows:
            raise LinAlgError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        return Matrix._make(self.field,
                            _product(self.num, other.num, other.ncols,
                                     self.field.char),
                            self.den * other.den, self.nrows, other.ncols)

    def scale(self, c):
        """c times the matrix, for a raw field value c."""
        F = self.field
        p = F.char
        if p:
            num = [[c * a % p for a in r] for r in self.num]
            return Matrix._make(F, num, 1, self.nrows, self.ncols)
        num = _scaled(self.num, c.numerator)
        return Matrix._make(F, num, self.den * c.denominator, self.nrows,
                            self.ncols)

    def transpose(self):
        num = ([list(c) for c in zip(*self.num)] if self.nrows
               else [[] for _ in range(self.ncols)])
        return Matrix._make(self.field, num, self.den, self.ncols, self.nrows)

    def is_zero(self):
        return not any(map(any, self.num))

    def _check_integral(self, what):
        if self.field.char or self.den != 1:
            raise LinAlgError(f"{what} needs an integer matrix (over Q at "
                              f"den 1), not one over {self.field!r} at den {self.den}")

    def to_field(self, field):
        """This integer matrix reduced mod p over F_p; over Q the same
        matrix, sharing its rows."""
        self._check_integral("to_field")
        p = field.char
        num = [[x % p for x in r] for r in self.num] if p else self.num
        return Matrix._make(field, num, 1, self.nrows, self.ncols)

    def _check_shape(self, other, same=False):
        if other.field != self.field:
            raise LinAlgError("field mismatch")
        if same and (other.nrows != self.nrows or other.ncols != self.ncols):
            raise LinAlgError("shape mismatch")

    # -- slicing / stacking ------------------------------------------------

    def cols(self, js):
        return Matrix._make(self.field, [[r[j] for j in js] for r in self.num],
                            self.den, self.nrows, len(js))

    def submatrix(self, ris, cjs):
        num = self.num
        return Matrix._make(self.field, [[num[i][j] for j in cjs] for i in ris],
                            self.den, len(ris), len(cjs))

    def hstack(self, *others):
        """The blocks side by side over the lcm of their denominators
        (canonical again: each prime power of the lcm is some block's, and
        that block keeps an entry it does not divide)."""
        for other in others:
            self._check_shape(other)
            if other.nrows != self.nrows:
                raise LinAlgError("row count mismatch in hstack")
        blocks = (self,) + others
        d = lcm(*(m.den for m in blocks))
        num = [[] for _ in range(self.nrows)]
        for m in blocks:
            part = m.num if m.den == d else _scaled(m.num, d // m.den)
            num = [r1 + r2 for r1, r2 in zip(num, part)]
        return Matrix._make(self.field, num, d, self.nrows,
                            sum(m.ncols for m in blocks))

    @classmethod
    def block(cls, field, grid, row_dims, col_dims):
        """Assemble a block matrix over the lcm of the block denominators;
        ``None`` blocks are zero."""
        d = lcm(*(blk.den for line in grid for blk in line if blk is not None))
        num = [[0] * sum(col_dims) for _ in range(sum(row_dims))]
        r0 = 0
        for bi, rdim in enumerate(row_dims):
            c0 = 0
            for bj, cdim in enumerate(col_dims):
                blk = grid[bi][bj]
                if blk is not None:
                    if blk.nrows != rdim or blk.ncols != cdim:
                        raise LinAlgError("block shape mismatch")
                    k = d // blk.den
                    for i, r in enumerate(blk.num):
                        num[r0 + i][c0:c0 + cdim] = r if k == 1 else \
                            [k * x for x in r]
                c0 += cdim
            r0 += rdim
        return cls._make(field, num, d, sum(row_dims), sum(col_dims))

    # -- elimination -------------------------------------------------------

    def _eliminate(self, reduce=True):
        """One elimination pass on ``num``: (rows, prev, pivot columns, det),
        where det is det(num), 0 unless rank = nrows = ncols.

        The pivot of each column is its first nonzero entry at or below the
        current row, and each pivot row is updated into the rows below it.
        With ``reduce`` it is also updated into the rows above, a
        Gauss-Jordan pass whose R = rows / prev is the reduced row echelon
        form; without, the pass stops at an echelon form, which gives the
        same pivots, row swaps and det for about half the work (Bareiss,
        Math. Comp. 22, 1968).  Over F_p each pivot row is scaled to a unit
        pivot, only its nonzero entries are walked, and prev is 1.  Over Q,
        with pivot piv, previous pivot prev and pivot row prow, every
        updated row becomes (piv row - row[pc] prow) // prev, exact by
        Sylvester's identity, and prev ends as the last pivot; with
        ``reduce`` every pivot entry ends equal to it, so it divides all of
        R.  The rows below the pivot row are zero left of the pivot column,
        so only their tails are computed.  ``num``'s own rows are never
        written.
        """
        p = self.field.char
        nrows, ncols = self.nrows, self.ncols
        pivots = []
        pr = 0
        sign = 1
        prev = 1
        if p:
            rows = [list(r) for r in self.num]
            det = 1
        else:
            rows = list(self.num)
        for pc in range(ncols):
            if pr == nrows:
                break
            pivot_row = next((i for i in range(pr, nrows) if rows[i][pc]), None)
            if pivot_row is None:
                continue
            if pivot_row != pr:
                rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
                sign = -sign
            prow = rows[pr]
            piv = prow[pc]
            if p:
                # rows pr.. are zero left of pc, so the pivot row is too
                det = det * piv % p
                inv = pow(piv, -1, p)
                nz = [(j, prow[j] * inv % p) for j in range(pc + 1, ncols)
                      if prow[j]]
                prow[pc] = 1
                for j, v in nz:
                    prow[j] = v
                for i in range(nrows) if reduce else range(pr + 1, nrows):
                    row = rows[i]
                    c = row[pc]
                    if not c or i == pr:
                        continue
                    row[pc] = 0
                    for j, v in nz:
                        row[j] = (row[j] - c * v) % p
            else:
                head = [0] * (pc + 1)
                tail = prow[pc + 1:]
                for i in range(pr + 1, nrows):
                    row = rows[i]
                    c = row[pc]
                    if c:
                        rows[i] = head + [(piv * x - c * y) // prev for x, y
                                          in zip(row[pc + 1:], tail)]
                    elif piv != prev:
                        rows[i] = head + [piv * x // prev for x in row[pc + 1:]]
                for i in range(pr) if reduce else ():
                    row = rows[i]
                    c = row[pc]
                    if c:
                        rows[i] = [(piv * x - c * y) // prev
                                   for x, y in zip(row, prow)]
                    elif piv != prev:
                        rows[i] = [piv * x // prev for x in row]
                prev = piv
            pivots.append(pc)
            pr += 1
        full = pr == nrows == ncols
        if p:
            return rows, 1, pivots, sign * det % p if full else 0
        return rows, prev, pivots, sign * prev if full else 0

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        rows, prev, pivots, _ = self._eliminate()
        return Matrix._make(self.field, rows, prev, self.nrows,
                            self.ncols), pivots

    def _forward(self):
        """(pivots, det(num)) of the forward pass, kept from the first read;
        callers must not write the pivot list."""
        kept = self._pass
        if kept is None:
            _, _, pivots, det = self._eliminate(reduce=False)
            kept = self._pass = pivots, det
        return kept

    def rank(self):
        return len(self._forward()[0])

    def kernel_basis(self):
        """Matrix whose columns form a basis of the kernel: for each free
        column j, e_j minus the pivot coordinates read off R = rows / prev
        of one Gauss-Jordan pass."""
        rows, prev, pivots, _ = self._eliminate()
        p = self.field.char
        free = [j for j in range(self.ncols) if j not in pivots]
        num = [[0] * len(free) for _ in range(self.ncols)]
        for idx, j in enumerate(free):
            num[j][idx] = prev
            for r, pc in zip(rows, pivots):
                num[pc][idx] = -r[j] % p if p else -r[j]
        return Matrix._make(self.field, num, prev, self.ncols, len(free))

    def determinant(self):
        """det(num) / den^n: a Fraction over Q, a residue over F_p."""
        if self.nrows != self.ncols:
            raise LinAlgError("determinant of non-square matrix")
        det = self._forward()[1]
        if self.field.char:
            return det
        return Fraction(det, self.den ** self.nrows)

    def solve(self, b: "Matrix"):
        """Some X with self @ X = b, or None when there is no solution; X is
        read off R = rows / prev of one Gauss-Jordan pass on [self | b]."""
        if b.nrows != self.nrows:
            raise LinAlgError("rhs row count mismatch")
        rows, prev, pivots, _ = self.hstack(b)._eliminate()
        n = self.ncols
        if pivots and pivots[-1] >= n:
            return None
        num = [[0] * b.ncols for _ in range(n)]
        for r, pc in zip(rows, pivots):
            num[pc] = r[n:]
        return Matrix._make(self.field, num, prev, n, b.ncols)

    def inverse(self):
        """X = self^-1, read off one Gauss-Jordan pass on the integer rows
        [num | den I]: num X = den I, so X is the right block of
        R = rows / prev.  The product check self X = I is read in place,
        as num times that block equals den prev I."""
        n = self.nrows
        if n != self.ncols:
            raise LinAlgError("inverse of non-square matrix")
        wide = [r + [0] * n for r in self.num]
        for i, r in enumerate(wide):
            r[n + i] = self.den
        rows, prev, pivots, _ = Matrix._make(self.field, wide, 1, n,
                                             2 * n)._eliminate()
        X = [r[n:] for r in rows]
        one = self.den * prev
        if pivots != list(range(n)) or any(
                r[i] != one or r.count(0) != n - 1 for i, r in
                enumerate(_product(self.num, X, n, self.field.char))):
            raise LinAlgError("matrix is singular")
        return Matrix._make(self.field, X, prev, n, n)

    def __repr__(self):
        F = self.field
        body = "; ".join(" ".join(F.format(a) for a in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols} over {F!r}: [{body}])"


# ---------------------------------------------------------------------------
# Smith normal form of integer matrices (over Q at denominator 1)
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class SmithDecomposition:
    """A @ V = Uinv @ D with Uinv, V unimodular and D diagonal with a
    divisibility chain; Vinv is the inverse of V; all integer matrices."""

    Uinv: Matrix
    D: Matrix
    V: Matrix
    Vinv: Matrix

    @property
    def diagonal(self):
        n = min(self.D.nrows, self.D.ncols)
        return [self.D.num[i][i] for i in range(n)]


def smith_normal_form(A: Matrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix, in one pass on a copy of
    ``A.num`` and on identity rows; any other matrix raises
    :class:`LinAlgError`.

    Pivoting picks the smallest-absolute-value nonzero entry, the first in
    row-major order among equals (rows swapped before columns), so the
    output is deterministic.  Each row operation on D is recorded on Uinv
    as the inverse column operation, and each column operation on V as the
    inverse row operation on Vinv, so A V = Uinv D.

    A pivot is kept only once it divides every entry of the block below and
    to the right of it.  Integer row and column operations keep that block a
    multiple of the pivot, so every later pivot is a multiple of this one:
    the diagonal comes out as a divisibility chain with no repair pass.
    Nothing is smaller than a +-1 entry, so the pivot search stops at the
    first one, and nothing fails to divide by it, so a +-1 pivot skips the
    divisibility scan: neither shortcut changes an operation.
    """
    A._check_integral("Smith normal form")
    F, n, m = A.field, A.nrows, A.ncols
    D = [list(r) for r in A.num]
    # Uinv and V are carried transposed, so their column operations are
    # operations on rows
    UT, VT, Vinv = _identity_rows(n), _identity_rows(m), _identity_rows(m)

    def row_op(i, j, q):
        # row_i -= q * row_j in D; col_j += q * col_i in Uinv
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        UT[j] = [a + q * b for a, b in zip(UT[j], UT[i])]

    def col_op(i, j, q, rows):
        # col_i -= q * col_j in D and V; row_j += q * row_i in Vinv.  Only
        # the given rows of D can hold a nonzero entry in col_j.
        for r in rows:
            r[i] -= q * r[j]
        VT[i] = [a - q * b for a, b in zip(VT[i], VT[j])]
        Vinv[j] = [a + q * b for a, b in zip(Vinv[j], Vinv[i])]

    def smallest(t):
        # the first nonzero entry of least absolute value in the block at
        # (t, t), or None when the block is zero
        best, least = None, 0
        for i in range(t, n):
            row = D[i]
            for j in range(t, m):
                a = row[j]
                if a and (best is None or abs(a) < least):
                    if a == 1 or a == -1:
                        return i, j
                    best, least = (i, j), abs(a)
        return best

    for t in range(min(n, m)):
        # re-select the smallest-abs nonzero pivot on every pass; this keeps
        # intermediate entries from exploding on scrambled inputs
        while True:
            best = smallest(t)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                D[t], D[bi] = D[bi], D[t]
                UT[t], UT[bi] = UT[bi], UT[t]
            if bj != t:
                for r in D:
                    r[t], r[bj] = r[bj], r[t]
                VT[t], VT[bj] = VT[bj], VT[t]
                Vinv[t], Vinv[bj] = Vinv[bj], Vinv[t]
            p = D[t][t]
            cleared = True
            for i in range(t + 1, n):
                a = D[i][t]
                if a != 0:
                    row_op(i, t, a // p)
                    if D[i][t] != 0:
                        cleared = False
            # rows above t are zero past their pivots, so once column t is
            # cleared below the pivot, only row t has an entry in it
            rows = (D[t],) if cleared else D
            for j in range(t + 1, m):
                a = D[t][j]
                if a != 0:
                    col_op(j, t, a // p, rows)
                    if D[t][j] != 0:
                        cleared = False
            if not cleared:
                continue
            if p == 1 or p == -1:
                break
            bad = next((i for i in range(t + 1, n)
                        for j in range(t + 1, m) if D[i][j] % p), None)
            if bad is None:
                break
            # fold a non-divisible row into the pivot row so the next pass
            # strictly shrinks the pivot
            row_op(t, bad, -1)
        if best is None:
            break
        if D[t][t] < 0:
            # negate row t of D, which negates column t of Uinv
            D[t] = [-a for a in D[t]]
            UT[t] = [-a for a in UT[t]]

    def transposed(T):
        return Matrix._make(F, [list(c) for c in zip(*T)], 1, len(T), len(T))

    return SmithDecomposition(transposed(UT), Matrix._make(F, D, 1, n, m),
                              transposed(VT), Matrix._make(F, Vinv, 1, m, m))
