"""Exact dense linear algebra over a field, plus integer Smith normal form.

Elimination is where verification spends its time (the pearl complexes of
large instances are tens of rows by tens of columns), so it runs on
integers: residues over F_p, and over Q rows cleared of denominators.  One
Gauss-Jordan pass (``Matrix._eliminate``) yields both the reduced row
echelon form and the determinant; over Q it is Bareiss's fraction-free
elimination carried through to Gauss-Jordan form, and builds Fractions only
for its results.  Products likewise take integer dot products.
0 x n and n x 0 matrices are legal everywhere; the determinant of the 0 x 0
matrix is 1 (empty-product convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul

from .fields import Field


class LinAlgError(Exception):
    pass


def _clear_denominators(values):
    """(integers, d) with integers = d * values, d the lcm of the
    denominators of the rationals (or ints) in ``values``."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


class Matrix:
    """Dense matrix over a :class:`Field`; entries are raw field values."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows, nrows=None, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows) if nrows is None else nrows
        self.ncols = (len(self.rows[0]) if self.rows else 0) if ncols is None else ncols
        for r in self.rows:
            if len(r) != self.ncols:
                raise LinAlgError("ragged rows")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)], nrows, ncols)

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.rows[i][i] = one
        return m

    @classmethod
    def from_int_rows(cls, field, int_rows, nrows=None, ncols=None):
        rows = [[field.from_int(x) for x in r] for r in int_rows]
        return cls(field, rows, nrows, ncols)

    # -- basic algebra -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.nrows == self.nrows and other.ncols == self.ncols
                and other.rows == self.rows)

    def __add__(self, other):
        self._check_shape(other, same=True)
        F = self.field
        rows = [[F.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return Matrix(F, rows, self.nrows, self.ncols)

    def __sub__(self, other):
        self._check_shape(other, same=True)
        F = self.field
        rows = [[F.sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return Matrix(F, rows, self.nrows, self.ncols)

    def __neg__(self):
        F = self.field
        return Matrix(F, [[F.neg(a) for a in r] for r in self.rows], self.nrows, self.ncols)

    def __mul__(self, other):
        """Matrix product on bare values: over F_p one ``% p`` per entry of
        integer dot products; over Q integer dot products of rows and
        columns cleared of denominators, one Fraction per entry."""
        if self.ncols != other.nrows:
            raise LinAlgError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        F = self.field
        p = F.char
        cols = list(zip(*other.rows)) if other.nrows else [()] * other.ncols
        if p:
            rows = [[sum(map(mul, r, c)) % p for c in cols] for r in self.rows]
        else:
            A = [_clear_denominators(r) for r in self.rows]
            B = [_clear_denominators(c) for c in cols]
            rows = [[Fraction(sum(map(mul, a, b)), da * db) for b, db in B]
                    for a, da in A]
        return Matrix(F, rows, self.nrows, other.ncols)

    def scale(self, c):
        F = self.field
        return Matrix(F, [[F.mul(c, a) for a in r] for r in self.rows], self.nrows, self.ncols)

    def transpose(self):
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)], self.ncols, self.nrows)

    def is_zero(self):
        F = self.field
        return all(F.is_zero(a) for r in self.rows for a in r)

    def _check_shape(self, other, same=False):
        if other.field != self.field:
            raise LinAlgError("field mismatch")
        if same and (other.nrows != self.nrows or other.ncols != self.ncols):
            raise LinAlgError("shape mismatch")

    # -- slicing / stacking ------------------------------------------------

    def cols(self, js):
        return Matrix(self.field, [[r[j] for j in js] for r in self.rows], self.nrows, len(js))

    def submatrix(self, ris, cjs):
        return Matrix(self.field, [[self.rows[i][j] for j in cjs] for i in ris],
                      len(ris), len(cjs))

    def hstack(self, *others):
        """The blocks side by side, rows joined by pairwise ``+`` (faster
        than ``sum(parts, [])`` at the two or three blocks callers pass)."""
        rows = self.rows
        for other in others:
            self._check_shape(other)
            if other.nrows != self.nrows:
                raise LinAlgError("row count mismatch in hstack")
            rows = [r1 + r2 for r1, r2 in zip(rows, other.rows)]
        return Matrix(self.field, rows, self.nrows,
                      self.ncols + sum(o.ncols for o in others))

    @classmethod
    def block(cls, field, grid, row_dims, col_dims):
        """Assemble a block matrix; ``None`` blocks are zero."""
        out = cls.zeros(field, sum(row_dims), sum(col_dims))
        r0 = 0
        for bi, rdim in enumerate(row_dims):
            c0 = 0
            for bj, cdim in enumerate(col_dims):
                blk = grid[bi][bj]
                if blk is not None:
                    if blk.nrows != rdim or blk.ncols != cdim:
                        raise LinAlgError("block shape mismatch")
                    for i in range(rdim):
                        out.rows[r0 + i][c0:c0 + cdim] = list(blk.rows[i])
                c0 += cdim
            r0 += rdim
        return out

    # -- elimination -------------------------------------------------------

    def _eliminate(self):
        """One Gauss-Jordan pass: (rows of R, pivot columns, det), with det
        0 unless rank = nrows = ncols.

        The pivot of each column is its first nonzero entry at or below the
        current row.  Over F_p only the pivot row's nonzero entries are
        walked.  Over Q, with pivot piv, previous pivot prev and pivot row
        prow, every other row becomes (piv row - row[pc] prow) // prev,
        exact by Sylvester's identity; every pivot entry then ends equal to
        the last pivot, which divides all of R.
        """
        p = self.field.char
        nrows, ncols = self.nrows, self.ncols
        pivots = []
        pr = 0
        sign = 1
        if p:
            rows = [[a % p for a in r] for r in self.rows]
            det = 1
        else:
            cleared = [_clear_denominators(r) for r in self.rows]
            rows = [a for a, _ in cleared]
            prev = 1
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
                for i in range(nrows):
                    row = rows[i]
                    c = row[pc]
                    if not c or i == pr:
                        continue
                    row[pc] = 0
                    for j, v in nz:
                        row[j] = (row[j] - c * v) % p
            else:
                for i in range(nrows):
                    if i == pr:
                        continue
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
            return rows, pivots, sign * det % p if full else 0
        R = [[Fraction(x, prev) for x in r] for r in rows]
        den = prod(d for _, d in cleared)
        return R, pivots, Fraction(sign * prev if full else 0, den)

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        rows, pivots, _ = self._eliminate()
        return Matrix(self.field, rows, self.nrows, self.ncols), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Matrix whose columns form a basis of the kernel."""
        F = self.field
        R, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        out = Matrix.zeros(F, self.ncols, len(free))
        for idx, j in enumerate(free):
            out.rows[j][idx] = F.one()
            for pi, pc in enumerate(pivots):
                out.rows[pc][idx] = F.neg(R.rows[pi][j])
        return out

    def determinant(self):
        if self.nrows != self.ncols:
            raise LinAlgError("determinant of non-square matrix")
        return self._eliminate()[2]

    def solve(self, b: "Matrix"):
        """Some X with self @ X = b, or None when there is no solution."""
        if b.nrows != self.nrows:
            raise LinAlgError("rhs row count mismatch")
        F = self.field
        aug = self.hstack(b)
        R, pivots = aug.rref()
        n = self.ncols
        for pi, pc in enumerate(pivots):
            if pc >= n:
                return None
        X = Matrix.zeros(F, n, b.ncols)
        for pi, pc in enumerate(pivots):
            X.rows[pc] = list(R.rows[pi][n:])
        return X

    def inverse(self):
        if self.nrows != self.ncols:
            raise LinAlgError("inverse of non-square matrix")
        X = self.solve(Matrix.identity(self.field, self.nrows))
        if X is None or not (self * X == Matrix.identity(self.field, self.nrows)):
            raise LinAlgError("matrix is singular")
        return X

    def __repr__(self):
        F = self.field
        body = "; ".join(" ".join(F.format(a) for a in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols} over {F!r}: [{body}])"


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------

class IntegerMatrix:
    """Dense matrix with arbitrary-precision integer entries."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, nrows=None, ncols=None):
        self.rows = [list(map(int, r)) for r in rows]
        self.nrows = len(self.rows) if nrows is None else nrows
        self.ncols = (len(self.rows[0]) if self.rows else 0) if ncols is None else ncols
        for r in self.rows:
            if len(r) != self.ncols:
                raise LinAlgError("ragged rows")

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([[0] * ncols for _ in range(nrows)], nrows, ncols)

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    def __eq__(self, other):
        return (isinstance(other, IntegerMatrix) and other.nrows == self.nrows
                and other.ncols == self.ncols and other.rows == self.rows)

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise LinAlgError("shape mismatch")
        cols = list(zip(*other.rows)) if other.nrows else [()] * other.ncols
        return IntegerMatrix([[sum(map(mul, r, c)) for c in cols] for r in self.rows],
                             self.nrows, other.ncols)

    def is_zero(self):
        return all(a == 0 for r in self.rows for a in r)

    def to_field(self, field) -> Matrix:
        return Matrix.from_int_rows(field, self.rows, self.nrows, self.ncols)

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"IntegerMatrix({self.nrows}x{self.ncols}: [{body}])"


@dataclass(slots=True)
class SmithDecomposition:
    """A @ V = Uinv @ D with Uinv, V unimodular and D diagonal with a
    divisibility chain; Vinv is the inverse of V."""

    Uinv: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix
    Vinv: IntegerMatrix

    @property
    def diagonal(self):
        n = min(self.D.nrows, self.D.ncols)
        return [self.D.rows[i][i] for i in range(n)]


def smith_normal_form(A: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with transforms, in one pass.

    Pivoting picks the smallest-absolute-value nonzero entry (rows swapped
    before columns) so the output is deterministic.  Each row operation on D
    is recorded on Uinv as the inverse column operation, and each column
    operation on V as the inverse row operation on Vinv, so A V = Uinv D.

    A pivot is kept only once it divides every entry of the block below and
    to the right of it.  Integer row and column operations keep that block a
    multiple of the pivot, so every later pivot is a multiple of this one:
    the diagonal comes out as a divisibility chain with no repair pass.
    """
    D = IntegerMatrix(A.rows, A.nrows, A.ncols)
    Uinv = IntegerMatrix.identity(A.nrows)
    V = IntegerMatrix.identity(A.ncols)
    Vinv = IntegerMatrix.identity(A.ncols)
    n, m = A.nrows, A.ncols
    out = SmithDecomposition(Uinv, D, V, Vinv)

    def row_op(i, j, q):
        # row_i -= q * row_j in D; col_j += q * col_i in Uinv
        D.rows[i] = [a - q * b for a, b in zip(D.rows[i], D.rows[j])]
        for r in Uinv.rows:
            r[j] += q * r[i]

    def col_op(i, j, q):
        # col_i -= q * col_j in D and V; row_j += q * row_i in Vinv
        for M in (D, V):
            for r in M.rows:
                r[i] -= q * r[j]
        Vinv.rows[j] = [a + q * b for a, b in zip(Vinv.rows[j], Vinv.rows[i])]

    def swap_rows(i, j):
        D.rows[i], D.rows[j] = D.rows[j], D.rows[i]
        for r in Uinv.rows:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for M in (D, V):
            for r in M.rows:
                r[i], r[j] = r[j], r[i]
        Vinv.rows[i], Vinv.rows[j] = Vinv.rows[j], Vinv.rows[i]

    for t in range(min(n, m)):
        # re-select the smallest-abs nonzero pivot on every pass; this keeps
        # intermediate entries from exploding on scrambled inputs
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    a = D.rows[i][j]
                    if a != 0 and (best is None or
                                   abs(a) < abs(D.rows[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return out
            bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            p = D.rows[t][t]
            cleared = True
            for i in range(t + 1, n):
                a = D.rows[i][t]
                if a != 0:
                    row_op(i, t, a // p)
                    if D.rows[i][t] != 0:
                        cleared = False
            for j in range(t + 1, m):
                a = D.rows[t][j]
                if a != 0:
                    col_op(j, t, a // p)
                    if D.rows[t][j] != 0:
                        cleared = False
            if not cleared:
                continue
            bad = next(((i, j) for i in range(t + 1, n)
                        for j in range(t + 1, m) if D.rows[i][j] % p), None)
            if bad is None:
                break
            # fold a non-divisible row into the pivot row so the next pass
            # strictly shrinks the pivot
            row_op(t, bad[0], -1)
        if D.rows[t][t] < 0:
            # negate row t of D, which negates column t of Uinv
            D.rows[t] = [-a for a in D.rows[t]]
            for r in Uinv.rows:
                r[t] = -r[t]
    return out
