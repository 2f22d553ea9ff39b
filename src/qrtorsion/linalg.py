"""Exact dense linear algebra over a field, plus integer Smith normal form.

Plain Gaussian elimination over exact scalars.  Most matrices are
homology-sized, but the Leibniz system of a page-2 spec without a closed-form
derivation is (b^3 + b^2 + b) x b^2, so ``rref`` runs on bare values and
skips the zeros of each pivot row.  Products and determinants run on integers (residues, or
rows and columns cleared of denominators), the determinant by Bareiss's
fraction-free elimination.  0 x n and n x 0 matrices are legal everywhere;
the determinant of the 0 x 0 matrix is 1 (empty-product convention).
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
        if not isinstance(other, Matrix):
            return self.scale(other)
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

    def hstack(self, other):
        self._check_shape(other)
        if other.nrows != self.nrows:
            raise LinAlgError("row count mismatch in hstack")
        rows = [r1 + r2 for r1, r2 in zip(self.rows, other.rows)]
        return Matrix(self.field, rows, self.nrows, self.ncols + other.ncols)

    @classmethod
    def hstack_all(cls, field, mats, nrows=None):
        mats = list(mats)
        if not mats:
            if nrows is None:
                raise LinAlgError("hstack_all of nothing needs nrows")
            return cls.zeros(field, nrows, 0)
        out = mats[0]
        for m in mats[1:]:
            out = out.hstack(m)
        return out

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

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns).

        The pivot of each column is its first nonzero entry at or below the
        current row.  Entries are bare values under native operators: over
        F_p the input is reduced once and every updated entry once more;
        over Q it is plain Fraction arithmetic.  Only the pivot row's
        nonzero entries are walked, since the rest leave the other rows
        unchanged.
        """
        F = self.field
        p = F.char
        nrows, ncols = self.nrows, self.ncols
        rows = [[a % p for a in r] for r in self.rows] if p else \
            [list(r) for r in self.rows]
        zero, one = F.zero(), F.one()
        pivots = []
        pr = 0
        for pc in range(ncols):
            if pr == nrows:
                break
            pivot_row = next((i for i in range(pr, nrows) if rows[i][pc]), None)
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            prow = rows[pr]
            # rows pr.. are zero left of pc, so the pivot row is too
            if p:
                inv = pow(prow[pc], -1, p)
                nz = [(j, prow[j] * inv % p) for j in range(pc + 1, ncols)
                      if prow[j]]
            else:
                inv = one / prow[pc]
                nz = [(j, prow[j] * inv) for j in range(pc + 1, ncols)
                      if prow[j]]
            prow[pc] = one
            for j, v in nz:
                prow[j] = v
            for i in range(nrows):
                row = rows[i]
                c = row[pc]
                if not c or i == pr:
                    continue
                row[pc] = zero
                if p:
                    for j, v in nz:
                        row[j] = (row[j] - c * v) % p
                else:
                    for j, v in nz:
                        row[j] -= c * v
            pivots.append(pc)
            pr += 1
        return Matrix(F, rows, nrows, ncols), pivots

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
        """Bareiss on integers: over F_p the residues themselves, over Q the
        rows cleared of denominators, whose product then divides the result."""
        if self.nrows != self.ncols:
            raise LinAlgError("determinant of non-square matrix")
        p = self.field.char
        if p:
            return IntegerMatrix(self.rows, self.nrows, self.ncols).determinant() % p
        rows = [_clear_denominators(r) for r in self.rows]
        det = IntegerMatrix([a for a, _ in rows], self.nrows, self.ncols).determinant()
        return Fraction(det, prod(d for _, d in rows))

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

    def determinant(self) -> int:
        """Integer determinant (Bareiss fraction-free elimination)."""
        if self.nrows != self.ncols:
            raise LinAlgError("determinant of non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        M = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if M[k][k] == 0:
                piv = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
                if piv is None:
                    return 0
                M[k], M[piv] = M[piv], M[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
                M[i][k] = 0
            prev = M[k][k]
        return sign * M[n - 1][n - 1]

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"IntegerMatrix({self.nrows}x{self.ncols}: [{body}])"


@dataclass(slots=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D diagonal with a divisibility
    chain; Uinv and Vinv are the inverses of U and V."""

    U: IntegerMatrix
    Uinv: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix
    Vinv: IntegerMatrix

    @property
    def diagonal(self):
        n = min(self.D.nrows, self.D.ncols)
        return [self.D.rows[i][i] for i in range(n)]


def smith_normal_form(A: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with transforms.

    Pivoting picks the smallest-absolute-value nonzero entry (rows swapped
    before columns) so the output is deterministic.  Each row operation on U
    is undone on Uinv by the inverse column operation, so U @ Uinv = I, and
    each column operation on V by the inverse row operation on Vinv.
    """
    D = IntegerMatrix(A.rows, A.nrows, A.ncols)
    U = IntegerMatrix.identity(A.nrows)
    Uinv = IntegerMatrix.identity(A.nrows)
    V = IntegerMatrix.identity(A.ncols)
    Vinv = IntegerMatrix.identity(A.ncols)
    n, m = A.nrows, A.ncols

    def row_op(i, j, q):
        # row_i -= q * row_j in D and U; col_j += q * col_i in Uinv
        for M in (D, U):
            M.rows[i] = [a - q * b for a, b in zip(M.rows[i], M.rows[j])]
        for r in Uinv.rows:
            r[j] += q * r[i]

    def col_op(i, j, q):
        # col_i -= q * col_j in D and V; row_j += q * row_i in Vinv
        for M in (D, V):
            for r in M.rows:
                r[i] -= q * r[j]
        Vinv.rows[j] = [a + q * b for a, b in zip(Vinv.rows[j], Vinv.rows[i])]

    def swap_rows(i, j):
        for M in (D, U):
            M.rows[i], M.rows[j] = M.rows[j], M.rows[i]
        for r in Uinv.rows:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for M in (D, V):
            for r in M.rows:
                r[i], r[j] = r[j], r[i]
        Vinv.rows[i], Vinv.rows[j] = Vinv.rows[j], Vinv.rows[i]

    def negate_row(i):
        for M in (D, U):
            M.rows[i] = [-a for a in M.rows[i]]
        for r in Uinv.rows:
            r[i] = -r[i]

    def diagonalize(t0):
        t = t0
        while t < min(n, m):
            # re-select the smallest-abs nonzero pivot on every pass; this
            # keeps intermediate entries from exploding on scrambled inputs
            while True:
                best = None
                for i in range(t, n):
                    for j in range(t, m):
                        a = D.rows[i][j]
                        if a != 0 and (best is None or
                                       abs(a) < abs(D.rows[best[0]][best[1]])):
                            best = (i, j)
                if best is None:
                    return
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
                            for j in range(t + 1, m) if D.rows[i][j] % p),
                           None)
                if bad is None:
                    break
                # fold a non-divisible row into the pivot row so the next
                # pass strictly shrinks the pivot
                row_op(t, bad[0], -1)
            if D.rows[t][t] < 0:
                negate_row(t)
            t += 1

    diagonalize(0)
    # enforce the divisibility chain: where it fails, mix the two columns and
    # rediagonalize from that spot (yields gcd/lcm of the offending pair)
    k = min(n, m)
    while True:
        bad = None
        for i in range(k - 1):
            a, b = D.rows[i][i], D.rows[i + 1][i + 1]
            if a != 0 and b % a != 0:
                bad = i
                break
        if bad is None:
            break
        col_op(bad, bad + 1, -1)  # col_bad += col_{bad+1}
        diagonalize(bad)
    return SmithDecomposition(U, Uinv, D, V, Vinv)
