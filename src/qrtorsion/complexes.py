"""Bounded based chain complexes, twisted pearl complexes, and 2-periodic folds.

A based complex carries the standard basis of each chain group as its
preferred basis.  Pearl complexes are stored over a field, already twisted:
the Morse part lowers degree by one, the disc corrections d1 (degree +1) and
d2 (degree +3) come from the minimal Maslov number being two on a 3-fold.
A pearl's d^2 = 0 is checked once, on the two squares of its 2-periodic
fold, and folding it for torsion reuses those checked blocks.  That fold
(``PeriodicComplex._hold``) is the one complex not built through its
checking constructor: its squares are the pearl's check, which names the
graded components that fail, and the constructor would multiply them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from .fields import Field
from .linalg import (LinAlgError, Matrix, _identity_rows, _product,
                     smith_normal_form)


class ComplexError(Exception):
    pass


class BasedChainComplex:
    """Bounded complex of boundary matrices over a field.

    ``boundaries[k]`` is d_k : C_k -> C_{k-1} for k = 1..n (index 0 is None).
    An integral complex is one over Q whose boundaries are integer matrices
    (denominator 1).  A complex is not mutated after it is built, so its
    integral homology is computed once, as :attr:`homology`.
    """

    def __init__(self, field, ranks, boundaries):
        n = len(ranks) - 1
        if len(boundaries) != n:
            raise ComplexError(f"expected {n} boundary maps, got {len(boundaries)}")
        self.field: Field = field
        self.ranks = list(ranks)
        self.boundaries = [None] + list(boundaries)
        for k in range(1, n + 1):
            d = self.boundaries[k]
            if d.nrows != self.ranks[k - 1] or d.ncols != self.ranks[k]:
                raise ComplexError(f"boundary d_{k} has shape {d.nrows}x{d.ncols}, "
                                   f"expected {self.ranks[k - 1]}x{self.ranks[k]}")
        for k in range(2, n + 1):
            if not (self.boundaries[k - 1] * self.boundaries[k]).is_zero():
                raise ComplexError(f"d_{k - 1} d_{k} != 0")

    @property
    def top_degree(self):
        return len(self.ranks) - 1

    def boundary(self, k):
        """d_k : C_k -> C_{k-1}; zero map outside the stored range."""
        n = self.top_degree
        if 1 <= k <= n:
            return self.boundaries[k]
        rows = self.ranks[k - 1] if 0 <= k - 1 <= n else 0
        cols = self.ranks[k] if 0 <= k <= n else 0
        return Matrix.zeros(self.field, rows, cols)

    @cached_property
    def homology(self) -> tuple[IntegralHomology, tuple[Matrix, ...]]:
        """(homology, representatives) of an integral complex, computed on
        first use and shared by every caller; see :func:`integral_homology`.
        Any other complex raises ComplexError.

        One Smith pass per boundary (Cohen, GTM 138, §2.4.3).  Let the
        columns of Z base ker d_{k-1} (Z is the identity in degree 0) and
        write d_k = Z W.  The pass W V = Uinv D, of rank r, gives degree
        k - 1's invariant factors, and its representatives as Z times the
        columns of Uinv past r.  Z is injective, so ker d_k = ker W, based
        by the columns of V past r: the next Z.  Since d_k d_{k+1} = 0 the
        first r rows of V^-1 d_{k+1} are zero, so the next W is the rows of
        V^-1 past r times d_{k+1}.  The top degree's representatives are
        its Z.  A complex of length n takes n passes, all on integer rows.
        """
        F, n, ranks = self.field, self.top_degree, self.ranks
        free_ranks, torsion, reps = [], [], []
        Z = Vinv = _identity_rows(ranks[0])   # ker d_0 is all of C_0
        zk, rank = ranks[0], 0
        try:
            for k in range(1, n + 1):
                # W over d_k's denominator: W is an integer matrix only if
                # d_k is one, and the pass refuses any other
                dk = self.boundaries[k]
                s = smith_normal_form(Matrix._make(
                    F, _product(Vinv[rank:], dk.num, ranks[k], 0), dk.den,
                    zk, ranks[k]))
                rank = sum(1 for a in s.diagonal if a != 0)
                free_ranks.append(zk - rank)
                torsion.append([a for a in s.diagonal if a > 1])
                reps.append(Matrix._make(F, _product(
                    Z, [r[rank:] for r in s.Uinv.num], zk - rank, 0), 1,
                    ranks[k - 1], zk - rank))
                Z, Vinv = [r[rank:] for r in s.V.num], s.Vinv.num
                zk = ranks[k] - rank
        except LinAlgError as e:
            raise ComplexError(f"integral homology: {e}") from None
        free_ranks.append(zk)
        torsion.append([])
        reps.append(Matrix._make(F, Z, 1, ranks[n], zk))
        return IntegralHomology(free_ranks, torsion), tuple(reps)

    def to_field(self, field: Field) -> "BasedChainComplex":
        """An integral complex reduced modulo the field (or kept over Q)."""
        return BasedChainComplex(field, self.ranks,
                                 [self.boundaries[k].to_field(field)
                                  for k in range(1, self.top_degree + 1)])


@dataclass
class IntegralHomology:
    """Per-degree free ranks and invariant factors (divisibility chains)."""

    free_ranks: list
    torsion: list

    def torsion_order(self, k) -> int:
        return prod(self.torsion[k]) if k < len(self.torsion) else 1


def integral_homology(C: BasedChainComplex):
    """Homology of an integral complex: ranks, invariant factors, and integral
    cycle representatives whose classes base the free part in every degree;
    :attr:`BasedChainComplex.homology`, computed once per complex.

    Representatives stay a basis after reduction modulo any admissible prime.
    """
    return C.homology


def admissibility_error(invariant_factors, field: Field):
    """Why the field characteristic is inadmissible for homology with these
    invariant factors, or None when it is 0 or a prime dividing none (a
    PrimeField never has characteristic two)."""
    p = field.char
    bad = [a for a in invariant_factors if p and a % p == 0]
    return f"characteristic {p} divides invariant factor {bad[0]}" if bad else None


class TwistedPearlComplex:
    """Morse complex (degrees 0..3) over a field with disc corrections.

    dM[k] : C_k -> C_{k-1} (k=1..3), d1[k] : C_k -> C_{k+1} (k=0..2),
    d2 : C_0 -> C_3.  A pearl is immutable once built: nothing changes its
    matrices afterwards (``generate.mutate_d2`` builds a new pearl), so its
    2-periodic fold is built once and the d^2 = 0 check is computed once, on
    the fold's two squares, as :attr:`defects`.
    """

    def __init__(self, field, ranks, dM, d1, d2):
        if len(ranks) != 4:
            raise ComplexError("pearl complexes live in degrees 0..3")
        self.field = field
        self.ranks = list(ranks)
        self.base = BasedChainComplex(field, ranks, dM)
        if len(d1) != 3:
            raise ComplexError("expected d1 maps for degrees 0..2")
        self.d1 = list(d1)
        for k in range(3):
            m = self.d1[k]
            if m.nrows != ranks[k + 1] or m.ncols != ranks[k]:
                raise ComplexError(f"d1[{k}] has shape {m.nrows}x{m.ncols}, "
                                   f"expected {ranks[k + 1]}x{ranks[k]}")
        if d2.nrows != ranks[3] or d2.ncols != ranks[0]:
            raise ComplexError("d2 must map C_0 -> C_3")
        self.d2 = d2

    def dM(self, k) -> Matrix:
        return self.base.boundary(k)

    def d1_map(self, k) -> Matrix:
        """d1 : C_k -> C_{k+1}; zero outside 0..2."""
        if 0 <= k <= 2:
            return self.d1[k]
        rows = self.ranks[k + 1] if 0 <= k + 1 <= 3 else 0
        cols = self.ranks[k] if 0 <= k <= 3 else 0
        return Matrix.zeros(self.field, rows, cols)

    @cached_property
    def _fold(self) -> tuple[Matrix, Matrix]:
        """(d_oe, d_eo) of the 2-periodic fold, built on first use:
        d_oe : C_1 + C_3 -> C_0 + C_2 and d_eo : C_0 + C_2 -> C_1 + C_3,
        with blocks taken from d_M, d1, d2 by degree.  The blocks only
        rearrange the pearl's own matrices."""
        F, r = self.field, self.ranks
        d_oe = Matrix.block(F, [[self.dM(1), None],
                                [self.d1[1], self.dM(3)]],
                            [r[0], r[2]], [r[1], r[3]])
        d_eo = Matrix.block(F, [[self.d1[0], self.dM(2)],
                                [self.d2, self.d1[2]]],
                            [r[1], r[3]], [r[0], r[2]])
        return d_oe, d_eo

    @cached_property
    def defects(self) -> tuple[str, ...]:
        """The graded components of d^2 = 0 that fail, checked on first use;
        empty iff valid.

        d^2 = 0 is checked once, on the fold's two squares: E = d_oe d_eo on
        C_0 + C_2 and O = d_eo d_oe on C_1 + C_3.  Their diagonal blocks in
        degrees 0, 1, 2, 3 are d_M d1 + d1 d_M, E(C_2 <- C_0) and
        O(C_3 <- C_1) are d1^2 + d_M d2 + d2 d_M in degrees 0 and 1, and the
        other two blocks are d_M^2, which BasedChainComplex has checked.
        """
        d_oe, d_eo = self._fold
        E, O = d_oe * d_eo, d_eo * d_oe
        r0, r1 = self.ranks[:2]
        c0, c2 = slice(0, r0), slice(r0, None)   # C_0, C_2 inside C_0 + C_2
        c1, c3 = slice(0, r1), slice(r1, None)   # C_1, C_3 inside C_1 + C_3
        # (square, target rows, source columns) of each named component, in
        # report order
        blocks = [(E, c0, c0), (O, c1, c1), (E, c2, c2), (O, c3, c3),
                  (E, c2, c0), (O, c3, c1)]
        names = ([f"d_M d1 + d1 d_M != 0 in degree {k}" for k in range(4)]
                 + [f"d1^2 + d_M d2 + d2 d_M != 0 in degree {k}"
                    for k in range(2)])
        return tuple(name for name, (S, rows, cols) in zip(names, blocks)
                     if any(any(row[cols]) for row in S.num[rows]))


def validate_pearl(P: TwistedPearlComplex) -> list[str]:
    """Names of the graded components of d^2 = 0 that fail; empty iff valid."""
    return list(P.defects)


class PeriodicComplex:
    """2-periodic complex: d_oe : C_odd -> C_even and d_eo : C_even -> C_odd.

    Built directly, it checks that both squares d_oe d_eo and d_eo d_oe
    vanish; :func:`fold_periodic` holds a pearl's fold, whose squares the
    pearl's own d^2 = 0 check has computed, without a second product."""

    def __init__(self, field, n_odd, n_even, d_oe, d_eo):
        if d_oe.nrows != n_even or d_oe.ncols != n_odd:
            raise ComplexError("d_oe must map C_odd -> C_even")
        if d_eo.nrows != n_odd or d_eo.ncols != n_even:
            raise ComplexError("d_eo must map C_even -> C_odd")
        if not (d_oe * d_eo).is_zero() or not (d_eo * d_oe).is_zero():
            raise ComplexError("periodic differentials do not compose to zero")
        self._hold(field, d_oe, d_eo)

    def _hold(self, field, d_oe, d_eo):
        """Hold differentials of matching shapes whose squares vanish."""
        self.field, self.d_oe, self.d_eo = field, d_oe, d_eo
        self.n_odd, self.n_even = d_oe.ncols, d_oe.nrows
        return self

    def is_acyclic(self) -> bool:
        # im(d_eo) sits inside ker(d_oe); equality is a rank count (same on
        # the other side by symmetry of the two rank-nullity identities).
        return self.d_oe.rank() + self.d_eo.rank() == self.n_odd == self.n_even


def fold_periodic(P: TwistedPearlComplex) -> PeriodicComplex:
    """Fold the pearl complex to its 2-periodic form: C_odd = C_1 + C_3,
    C_even = C_0 + C_2, blocks taken from d_M, d1, d2 by degree.

    The fold is the pearl's own, and d^2 = 0 was checked on its squares by
    :func:`validate_pearl`, so folding multiplies nothing."""
    bad = validate_pearl(P)
    if bad:
        raise ComplexError("invalid pearl complex: " + "; ".join(bad))
    return PeriodicComplex.__new__(PeriodicComplex)._hold(P.field, *P._fold)
