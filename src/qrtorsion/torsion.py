"""Torsion of based chain complexes, in the graded and 2-periodic flavors.

All values live in the unit group of the field modulo sign.  The graded
torsion multiplies determinants of assembled bases [h_i  b_i  s_{i-1}]
against the preferred bases, where b_i bases the image of d_{i+1} and the
section s_i satisfies d_{i+1} s_i = b_i.  Both are read off the pivots of
the forward elimination pass that d_{i+1} keeps (no reduced form is built;
a map some caller has ranked already is not swept again): b_i is its pivot
columns and s_i the unit columns at the same pivots.  With unit
sections, each determinant of an assembled basis is a minor of [h_i  b_i]
on the rows outside the pivots (``_det_beside``); ``spectral.Contraction``
reads its inverses off the same minors.  The bases can be randomized to
exercise well-definedness, and the randomized path keeps whole
determinants as the reference.
"""

from __future__ import annotations

import random

from .fields import Field, SignClass
from .linalg import LinAlgError, Matrix
from .complexes import (BasedChainComplex, PeriodicComplex,
                        TwistedPearlComplex, admissibility_error,
                        fold_periodic, integral_homology)


class TorsionError(Exception):
    pass


class NotNarrowError(TorsionError):
    pass


def _random_invertible(field: Field, n: int, rng: random.Random) -> Matrix:
    span = field.char - 1 if field.char else 9
    while True:
        M = Matrix.from_int_rows(field, [[rng.randint(-span, span) for _ in range(n)]
                                         for _ in range(n)], n, n)
        if not field.is_zero(M.determinant()):
            return M


def _image_and_section(d: Matrix, rng=None):
    """(B, S, P) with B a basis of im(d) and d S = B, read off the pivot
    columns P of d's forward pass, which d keeps.

    B is the pivot columns P of d and S the unit columns at those pivots.
    With an rng both are mixed by one random invertible matrix, S gains
    random kernel columns, which leave d S unchanged, and P is None.
    """
    F = d.field
    pivots = d._forward()[0]
    B = d.cols(pivots)
    units = [[0] * len(pivots) for _ in range(d.ncols)]
    for j, p in enumerate(pivots):
        units[p][j] = 1
    S = Matrix._make(F, units, 1, d.ncols, len(pivots))
    if rng is not None and pivots:
        mix = _random_invertible(F, len(pivots), rng)
        B, S = B * mix, S * mix
        K = d.kernel_basis()
        if K.ncols:
            c = [[rng.randint(-5, 5) for _ in pivots] for _ in range(K.ncols)]
            S = S + K * Matrix.from_int_rows(F, c, K.ncols, len(pivots))
        pivots = None
    return B, S, pivots


def _det_beside(M: Matrix, S: Matrix, P):
    """det [M | S].  When S is the unit columns at the ascending rows P (P is
    not None), this is (-1)^t times the minor of M on the rows outside P,
    with t = #{(p, q) : p in P, q not in P, p < q}."""
    if P is None:
        return M.hstack(S).determinant()
    F = M.field
    rows = set(P)
    det = M.submatrix([i for i in range(M.nrows) if i not in rows],
                      range(M.ncols)).determinant()
    # the j-th p of P has p - j rows outside P before it, so M.ncols - p + j
    # after it
    t = sum(M.ncols + j - p for j, p in enumerate(P))
    return F.neg(det) if t % 2 else det


def milnor_torsion(C: BasedChainComplex, homology_bases, rng=None) -> SignClass:
    """Torsion of a based complex over a field with chosen homology bases.

    ``homology_bases[k]`` holds cycle representatives (columns) whose classes
    base H_k; an empty matrix where the complex is acyclic.  Passing an ``rng``
    randomizes the internal image bases and sections, which must not change
    the result.
    """
    F = C.field
    n = C.top_degree
    if len(homology_bases) != n + 1:
        raise TorsionError("need one homology basis per degree")
    # bs[k] = (B, S, P) of d_{k+1}: B bases its image in C_k, S lies in C_{k+1}
    bs = [_image_and_section(C.boundary(k + 1), rng) for k in range(n + 1)]
    value = F.one()
    for k in range(n + 1):
        h = homology_bases[k]
        if h.nrows != C.ranks[k]:
            raise TorsionError(f"homology basis in degree {k} has wrong length")
        if not (C.boundary(k) * h).is_zero():
            raise TorsionError(f"homology basis in degree {k} contains non-cycles")
        _, S, P = bs[k - 1] if k else (None, Matrix.zeros(F, C.ranks[0], 0), [])
        M = h.hstack(bs[k][0])
        if M.ncols + S.ncols != C.ranks[k]:
            raise TorsionError(f"degree {k}: homology basis rank mismatch "
                               f"({M.ncols + S.ncols} basis vectors for rank "
                               f"{C.ranks[k]})")
        det = _det_beside(M, S, P)
        if F.is_zero(det):
            raise TorsionError(f"degree {k}: assembled basis is singular "
                               "(homology classes not independent)")
        value = F.mul(value, det) if k % 2 == 0 else F.mul(value, F.inv(det))
    return SignClass(F, value)


def torsion_basis_change(C: BasedChainComplex, homology_bases, new_c, new_h,
                         rng=None) -> SignClass:
    """Torsion after changing preferred and homology bases, with the exact
    change-of-basis law checked against the direct recomputation.

    ``new_c[k]`` expresses the new preferred basis of C_k in the old one
    (columns); ``new_h[k]`` holds new homology representatives in old
    coordinates.  Returns tau(C, c', h').
    """
    F = C.field
    n = C.top_degree
    tau_old = milnor_torsion(C, homology_bases, rng)
    inv_c = []
    for k in range(n + 1):
        if new_c[k].nrows != C.ranks[k] or new_c[k].ncols != C.ranks[k]:
            raise TorsionError(f"new basis in degree {k} has wrong shape")
        try:
            inv_c.append(new_c[k].inverse())
        except LinAlgError as e:
            raise TorsionError(f"singular change matrix in degree {k}") from e
    new_d = [inv_c[k - 1] * C.boundary(k) * new_c[k] for k in range(1, n + 1)]
    Cnew = BasedChainComplex(F, C.ranks, new_d)
    h_new_coords = [inv_c[k] * new_h[k] for k in range(n + 1)]
    tau_new = milnor_torsion(Cnew, h_new_coords, rng)

    factor = F.one()
    for k in range(n + 1):
        # det[c_k / c'_k]: old preferred basis written in the new one
        fk = inv_c[k].determinant()
        # det[h'_k / h_k]: new homology classes written in the old homology basis
        hk = homology_bases[k]
        if hk.ncols:
            sol = hk.hstack(C.boundary(k + 1)).solve(new_h[k])
            if sol is None:
                raise TorsionError(f"new homology classes in degree {k} do not "
                                   "span the old basis")
            W = sol.submatrix(range(hk.ncols), range(new_h[k].ncols))
            fk = F.mul(fk, W.determinant())
        # the change factors enter with the same alternating exponents as the
        # determinants they rescale
        factor = F.mul(factor, fk) if k % 2 == 0 else F.mul(factor, F.inv(fk))
    expected = tau_old * factor
    if expected != tau_new:
        raise TorsionError("basis-change law violated (internal error)")
    return tau_new


def periodic_torsion(P: PeriodicComplex, rng=None) -> SignClass:
    """Torsion of an acyclic 2-periodic complex in the preferred bases."""
    F = P.field
    # boundaries inside C_even and their sections in C_odd, and vice versa
    b_even, s_odd, p_odd = _image_and_section(P.d_oe, rng)
    b_odd, s_even, p_even = _image_and_section(P.d_eo, rng)
    # both counts are rank(d_oe) + rank(d_eo): the fold is acyclic exactly
    # when they fill C_even and C_odd
    if (b_even.ncols + s_even.ncols != P.n_even
            or b_odd.ncols + s_odd.ncols != P.n_odd):
        raise NotNarrowError("torsion undefined, complex not narrow")
    return SignClass(F, F.div(_det_beside(b_even, s_even, p_even),
                              _det_beside(b_odd, s_odd, p_odd)))


def quantum_torsion(P: TwistedPearlComplex, rng=None) -> SignClass:
    """Torsion of the folded 2-periodic pearl complex in the critical-point
    bases; defined exactly when the twisted complex is narrow (acyclic fold)."""
    return periodic_torsion(fold_periodic(P), rng)


def morse_torsion_identity(C: BasedChainComplex, field: Field):
    """Both sides of the torsion-equals-torsion identity for an integral
    complex: the field torsion in integral homology bases, and the alternating
    product of torsion-subgroup orders.  Asserts they agree."""
    H, reps = integral_homology(C)
    error = admissibility_error(sum(H.torsion, []), field)
    if error:
        raise TorsionError(error)
    CF = C.to_field(field)
    hF = [r.to_field(field) for r in reps]
    lhs = milnor_torsion(CF, hF)
    value = field.one()
    for k in range(C.top_degree + 1):
        t = field.from_int(H.torsion_order(k))
        value = field.mul(value, t) if k % 2 == 0 else field.mul(value, field.inv(t))
    rhs = SignClass(field, value)
    if lhs != rhs:
        raise TorsionError("torsion-equals-torsion identity failed")
    return lhs, rhs
