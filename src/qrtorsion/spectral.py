"""The degree spectral sequence of a twisted pearl complex.

Page 1 is homology of the Morse part with the disc map d1 projected to it;
the page-2 differential is computed literally from the filtration quotients
Z^r / (Z^{r-1} + B^{r-1}), so the adapted-basis closed form (alpha - M6 M1)
is an independent path to the same scalar.  The power of the page variable is
never materialized: each d_i carries a fixed power, so the bookkeeping is the
degree index alone.

Each spectral object is computed once per instance by a Spectrum (a
generated instance keeps the one its lift was checked on).  Page 1 reads d1*
through the Contraction it is handed, or builds one: a lift hands over the
one its projection pi came from (models._lift_chain), so each lift builds one
Contraction.  PageOne holds that Contraction and the checked page-1 complex,
and each d1* map keeps its one forward pass (linalg).

Independence: the direct fold path eliminates only its own block matrices
(TwistedPearlComplex._fold), and nothing here ranks them.  The closed-form
rate reads the Contraction page 1 was read through: a second one, built
from the same inputs, is the same deterministic object and could never
disagree with it.  The literal rate's value reads only P's own maps
(kernel_basis, solve); page 1 only gates the survivor pattern.  The closed
form does not depend on the contraction it is read through: it equals the
one read through randomized contractions (tests/test_spectral.py).

Degrees are 0..3 throughout (pearl complexes of 3-folds, minimal Maslov
number two).
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .linalg import LinAlgError, Matrix
from .complexes import (BasedChainComplex, ComplexError, TwistedPearlComplex,
                        validate_pearl)
from .torsion import _image_and_section


class SpectralError(Exception):
    pass


class WrongPageError(SpectralError):
    pass


PAGE2 = "Page2"
PAGE3 = "Page3"
NOT_NARROW = "NotNarrow"


class PageOne:
    """Homology ranks of the Morse part and the induced degree +1 differential
    d1star_k = pi_{k+1} d1_k H_k : H_k -> H_{k+1} in the homology bases H,
    read through the Contraction con of P.base onto H (kept as con), and
    the page-1 complex: degree k holds H_{3-k}, d_{k+1} is d1star_{2-k},
    and its constructor checks that d1star squares to zero."""

    def __init__(self, P: TwistedPearlComplex, H, con: Contraction):
        self.con = con
        self.ranks = list(con.hdims)
        self.d1star = [con.pi(k + 1) * P.d1_map(k) * H[k] for k in range(3)]
        self.bases = list(H)
        try:
            self.complex = BasedChainComplex(
                self.d1star[0].field, self.ranks[::-1], self.d1star[::-1])
        except ComplexError:
            raise SpectralError(
                "page-1 differential does not square to zero") from None

    @property
    def d1star_ranks(self):
        """Rank of each d1star_k."""
        return [d.rank() for d in self.d1star]

    def homology_ranks(self):
        """Ranks of the homology of (E^1, d1star), degree by degree."""
        r = [0, *self.d1star_ranks, 0]
        return [self.ranks[k] - r[k + 1] - r[k] for k in range(4)]

    def is_exact(self):
        return all(r == 0 for r in self.homology_ranks())


def _inverse_rows_beside(H: Matrix, B: Matrix, S: Matrix, P):
    """The first m rows of [H | B | S]^-1 for square [H | B | S], where m
    counts the columns of H and B.  When S is the unit columns at the
    ascending rows P (P is not None), they are M_Q^-1 placed on the columns
    Q outside P, for the square minor M_Q of M = [H | B] on the rows Q,
    which is singular exactly when [M | S] is.  M_Q is built straight from
    the rows Q of H and B, over the lcm of their denominators."""
    n, m = H.nrows, H.ncols + B.ncols
    if P is None:
        return H.hstack(B, S).inverse().submatrix(range(m), range(n))
    rows = set(P)
    Q = [i for i in range(n) if i not in rows]
    d = lcm(H.den, B.den)

    def row(M, i):
        # row i of M over the denominator d
        k = d // M.den
        return M.num[i] if k == 1 else [k * x for x in M.num[i]]

    X = Matrix._make(H.field, [row(H, i) + row(B, i) for i in Q], d, len(Q),
                     m).inverse()
    num = [[0] * n for _ in range(m)]
    for r, x in zip(num, X.num):
        for q, v in zip(Q, x):
            r[q] = v
    return Matrix._make(H.field, num, X.den, m, n)


class Contraction:
    """Deterministic strong deformation retraction of a Morse complex
    (C_*, d_M) onto its homology: inclusion iota (the given
    representatives), projection pi, and a homotopy K with
    d_M K + K d_M = 1 - iota pi, K^2 = 0, pi K = 0, K iota = 0.

    Built from the adapted bases T_k = [h_k | b_k | s_{k-1}] of each chain
    group, with b_k and s_k read off one forward elimination of
    d_M : C_{k+1} -> C_k; only the [h_k | b_k] rows of T_k^-1 are kept.
    With no rng, s_{k-1} is the unit columns at the pivots P of d_k, so
    those rows are M_Q^-1 placed on the columns Q outside P, where M_Q is
    [h_k | b_k] on the rows Q (the identity torsion._det_beside reads
    determinants from): only that square minor is inverted, with the
    product check of ``inverse``, and it is singular exactly when T_k is.
    Pass an rng to randomize the image bases and sections; T_k is then
    inverted whole.
    """

    def __init__(self, C: BasedChainComplex, H, rng=None):
        F = C.field
        self.ranks = list(C.ranks)
        self.hdims = [H[k].ncols for k in range(4)]
        self.b = []        # basis of B_k = im(d_M : C_{k+1} -> C_k), inside C_k
        self.s = []        # sections: d_M s[k] = b[k], columns in C_{k+1}
        pivots = []        # pivots of d_M : C_{k+1} -> C_k, rows of C_{k+1}
        for k in range(4):
            bk, sk, pk = _image_and_section(C.boundary(k + 1), rng)
            self.b.append(bk)
            self.s.append(sk)
            pivots.append(pk)
        self.coords = []   # the [h_k | b_k] rows of T_k^-1, per degree
        for k in range(4):
            h, bk = H[k], self.b[k]
            h._check_shape(bk)
            S, P = ((self.s[k - 1], pivots[k - 1]) if k
                    else (Matrix.zeros(F, C.ranks[0], 0), []))
            if h.nrows != C.ranks[k]:
                raise SpectralError(f"homology basis in degree {k} has the wrong length")
            if h.ncols + bk.ncols + S.ncols != C.ranks[k]:
                raise SpectralError(f"homology basis in degree {k} has the wrong rank")
            try:
                self.coords.append(_inverse_rows_beside(h, bk, S, P))
            except LinAlgError as e:
                raise SpectralError(f"degree {k}: homology representatives do not "
                                    "base the Morse homology") from e
        if not all((C.boundary(k) * H[k]).is_zero() for k in range(4)):
            raise SpectralError("homology representatives must be cycles")

    def pi(self, k) -> Matrix:
        """Projection C_k -> H_k along boundaries and section columns."""
        return self.coords[k].submatrix(range(self.hdims[k]),
                                        range(self.ranks[k]))

    def b_coords(self, k) -> Matrix:
        """Coordinates on the boundary block of C_k."""
        h = self.hdims[k]
        return self.coords[k].submatrix(range(h, h + self.b[k].ncols),
                                        range(self.ranks[k]))

    def K(self, k) -> Matrix:
        """Homotopy component C_k -> C_{k+1}: send each boundary basis vector
        to its section, kill homology and section directions."""
        return self.s[k] * self.b_coords(k)


def _check_valid(P: TwistedPearlComplex):
    bad = validate_pearl(P)
    if bad:
        raise SpectralError("invalid pearl complex: " + "; ".join(bad))


def _require_survivors(pg1: PageOne):
    hr = pg1.homology_ranks()
    if hr != [1, 0, 0, 1]:
        raise WrongPageError(f"page-1 homology ranks {hr} "
                             "do not match the page-3 survivor pattern")


def page1(P: TwistedPearlComplex, H, con: Contraction = None) -> PageOne:
    """First page: Morse homology with the projection of d1.

    The projection is well defined because d1 anticommutes with d_M, so d1 of
    a cycle is again a cycle.  It is read through con, a Contraction of the
    Morse part P.base onto H, built here (deterministic) when not given; a
    lift passes the one it built P from.
    """
    _check_valid(P)
    return PageOne(P, H, Contraction(P.base, H) if con is None else con)


def _rate_from_page1(P: TwistedPearlComplex, pg1: PageOne):
    """The page-2 rate from the literal filtration quotients, given page 1."""
    F = P.field
    H = pg1.bases
    _require_survivors(pg1)
    r0, r1, r2, r3 = P.ranks
    # E^2 at the degree-0 slot: pairs (x0, x2) with d1 x0 + d_M x2 = 0,
    # modulo d_M-cycles in C_2 and the boundary pairs (d_M y1, d1 y1 + d_M y3).
    big = P.d1_map(0).hstack(P.dM(2))
    z2 = P.dM(2).kernel_basis()
    W = Matrix.block(F, [[None, P.dM(1), None], [z2, P.d1_map(1), P.dM(3)]],
                     [r0, r2], [z2.ncols, r1, r3])
    dimE2 = big.ncols - big.rank() - W.rank()   # dim ker(big) - rank W
    if dimE2 != 1:
        raise WrongPageError(f"E^2 at the bottom slot has rank {dimE2}, expected 1")
    # representative of the generator: the degree-0 homology class lifted so
    # its differential drops two filtration steps
    c = H[0]                                    # single column (rank pattern)
    x2 = P.dM(2).solve(-(P.d1_map(0) * c))
    if x2 is None:
        raise WrongPageError("degree-0 class does not lift into Z^2")
    u = P.d2 * c + P.d1_map(2) * x2             # lands in cycles of C_3
    if not (P.dM(3) * u).is_zero():
        raise SpectralError("page-2 image is not a cycle (internal error)")
    # express u in E^2 at the top slot = Z_3(d_M) / d1(Z_2(d_M)), basis [h_3]
    denom = P.d1_map(2) * z2
    sol = H[3].hstack(denom).solve(u)
    if sol is None:
        raise SpectralError("page-2 image escapes the top-slot quotient")
    rate = sol.rows[0][0]
    if F.is_zero(rate):
        raise WrongPageError("not narrow at page 3: the page-2 rate vanishes")
    return rate


def page2_rate(P: TwistedPearlComplex, H, rng=None):
    """The page-2 differential on the two survivor slots, computed from the
    literal filtration quotients Z^2 / (Z^1 + B^1).

    Requires the 3-fold narrow page-3 pattern: page-1 homology of ranks
    (1, 0, 0, 1).  Returns the rate as a scalar.
    """
    return _rate_from_page1(P, page1(P, H, Contraction(P.base, H, rng)))


class Spectrum:
    """The spectral sequence of one pearl complex in fixed homology bases:
    page 1 computed once, on construction, through the given Contraction
    con of P.base onto H (a lift's own) or else a new one; the literal
    page-2 rate, the collapse page and the closed-form rate read from it,
    each on first use."""

    def __init__(self, P: TwistedPearlComplex, H, con: Contraction = None):
        self.P = P
        self.page1 = page1(P, H, con)

    @cached_property
    def rate(self):
        """The literal page-2 rate; WrongPageError off the page-3 pattern."""
        return _rate_from_page1(self.P, self.page1)

    @cached_property
    def collapse(self) -> str:
        """Page2 when page 1 is exact, Page3 when only the two survivor slots
        remain and the page-2 rate is invertible, NotNarrow otherwise."""
        if self.page1.is_exact():
            return PAGE2
        try:
            self.rate
        except WrongPageError:
            return NOT_NARROW
        return PAGE3

    @cached_property
    def closed_form_rate(self):
        """The page-2 rate read off the adapted-basis block matrices of
        page 1's Contraction: alpha (top row of d2 at the degree-0 class), M1
        (boundary rows of d1 at the degree-0 class) and M6 (top row of d1
        on the section columns of C_2), giving alpha - M6 M1;
        WrongPageError off the page-3 pattern or when it vanishes."""
        P, pg1 = self.P, self.page1
        _require_survivors(pg1)
        con, h0 = pg1.con, pg1.bases[0]
        alpha = con.pi(3) * P.d2 * h0
        M1 = con.b_coords(1) * P.d1_map(0) * h0
        M6 = con.pi(3) * P.d1_map(2) * con.s[1]
        rate = (alpha - M6 * M1).rows[0][0]
        if P.field.is_zero(rate):
            raise WrongPageError("not narrow at page 3: the closed-form rate vanishes")
        return rate


def closed_form_r(P: TwistedPearlComplex, H):
    """The page-2 rate in closed form (see Spectrum.closed_form_rate)."""
    return Spectrum(P, H).closed_form_rate


def collapsing_page(P: TwistedPearlComplex, H) -> str:
    """Classify the collapse of the spectral sequence (see Spectrum)."""
    return Spectrum(P, H).collapse


def minimal_model(P: TwistedPearlComplex, H) -> TwistedPearlComplex:
    """The minimal pearl complex on the homology H (d_M = 0, d1 = delta_1,
    d2 = delta_2), by homological perturbation of the contraction onto
    Morse homology by the disc maps.  The comparison maps phi, psi and the
    homotopy are built only to check their identities exactly: the graded
    blocks, d^2 = 0, phi psi = 1, both chain maps and the homotopy
    identity, each a SpectralError when it fails."""
    _check_valid(P)
    F = P.field
    con = Contraction(P.base, H)
    cr = P.ranks
    hr = con.hdims

    def graded(blocks, src, dst):
        """Sum-of-degrees map from {(src_degree, dst_degree): block}."""
        return Matrix.block(F, [[blocks.get((s, d)) for s in range(4)]
                                for d in range(4)], dst, src)

    iota = graded({(k, k): H[k] for k in range(4)}, hr, cr)
    pi = graded({(k, k): con.pi(k) for k in range(4)}, cr, hr)
    K = graded({(k, k + 1): con.K(k) for k in range(3)}, cr, cr)
    dM = graded({(k, k - 1): P.dM(k) for k in range(1, 4)}, cr, cr)
    pert = graded({(k, k + 1): P.d1_map(k) for k in range(3)} | {(0, 3): P.d2},
                  cr, cr)
    ident = Matrix.identity(F, sum(cr))

    def geometric(X):
        """(1 - X)^{-1}, a finite sum because X raises degree."""
        total, power = ident, X
        while not power.is_zero():
            total, power = total + power, power * X
        return total

    # the perturbation series wants the opposite homotopy convention
    K = -K
    series = geometric(K * pert)
    series_tk = geometric(pert * K)
    delta = pi * pert * series * iota
    psi = series * iota
    phi = pi * series_tk
    hom = K * series_tk

    d_full = dM + pert
    # graded content of the perturbed differential
    off = [sum(hr[:k]) for k in range(5)]

    def block_of(sd, dd):
        return delta.submatrix(range(off[dd], off[dd + 1]),
                               range(off[sd], off[sd + 1]))

    delta1 = [block_of(k, k + 1) for k in range(3)]
    delta2 = block_of(0, 3)
    model_c = TwistedPearlComplex(F, hr, [Matrix.zeros(F, hr[k - 1], hr[k])
                                          for k in range(1, 4)], delta1, delta2)
    if validate_pearl(model_c):
        raise SpectralError("perturbed differential does not square to zero")
    # allowed blocks only: degree +1 and +3
    check = graded({(k, k + 1): delta1[k] for k in range(3)} | {(0, 3): delta2},
                   hr, hr)
    if not (delta - check).is_zero():
        raise SpectralError("perturbed differential has unexpected graded blocks")
    # comparison identities, all exact
    if not (phi * psi == Matrix.identity(F, sum(hr))):
        raise SpectralError("phi psi is not the identity on the model")
    if not (phi * d_full - delta * phi).is_zero():
        raise SpectralError("phi is not a chain map")
    if not (d_full * psi - psi * delta).is_zero():
        raise SpectralError("psi is not a chain map")
    lhs = psi * phi - ident
    rhs = d_full * hom + hom * d_full
    if not (lhs - rhs).is_zero():
        raise SpectralError("homotopy identity fails")
    return model_c
