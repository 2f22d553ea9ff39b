"""Synthetic instance generators.

realize_morse builds an integral chain complex with prescribed 3-fold
homology (perfect bases, torsion blocks, birth pairs, then a seeded
unimodular scramble).  The lift_* functions and random_pearl lift
homology-level structure delta (and x : H_0 -> H_3) to disc differentials
in closed form.  The contraction of the Morse complex onto its homology
(spectral.Contraction) gives iota = H and pi with d_M iota = 0,
pi d_M = 0 and pi iota = 1, so

    d1_k = iota delta_k pi_k,    d2 = iota x pi_0

anticommute with d_M, induce delta on page 1, and square to zero with
delta: d1^2 = iota delta^2 pi = 0, and d_M d2 = d2 d_M = 0.  This is the
strong-deformation-retract argument behind the homological perturbation
lemma (Crainic, arXiv:math/0403266).  x is the pinned rate on page 3 and a
random draw otherwise.

The lift is then conjugated by Phi = 1 + h, for a random h : C_k -> C_{k+2}
with components h0, h1, so h^2 = 0 and Phi^-1 = 1 - h.  d_M is unchanged,
d1 becomes d1 + h d_M - d_M h, and d2 becomes
d2 + h1 d1_0 - d1_2 h0 - h1 d_M h0.  Over a field any two lifts of delta
differ by such an h d_M - d_M h, so this reaches every lift with nothing
solved.  validate_pearl and the induced-map, collapse-page and rate checks
still run on every lift, and a failed one raises ModelError naming its
condition.
"""

from __future__ import annotations

import random
from operator import mul

from .fields import Field, QQ
from .linalg import LinAlgError, Matrix, _product
from .complexes import (BasedChainComplex, TwistedPearlComplex, validate_pearl,
                        integral_homology, admissibility_error)
from .threefold import (MAX_B, MAX_TORSION_FACTORS, ThreefoldHomology,
                        TripleForm)
from .spectral import Contraction, Spectrum, PAGE2, PAGE3


class ModelError(Exception):
    pass


NO_DERIVATION = ("not page-2 narrow: no derivation satisfies the product "
                 "constraints")

# The largest surplus rank accepted in one degree: the homology check's
# Smith form grows steeply with it (generate --page 3 --b 2 --field F7
# with surplus (0, s, s, 0) takes 0.11 s at s = 50 and 0.37 s at s = 64,
# in-process, Python 3.11 on a shared 2-vCPU Xeon VM).
MAX_SURPLUS = 64
# The largest chain rank a document may declare: realize_morse's largest
# rank (b + factors + surplus, in degree 1 or 2) plus its largest in the
# other degree of the same parity (1 + surplus), so that every generated
# pearl and its 2-periodic fold read back.
MAX_RANK = MAX_B + MAX_TORSION_FACTORS + MAX_SURPLUS + 1 + MAX_SURPLUS


class Page2Spec:
    """Odd-b narrow data: a triple form with a slice and the rate vector of
    the degree-0 derivation, which fixes the degree-1 component (see
    solve_leibniz_derivation)."""

    def __init__(self, H: ThreefoldHomology, I: TripleForm, r):
        if H.b % 2 == 0:
            raise ModelError("odd Betti number required")
        if I.b != H.b:
            raise ModelError("form rank does not match the Betti number")
        if len(r) != H.b or all(x == 0 for x in r):
            raise ModelError("rate vector must be nonzero of length b")
        self.H = H
        self.I = I
        self.r = [int(x) for x in r]


class Page3Spec:
    """Even-b narrow data: the invertible antisymmetric pairing and the
    page-2 rate; the induced degree-1 derivation is A = r * Qprime^{-1}."""

    def __init__(self, H: ThreefoldHomology, Qprime, r: int):
        b = H.b
        if b % 2 == 1:
            raise ModelError("no invertible antisymmetric matrix in odd dimension")
        Q = [[int(x) for x in row] for row in Qprime]
        if len(Q) != b or any(len(row) != b for row in Q):
            raise ModelError("pairing matrix must be b x b")
        for i in range(b):
            for j in range(b):
                if Q[i][j] != -Q[j][i]:
                    raise ModelError("pairing matrix must be antisymmetric")
        if int(r) == 0:
            raise ModelError("rate must be nonzero")
        QM = Matrix.from_int_rows(QQ, Q, nrows=b, ncols=b)
        if b and QQ.is_zero(QM.determinant()):
            raise ModelError("pairing matrix must be invertible")
        self.H = H
        self.Qprime = Q
        self.r = int(r)


def _unimodular(rng, n: int, inverse=False):
    """Random integer matrix U of determinant +-1 via elementary row sums;
    with inverse=True, the pair (U, U^-1).  Each row operation
    row_i += c row_j on U is undone on the right of U^-1 by the column
    operation col_j -= c col_i."""
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Ui = [list(row) for row in U]
    for _ in range(3 * n):
        i, j = rng.randrange(n) if n else 0, rng.randrange(n) if n else 0
        if n == 0 or i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            U[i][k] += c * U[j][k]
            Ui[k][j] -= c * Ui[k][i]
    return (U, Ui) if inverse else U


def _check_spec_homology(morse, H: ThreefoldHomology):
    got, _ = integral_homology(morse)
    if got.free_ranks != [1, H.b, H.b, 1]:
        raise ModelError("complex does not realize the requested Betti numbers")
    if got.torsion != [[], H.torsion, [], []]:
        raise ModelError("complex does not realize the requested torsion")


def realize_morse(H: ThreefoldHomology, shape=(0, 0, 0, 0), seed: int = 0
                  ) -> BasedChainComplex:
    """Integral complex of ranks (1, b, b, 1) plus the given rank surplus,
    whose integral homology is exactly H.

    Torsion factors become diagonal boundary blocks; surplus ranks pair up
    into birth pairs with unit boundary entries (the surplus must decompose
    that way or the shape is infeasible).  A seeded unimodular basis change
    per degree hides the block structure.  With no torsion and no surplus
    every block is zero, and conjugating a zero map gives a zero map, so
    the complex is the zero one and no basis change is drawn: the rng is
    this function's own and feeds nothing else.
    """
    b, tor = H.b, H.torsion
    t = len(tor)
    s0, s1, s2, s3 = (int(x) for x in shape)
    if min(s0, s1, s2, s3) < 0:
        raise ModelError("negative surplus")
    if max(s0, s1, s2, s3) > MAX_SURPLUS:
        raise ModelError(f"surplus {max(s0, s1, s2, s3)} exceeds {MAX_SURPLUS}")
    p10, p32 = s0, s3
    p21 = s1 - s0
    if p21 < 0 or s2 - s3 != p21:
        raise ModelError("infeasible shape: surplus does not split into "
                         "cancelling birth pairs")
    r0, r1, r2, r3 = 1 + s0, b + t + s1, b + t + s2, 1 + s3
    # C_1 columns: b free | t torsion targets | p10 deaths to C_0 | p21 targets
    # C_2 columns: b free | t torsion sources | p21 deaths to C_1 | p32 targets
    d1 = [[0] * r1 for _ in range(r0)]
    for a in range(p10):
        d1[1 + a][b + t + a] = 1
    d2 = [[0] * r2 for _ in range(r1)]
    for a, factor in enumerate(tor):
        d2[b + a][b + a] = factor
    for a in range(p21):
        d2[b + t + p10 + a][b + t + a] = 1
    d3 = [[0] * r3 for _ in range(r2)]
    for a in range(p32):
        d3[b + t + p21 + a][1 + a] = 1
    ranks = [r0, r1, r2, r3]
    blocks = [d1, d2, d3]
    if t or p10 or p21 or p32:
        rng = random.Random(seed)
        U, Ui = zip(*(_unimodular(rng, n, inverse=True) for n in ranks))
        # Ui[k - 1] d_k U[k], on integer rows
        blocks = [_product(_product(Ui[k - 1], d, ranks[k], 0), U[k],
                           ranks[k], 0) for k, d in enumerate(blocks, 1)]
    C = BasedChainComplex(QQ, ranks, [Matrix._make(QQ, d, 1, ranks[k - 1],
                                                   ranks[k])
                                      for k, d in enumerate(blocks, 1)])
    _check_spec_homology(C, H)
    return C


def homology_bases(morse: BasedChainComplex, field: Field):
    """The distinguished homology bases over the field: integral free-part
    cycle representatives reduced mod the (admissible) characteristic."""
    H, reps = integral_homology(morse)
    error = admissibility_error(sum(H.torsion, []), field)
    if error:
        raise ModelError(error)
    return [R.to_field(field) for R in reps]


def solve_leibniz_derivation(I: TripleForm, r, field: Field):
    """The degree-1 component of a derivation extending the rate vector:
    antisymmetric c with, writing the form values as structure constants,
      sum_m I(i,m,k) c_mj = r_i d_jk - d_ij r_k      (duality pairing)
      c r = 0                                        (squares to zero)
    read off one row block of these equations.  Returns the candidate, or
    None when that block has no solution; _checked_derivation decides
    whether the candidate satisfies the rest.

    Let i0 be the first index with r_i0 != 0 in the field and S the slice
    at e_i0, S[k][m] = I(i0,k,m).  The pairing rows with i = i0 read
    -S c = R, with R = r_i0 1 - r e_i0^T; the row r^T c = 0 follows from
    antisymmetry and c r = 0.  So c solves one (b+1) x b system with b
    right-hand sides.  R has rank >= b - 1, so whenever a derivation exists
    the alternating S has rank b - 1 and kernel e_i0, and the r^T row kills
    that kernel.  The solution is then unique, so it is the derivation.
    The system is built from the slice's integer rows (``slice_rows``), r
    and R in integers, each reduced into the field once.

    The degree-2 product equations sum_k I(i,j,k) c_mk = r_i d_jm - r_j d_im
    are implied: read as (i,m,j), the pairing row (i,j,k) differs from the
    product row (i,j,m) by antisymmetry rows, whose right-hand side is 0.
    """
    b, F = I.b, field
    i0 = next((i for i, x in enumerate(r) if not F.is_zero(x)), None)
    if i0 is None:
        raise ModelError("not page-2 narrow: rate vector vanishes over the "
                         "field")
    S = I.slice_rows([int(i == i0) for i in range(b)])
    minus_R = [[(r[k] if j == i0 else 0) - (r[i0] if j == k else 0)
                for j in range(b)] for k in range(b)]
    return Matrix.from_int_rows(F, S + [list(r)], b + 1, b).solve(
        Matrix.from_int_rows(F, minus_R + [[0] * b], b + 1, b))


def _checked_derivation(I: TripleForm, r, c: Matrix) -> Matrix:
    """c, once it satisfies over its field every equation of
    solve_leibniz_derivation; else ModelError names the first one it fails.
    c is the integer rows C over one denominator d, and each equation is
    checked as d times itself in integers.  The pairing row (i, k) is
    sum_m I(i,m,k) C[m] = -sum_x I(x,i,k) C[x], the negated row that
    I.packed_contract(C) packs at (i, k); the form is alternating, so
    the residual at (k, i) is minus the one at (i, k) and vanishes at
    i = k, and only the rows i < k are checked.  Each residual row R is the
    packed row of I.packed_contract(C) plus d r_i at slot k less d r_k at
    slot i, in s-bit slots whose signed digits d_t have |d_t| < 2^(s-2)
    (threefold module docstring: the slots hold max|C| sum|coeff| +
    max|d r|, a sign bit and a spare bit), so it costs O(|coeffs|)
    multiply-adds of b-slot integers.  The digits of R are unique among
    digits below 2^(s-1) in size, so over Q the row vanishes iff R = 0.

    Over F_p the row vanishes iff p divides every d_t, decided by two tests
    on R instead of reading its slots: p | R, and then X = R/p + 2^(w-1)
    sum_t 2^(s t), with w = s - bitlen(p), has no bit outside the low w
    bits of each of the b slots.  If every d_t = p e_t, then
    |e_t| < 2^(s-2) / 2^(bitlen(p)-1) = 2^(w-1), so X has the slots
    e_t + 2^(w-1) in [0, 2^w) and passes.  If X passes, it is
    sum_t u_t 2^(s t) with 0 <= u_t < 2^w, so R = sum_t p (u_t - 2^(w-1))
    2^(s t) with each digit below p 2^(w-1) < 2^(s-1) in size; by
    uniqueness these are the d_t, all multiples of p.  When w < 1, every
    |d_t| < 2^(s-2) < p, so p divides them all iff R = 0: X = R/p is then
    tested against every bit."""
    b, p = I.b, c.field.char
    C, d = c.num, c.den
    rd = [d * x for x in r]
    fail = NO_DERIVATION + ": the slice solution fails "
    acc, s = I.packed_contract(C, max(map(abs, rd), default=0))
    at = [1 << (s * t) for t in range(b)]
    w = s - p.bit_length()
    ones = sum(at)
    off, outside = ((ones << (w - 1), ~(ones * ((1 << w) - 1))) if w > 0
                    else (0, -1))
    for i in range(b):
        row = acc[i]
        for k in range(i + 1, b):
            res = row[k] + rd[i] * at[k] - rd[k] * at[i]
            if res and (not p or res % p or (res // p + off) & outside):
                raise ModelError(fail + "the duality pairing")
    ok = c.field.is_zero
    if not all(ok(C[i][j] + C[j][i]) for i in range(b) for j in range(i, b)):
        raise ModelError(fail + "antisymmetry")
    if not all(ok(sum(map(mul, row, r))) for row in C):
        raise ModelError(fail + "c r = 0")
    return c


def _lift_failed(condition):
    return ModelError(f"chain-level lift failed: {condition}")


def _random_matrix(field, rng, m, n):
    return Matrix.from_int_rows(
        field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)], m, n)


def _lift_chain(morse_F, H, delta, rng, x=None):
    """(P, con): the closed-form pearl complex P lifting delta, conjugated
    by Phi = 1 + h (module docstring), and the Contraction con of morse_F
    onto H that its pi came from.  The rng draws h0, then h1, then x unless
    it is pinned.  validate_pearl checks P; a failure raises ModelError
    naming its condition."""
    F = morse_F.field
    r = morse_F.ranks
    con = Contraction(morse_F, H)
    pi = con.pi
    dM = [morse_F.boundary(k) for k in range(4)]
    h0 = _random_matrix(F, rng, r[2], r[0])
    h1 = _random_matrix(F, rng, r[3], r[1])
    if x is None:
        x = _random_matrix(F, rng, H[3].ncols, H[0].ncols)
    d1 = [H[k + 1] * delta[k] * pi(k) for k in range(3)]
    d2 = H[3] * x * pi(0) + h1 * d1[0] - d1[2] * h0 - h1 * dM[2] * h0
    d1 = [d1[0] - dM[2] * h0, d1[1] + h0 * dM[1] - dM[3] * h1,
          d1[2] + h1 * dM[2]]
    P = TwistedPearlComplex(F, r, morse_F.boundaries[1:], d1, d2)
    bad = validate_pearl(P)
    if bad:
        raise _lift_failed("invalid pearl complex: " + "; ".join(bad))
    return P, con


def _lift_pearl(morse_F, H, delta, rng, page, rate=None):
    """(P, S): the pearl P of _lift_chain and its Spectrum S in the bases H,
    checked to induce exactly delta on page 1 and to collapse at the given
    page; a given rate is pinned as x and checked to be the page-2 rate.
    The closed form meets each check by construction, so a check that fails
    raises ModelError naming its condition.  S reads page 1 through the
    lift's own Contraction, and it holds the checked page 1, collapse page
    and (page 3) literal rate, so an Instance built on P and H
    (Instance.from_spectrum) verifies without computing them again."""
    x = None if rate is None else Matrix(morse_F.field, [[rate]], 1, 1)
    P, con = _lift_chain(morse_F, H, delta, rng, x)
    S = Spectrum(P, H, con)
    if not all(a == bmat for a, bmat in zip(S.page1.d1star, delta)):
        raise _lift_failed("induced page-1 differential differs from the "
                           "target")
    if S.collapse != page:
        raise _lift_failed(f"collapses at {S.collapse}, not {page}")
    if rate is not None and S.rate != rate:
        raise _lift_failed("page-2 rate differs from the target")
    return P, S


def lift_derivation_page2(spec: Page2Spec, morse: BasedChainComplex,
                          field: Field, seed: int = 0):
    """(P, H, S): a pearl complex P over the field whose page-1 differential
    is exactly the spec's derivation and whose spectral sequence collapses
    at page 2, the homology bases H = homology_bases(morse, field) that
    the differential is read in, and the Spectrum S of P in H that checked
    both.

    The induced page-1 complex is exact once ``_checked_derivation``
    passes: the pairing rows give -S c = R with rank R >= b - 1, and
    c r = 0 with r != 0 caps rank c at b - 1."""
    _check_spec_homology(morse, spec.H)
    F = field
    H = homology_bases(morse, F)
    rng = random.Random(seed)
    delta0 = Matrix.from_int_rows(F, [[x] for x in spec.r])
    delta2 = Matrix.from_int_rows(F, [spec.r])
    c = solve_leibniz_derivation(spec.I, spec.r, F)
    if c is None:
        raise ModelError(NO_DERIVATION)
    c = _checked_derivation(spec.I, spec.r, c)
    P, S = _lift_pearl(morse.to_field(F), H, [delta0, c, delta2], rng, PAGE2)
    return P, H, S


def lift_derivation_page3(spec: Page3Spec, morse: BasedChainComplex,
                          field: Field, seed: int = 0):
    """(P, H, S): a pearl complex P whose page-1 differential is
    A = r * Qprime^{-1} on degree 1 (zero elsewhere) and whose page-2 rate
    is exactly r, the homology bases H = homology_bases(morse, field)
    that the differential is read in, and the Spectrum S of P in H that
    checked both."""
    _check_spec_homology(morse, spec.H)
    b = spec.H.b
    F = field
    H = homology_bases(morse, F)
    rng = random.Random(seed)
    rF = F.from_int(spec.r)
    if F.is_zero(rF):
        raise ModelError("rate vanishes over the field")
    Qp = Matrix.from_int_rows(F, spec.Qprime, nrows=b, ncols=b)
    try:
        A = Qp.inverse().scale(rF)
    except LinAlgError as e:
        raise ModelError("pairing matrix is singular over the field") from e
    delta = [Matrix.zeros(F, b, 1), A, Matrix.zeros(F, 1, b)]
    P, S = _lift_pearl(morse.to_field(F), H, delta, rng, PAGE3, rF)
    return P, H, S


def random_pearl(morse: BasedChainComplex, field: Field,
                 seed: int = 0) -> TwistedPearlComplex:
    """A random valid pearl structure on the Morse complex: random outer
    maps delta_0, delta_2 on homology and a random middle map
    D = ker(delta_2) R ker(delta_0^T)^T, so that delta squares to zero,
    lifted to chain level by _lift_chain.  No narrowness promise."""
    F = field
    H = homology_bases(morse, F)
    hd = [H[k].ncols for k in range(4)]
    rng = random.Random(seed)
    d0 = _random_matrix(F, rng, hd[1], hd[0])
    d2s = _random_matrix(F, rng, hd[3], hd[2])
    K2, K0 = d2s.kernel_basis(), d0.transpose().kernel_basis()
    D = K2 * _random_matrix(F, rng, K2.ncols, K0.ncols) * K0.transpose()
    return _lift_chain(morse.to_field(F), H, [d0, D, d2s], rng)[0]
