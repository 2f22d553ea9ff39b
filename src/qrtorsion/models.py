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
from .linalg import Matrix, IntegerMatrix
from .complexes import (BasedChainComplex, TwistedPearlComplex, validate_pearl,
                        integral_homology, admissible_characteristic)
from .threefold import ThreefoldHomology, TripleForm
from .spectral import Contraction, Spectrum, PAGE2, PAGE3


class ModelError(Exception):
    pass


class Page2Spec:
    """Odd-b narrow data: a triple form with a slice, the rate vector of the
    degree-0 derivation and, optionally, the derivation's integer degree-1
    component c, which the lift checks and uses in place of a solve."""

    def __init__(self, H: ThreefoldHomology, I: TripleForm, r, c=None):
        if H.b % 2 == 0:
            raise ModelError("odd Betti number required")
        if I.b != H.b:
            raise ModelError("form rank does not match the Betti number")
        if len(r) != H.b or all(x == 0 for x in r):
            raise ModelError("rate vector must be nonzero of length b")
        if c is not None and [len(row) for row in c] != [H.b] * H.b:
            raise ModelError("derivation matrix must be b x b")
        self.H = H
        self.I = I
        self.r = [int(x) for x in r]
        self.c = None if c is None else [[int(x) for x in row] for row in c]


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
    per degree hides the block structure.
    """
    b, tor = H.b, H.torsion
    t = len(tor)
    s0, s1, s2, s3 = (int(x) for x in shape)
    if min(s0, s1, s2, s3) < 0:
        raise ModelError("negative surplus")
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
    rng = random.Random(seed)
    ranks = [r0, r1, r2, r3]
    U, Ui = zip(*(_unimodular(rng, n, inverse=True) for n in ranks))

    def conj(d, k):
        m, n = ranks[k - 1], ranks[k]
        return (IntegerMatrix(Ui[k - 1], m, m) * IntegerMatrix(d, m, n)
                * IntegerMatrix(U[k], n, n))

    C = BasedChainComplex(None, ranks, [conj(d1, 1), conj(d2, 2), conj(d3, 3)])
    _check_spec_homology(C, H)
    return C


def homology_bases(morse: BasedChainComplex, field: Field):
    """The distinguished homology bases over the field: integral free-part
    cycle representatives reduced mod the (admissible) characteristic."""
    H, reps = integral_homology(morse)
    if not admissible_characteristic(H, field):
        raise ModelError("characteristic divides the integral torsion")
    return [R.to_field(field) for R in reps]


def solve_leibniz_derivation(I: TripleForm, r, field: Field):
    """The degree-1 component of a derivation extending the rate vector:
    antisymmetric c with, writing the form values as structure constants,
      sum_m I(i,m,k) c_mj = r_i d_jk - d_ij r_k      (duality pairing)
      c r = 0                                        (squares to zero)
    Returns the solution Matrix.solve finds, or None when the constraints are
    infeasible.  It serves only specs without a closed-form c (see
    _checked_derivation).

    The solution is unique whenever a lift can succeed: each column x of
    the difference of two solutions has sum_m I(i,m,k) x_m = 0, which for a
    sliced form puts x in span(r), and antisymmetry with c r = 0 then makes
    the difference vanish.

    The degree-2 product equations sum_k I(i,j,k) c_mk = r_i d_jm - r_j d_im
    are implied and left out.  Read the pairing row (i,j,k) as (i,m,j):
    sum_m' I(i,m',j) c_m'm = r_i d_mj - d_im r_j.  Since I(i,m',j) =
    -I(i,j,m') and c_m'm = -c_mm', it differs from the product row (i,j,m)
    by a combination of antisymmetry rows, whose right-hand side is 0.  The
    augmented row space is therefore the same, and so is its (unique) RREF
    and the solution read off it.  The system is (b^3 + b^2 + b) x b^2.
    """
    b = I.b
    M, rhs = _leibniz_system(I, r, field)
    x = M.solve(rhs)
    return None if x is None else Matrix(
        field, [[x.rows[i * b + j][0] for j in range(b)] for i in range(b)],
        b, b)


def _leibniz_system(I: TripleForm, r, field: Field):
    """The linear system (M, rhs) of solve_leibniz_derivation, unknown c
    row-major."""
    b = I.b
    F = field
    rF = [F.from_int(x) for x in r]
    zero, one = F.zero(), F.one()
    form = [[[zero] * b for _ in range(b)] for _ in range(b)]  # [i][k][m]
    for (i, m, k), s in I.signed_terms():
        form[i - 1][k - 1][m - 1] = F.from_int(s)
    rows, rhs = [], []
    for i in range(b):
        for j in range(b):
            for k in range(b):
                row = [zero] * (b * b)
                for m, v in enumerate(form[i][k]):
                    row[m * b + j] = v
                rows.append(row)
                rhs.append([F.sub(rF[i] if j == k else zero,
                                  rF[k] if i == j else zero)])
    for i in range(b):
        for j in range(b):
            row = [zero] * (b * b)
            row[i * b + j] = one
            row[j * b + i] = F.add(row[j * b + i], one)
            rows.append(row)
            rhs.append([zero])
        row = [zero] * (b * b)
        row[i * b:(i + 1) * b] = rF
        rows.append(row)
        rhs.append([zero])
    return Matrix(F, rows, len(rows), b * b), Matrix(F, rhs, len(rhs), 1)


def _checked_derivation(I: TripleForm, r, c, field: Field) -> Matrix:
    """The integer matrix c over the field, once it satisfies there every
    equation of solve_leibniz_derivation; else ModelError names the first
    one it fails.  The pairing sums run over TripleForm.signed_terms:
    O(|coeffs| b) work, b^3 compares."""
    b, ok = I.b, field.is_zero
    fail = "closed-form derivation fails "
    pairing = [[[0] * b for _ in range(b)] for _ in range(b)]  # [i][k][j]
    for (i, m, k), s in I.signed_terms():
        row, cm = pairing[i - 1][k - 1], c[m - 1]
        for j in range(b):
            row[j] += s * cm[j]
    for i in range(b):
        for k in range(b):
            row = pairing[i][k]
            row[k] -= r[i]
            row[i] += r[k]
            if not all(map(ok, row)):
                raise ModelError(fail + "the duality pairing")
    if not all(ok(c[i][j] + c[j][i]) for i in range(b) for j in range(i, b)):
        raise ModelError(fail + "antisymmetry")
    if not all(ok(sum(map(mul, row, r))) for row in c):
        raise ModelError(fail + "c r = 0")
    return Matrix.from_int_rows(field, c, b, b)


def _lift_failed(condition):
    return ModelError(f"chain-level lift failed: {condition}")


def _random_matrix(field, rng, m, n):
    return Matrix(field, [[field.from_int(rng.randint(-2, 2)) for _ in range(n)]
                          for _ in range(m)], m, n)


def _lift_chain(morse_F, H, delta, rng, x=None):
    """The closed-form pearl complex lifting delta, conjugated by
    Phi = 1 + h (module docstring).  The rng draws h0, then h1, then x
    unless it is pinned.  validate_pearl checks the result; a failure raises
    ModelError naming its condition."""
    F = morse_F.field
    r = morse_F.ranks
    pi = Contraction(morse_F, H).pi
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
    return P


def _lift_pearl(morse_F, H, delta, rng, page, rate=None):
    """_lift_chain, checked to induce exactly delta on page 1 and to collapse
    at the given page; a given rate is pinned as x and checked to be the
    page-2 rate.  The closed form meets each check by construction, so a
    check that fails raises ModelError naming its condition."""
    x = None if rate is None else Matrix(morse_F.field, [[rate]], 1, 1)
    P = _lift_chain(morse_F, H, delta, rng, x)
    S = Spectrum(P, H)
    if not all(a == bmat for a, bmat in zip(S.page1.d1star, delta)):
        raise _lift_failed("induced page-1 differential differs from the "
                           "target")
    if S.collapse != page:
        raise _lift_failed(f"collapses at {S.collapse}, not {page}")
    if rate is not None and S.rate != rate:
        raise _lift_failed("page-2 rate differs from the target")
    return P


def lift_derivation_page2(spec: Page2Spec, morse: BasedChainComplex,
                          field: Field, seed: int = 0) -> TwistedPearlComplex:
    """A pearl complex over the field whose page-1 differential is exactly
    the spec's derivation and whose spectral sequence collapses at page 2."""
    _check_spec_homology(morse, spec.H)
    b = spec.H.b
    F = field
    H = homology_bases(morse, F)
    rng = random.Random(seed)
    rF = [F.from_int(x) for x in spec.r]
    if all(F.is_zero(x) for x in rF):
        raise ModelError("not page-2 narrow: rate vector vanishes over the field")
    delta0 = Matrix(F, [[x] for x in rF])
    delta2 = Matrix(F, [list(rF)])
    c = (solve_leibniz_derivation(spec.I, spec.r, F) if spec.c is None
         else _checked_derivation(spec.I, spec.r, spec.c, F))
    if c is None:
        raise ModelError("not page-2 narrow: no derivation satisfies the "
                         "product constraints")
    if c.rank() != b - 1:
        raise ModelError("not page-2 narrow: the induced page-1 complex is "
                         "not exact")
    return _lift_pearl(morse.to_field(F), H, [delta0, c, delta2], rng, PAGE2)


def lift_derivation_page3(spec: Page3Spec, morse: BasedChainComplex,
                          field: Field, seed: int = 0) -> TwistedPearlComplex:
    """A pearl complex whose page-1 differential is A = r * Qprime^{-1} on
    degree 1 (zero elsewhere) and whose page-2 rate is exactly r."""
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
    except Exception as e:
        raise ModelError("pairing matrix is singular over the field") from e
    delta = [Matrix.zeros(F, b, 1), A, Matrix.zeros(F, 1, b)]
    return _lift_pearl(morse.to_field(F), H, delta, rng, PAGE3, rF)


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
    return _lift_chain(morse.to_field(F), H, [d0, D, d2s], rng)
