"""Synthetic instance generators.

realize_morse builds an integral chain complex with prescribed 3-fold
homology (perfect bases, torsion blocks, birth pairs, then a seeded
unimodular scramble).  The lift_* functions solve, at chain level, for disc
differentials inducing prescribed homology-level structure: the solution
space of "chain map with prescribed induced map" is an affine subspace, so
we assemble one linear system and sample it.

Each lift is drawn once.  Over a field every homology map lifts to a map
anticommuting with d_M, and d1^2, inducing delta o delta = 0, is then
null-homotopic through its one C_0 -> C_3 component, d2.  The induced map,
collapse page and pinned rate are equations of these solves, so the spec
alone decides whether a lift exists, and a failed check raises ModelError.
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


class _AffineSystem:
    """Linear equations sum_t A_t U_t B_t = C in several unknown matrices,
    solved by flattening row-major; solutions sampled from the affine space."""

    def __init__(self, field: Field):
        self.field = field
        self.shapes = {}
        self.offsets = {}
        self.size = 0
        self.rows = []
        self.rhs = []

    def unknown(self, name, m, n):
        self.shapes[name] = (m, n)
        self.offsets[name] = self.size
        self.size += m * n

    def equation(self, terms, C: Matrix):
        """terms: list of (A, name, B); A or B may be None for identity."""
        F = self.field
        m_out, n_out = C.nrows, C.ncols
        for p in range(m_out):
            for q in range(n_out):
                row = [F.zero()] * self.size
                for A, name, B in terms:
                    m, n = self.shapes[name]
                    off = self.offsets[name]
                    for i in range(m):
                        a = A.rows[p][i] if A is not None else \
                            (F.one() if p == i else F.zero())
                        if F.is_zero(a):
                            continue
                        for j in range(n):
                            bb = B.rows[j][q] if B is not None else \
                                (F.one() if j == q else F.zero())
                            if F.is_zero(bb):
                                continue
                            row[off + i * n + j] = F.add(row[off + i * n + j],
                                                         F.mul(a, bb))
                self.rows.append(row)
                self.rhs.append(C.rows[p][q])

    def sample(self, rng=None):
        """A random solution, or None when the system is infeasible.

        One elimination of [M | rhs] gives both the particular solution (the
        rhs column at the pivots) and the kernel: each free column j spans
        e_j - sum over pivots of R[row][j] e_pivot, and draws one
        coefficient in ascending order of j.
        """
        F = self.field
        size = self.size
        aug = Matrix(F, [row + [x] for row, x in zip(self.rows, self.rhs)],
                     len(self.rows), size + 1)
        R, pivots = aug.rref()
        if pivots and pivots[-1] == size:
            return None
        vec = [F.zero()] * size
        for pi, pc in enumerate(pivots):
            vec[pc] = R.rows[pi][size]
        if rng is not None:
            pivot_set = set(pivots)
            for j in range(size):
                if j in pivot_set:
                    continue
                coef = F.from_int(rng.randint(-4, 4))
                vec[j] = F.add(vec[j], coef)
                for pi, pc in enumerate(pivots):
                    vec[pc] = F.sub(vec[pc], F.mul(coef, R.rows[pi][j]))
        out = {}
        for name, (m, n) in self.shapes.items():
            off = self.offsets[name]
            out[name] = Matrix(F, [[vec[off + i * n + j] for j in range(n)]
                                   for i in range(m)], m, n)
        return out


def _lift_d1(morse_F, H, delta, field, rng):
    """Sample d1 maps anticommuting with the Morse boundary and inducing the
    prescribed maps delta[k] : H_k -> H_{k+1} on homology."""
    ranks = morse_F.ranks
    dM = [morse_F.boundary(k) for k in range(5)]
    sysm = _AffineSystem(field)
    for k in range(3):
        sysm.unknown(f"d1_{k}", ranks[k + 1], ranks[k])
    # auxiliary boundary witnesses for the homology conditions
    sysm.unknown("X0", ranks[2], H[0].ncols)
    sysm.unknown("X1", ranks[3], H[1].ncols)
    zero = lambda m, n: Matrix.zeros(field, m, n)
    # anticommutation, one component per degree
    sysm.equation([(dM[1], "d1_0", None)], zero(ranks[0], ranks[0]))
    sysm.equation([(dM[2], "d1_1", None), (None, "d1_0", dM[1])],
                  zero(ranks[1], ranks[1]))
    sysm.equation([(dM[3], "d1_2", None), (None, "d1_1", dM[2])],
                  zero(ranks[2], ranks[2]))
    sysm.equation([(None, "d1_2", dM[3])], zero(ranks[3], ranks[3]))
    # induced maps on homology, with boundary freedom in degrees 0 and 1
    sysm.equation([(None, "d1_0", H[0]), (-dM[2], "X0", None)], H[1] * delta[0])
    sysm.equation([(None, "d1_1", H[1]), (-dM[3], "X1", None)], H[2] * delta[1])
    sysm.equation([(None, "d1_2", H[2])], H[3] * delta[2])
    sol = sysm.sample(rng)
    if sol is None:
        return None
    return [sol["d1_0"], sol["d1_1"], sol["d1_2"]]


def _solve_d2(morse_F, d1, field, rng, rate_target=None, contraction=None):
    """Sample d2 : C_0 -> C_3 completing d1 to a pearl differential; when
    rate_target is given, also pin the induced page-2 rate, computed in the
    contraction of the Morse part."""
    ranks = morse_F.ranks
    dM = [morse_F.boundary(k) for k in range(5)]
    sysm = _AffineSystem(field)
    sysm.unknown("d2", ranks[3], ranks[0])
    sysm.equation([(dM[3], "d2", None)], -(d1[1] * d1[0]))
    sysm.equation([(None, "d2", dM[1])], -(d1[2] * d1[1]))
    if rate_target is not None:
        con, c = contraction, contraction.H[0]
        x2 = dM[2].solve(-(d1[0] * c))
        if x2 is None:
            return None
        rest = con.pi(3) * d1[2] * x2
        want = Matrix(field, [[field.sub(rate_target, rest.rows[0][0])]])
        sysm.equation([(con.pi(3), "d2", c)], want)
    sol = sysm.sample(rng)
    return None if sol is None else sol["d2"]


def solve_leibniz_derivation(I: TripleForm, r, field: Field, rng=None):
    """The degree-1 component of a derivation extending the rate vector:
    antisymmetric c with, writing the form values as structure constants,
      sum_m I(i,m,k) c_mj = r_i d_jk - d_ij r_k      (duality pairing)
      c r = 0                                        (squares to zero)
    Returns a sampled solution or None when the constraints are infeasible.
    It serves only specs without a closed-form c (see _checked_derivation).

    The degree-2 product equations sum_k I(i,j,k) c_mk = r_i d_jm - r_j d_im
    are implied and left out.  Read the pairing row (i,j,k) as (i,m,j):
    sum_m' I(i,m',j) c_m'm = r_i d_mj - d_im r_j.  Since I(i,m',j) =
    -I(i,j,m') and c_m'm = -c_mm', it differs from the product row (i,j,m)
    by a combination of antisymmetry rows, whose right-hand side is 0.  The
    augmented row space is therefore the same, and so is its (unique) RREF,
    the particular solution, the kernel basis and the draws that sample
    makes from rng.  The system is (b^3 + b^2 + b) x b^2.
    """
    sol = _leibniz_system(I, r, field).sample(rng)
    return None if sol is None else sol["c"]


def _leibniz_system(I: TripleForm, r, field: Field) -> _AffineSystem:
    """The linear system of solve_leibniz_derivation, unknown c row-major."""
    b = I.b
    F = field
    rF = [F.from_int(x) for x in r]
    zero, one = F.zero(), F.one()
    # form[i][k][m] = I(i+1, m+1, k+1), one lookup per value
    form = [[[F.from_int(I.value(i, m, k)) for m in range(1, b + 1)]
             for k in range(1, b + 1)] for i in range(1, b + 1)]
    sysm = _AffineSystem(F)
    sysm.unknown("c", b, b)
    rows = sysm.rows
    rhs = sysm.rhs
    for i in range(b):
        for j in range(b):
            for k in range(b):
                row = [zero] * (b * b)
                for m, v in enumerate(form[i][k]):
                    row[m * b + j] = v
                rows.append(row)
                rhs.append(F.sub(rF[i] if j == k else zero,
                                 rF[k] if i == j else zero))
    for i in range(b):
        for j in range(b):
            row = [zero] * (b * b)
            row[i * b + j] = one
            row[j * b + i] = F.add(row[j * b + i], one)
            rows.append(row)
            rhs.append(zero)
        row = [zero] * (b * b)
        row[i * b:(i + 1) * b] = rF
        rows.append(row)
        rhs.append(zero)
    return sysm


def _checked_derivation(I: TripleForm, r, c, field: Field) -> Matrix:
    """The integer matrix c over the field, once it satisfies there every
    equation of solve_leibniz_derivation; else ModelError names the first
    one it fails.  The pairing sums come from the stored coefficients of I
    and their six signed permutations: O(|coeffs| b) work, b^3 compares."""
    b, ok = I.b, field.is_zero
    fail = "closed-form derivation fails "
    pairing = [[[0] * b for _ in range(b)] for _ in range(b)]  # [i][k][j]
    for (x, y, z), v in I.coeffs.items():
        for (i, m, k), s in (((x, y, z), v), ((y, z, x), v), ((z, x, y), v),
                             ((y, x, z), -v), ((x, z, y), -v), ((z, y, x), -v)):
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


def _lift_chain(morse_F, H, delta, field, rng, rate=None, contraction=None):
    """A valid pearl complex lifting delta (pinning the page-2 rate, when one
    is given).  The spec decides whether each step succeeds (see the module
    docstring), so a failed step raises ModelError naming its condition."""
    d1 = _lift_d1(morse_F, H, delta, field, rng)
    if d1 is None:
        raise _lift_failed("no d1 induces the page-1 differential")
    d2 = _solve_d2(morse_F, d1, field, rng, rate, contraction)
    if d2 is None:
        raise _lift_failed("no d2 completes d1 to a pearl differential")
    P = TwistedPearlComplex(field, morse_F.ranks, morse_F.boundaries[1:],
                            d1, d2)
    bad = validate_pearl(P)
    if bad:
        raise _lift_failed("invalid pearl complex: " + "; ".join(bad))
    return P


def _lift_pearl(morse_F, H, delta, field, rng, page, rate=None,
                contraction=None):
    """_lift_chain, checked to induce exactly delta on page 1 and to collapse
    at the given page (with page-2 rate exactly rate, when one is given).
    The checks are equations of the lift's solves, so no redraw can pass
    one that fails: it raises ModelError naming its condition."""
    P = _lift_chain(morse_F, H, delta, field, rng, rate, contraction)
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
    c = (solve_leibniz_derivation(spec.I, spec.r, F, rng) if spec.c is None
         else _checked_derivation(spec.I, spec.r, spec.c, F))
    if c is None:
        raise ModelError("not page-2 narrow: no derivation satisfies the "
                         "product constraints")
    if c.rank() != b - 1:
        raise ModelError("not page-2 narrow: the induced page-1 complex is "
                         "not exact")
    return _lift_pearl(morse.to_field(F), H, [delta0, c, delta2], F, rng, PAGE2)


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
    morse_F = morse.to_field(F)
    zero_pearl = TwistedPearlComplex(
        F, morse.ranks, morse_F.boundaries[1:],
        [Matrix.zeros(F, morse.ranks[k + 1], morse.ranks[k]) for k in range(3)],
        Matrix.zeros(F, morse.ranks[3], morse.ranks[0]))
    return _lift_pearl(morse_F, H, delta, F, rng, PAGE3, rF,
                       Contraction(zero_pearl, H))


def _random_matrix(field, rng, m, n):
    return Matrix(field, [[field.from_int(rng.randint(-2, 2)) for _ in range(n)]
                          for i in range(m)], m, n)


def _sample_square_zero(field, rng, outer_in, outer_out, m, n):
    """Random middle map D (m x n) with D * outer_in = 0 and outer_out * D = 0."""
    sysm = _AffineSystem(field)
    sysm.unknown("D", m, n)
    sysm.equation([(None, "D", outer_in)], Matrix.zeros(field, m, outer_in.ncols))
    sysm.equation([(outer_out, "D", None)], Matrix.zeros(field, outer_out.nrows, n))
    return sysm.sample(rng)["D"]


def random_pearl(morse: BasedChainComplex, field: Field,
                 seed: int = 0) -> TwistedPearlComplex:
    """A random valid pearl structure on the Morse complex: a random
    homology-level structure (the square-zero condition is linear in the
    middle map once the outer maps are drawn) lifted to chain level.  No
    narrowness promise.  Nothing is redrawn: the middle-map system is
    homogeneous and a square-zero structure always lifts (module docstring)."""
    F = field
    morse_F = morse.to_field(F)
    ranks = morse.ranks
    rng = random.Random(seed)
    perfect = all(morse_F.boundary(k).is_zero() for k in range(1, 4))
    H = None if perfect else homology_bases(morse, F)
    hd = ranks if perfect else [H[k].ncols for k in range(4)]
    d0 = _random_matrix(F, rng, hd[1], hd[0])
    d2s = _random_matrix(F, rng, hd[3], hd[2])
    delta = [d0, _sample_square_zero(F, rng, d0, d2s, hd[2], hd[1]), d2s]
    if not perfect:
        return _lift_chain(morse_F, H, delta, F, rng)
    d2 = _random_matrix(F, rng, ranks[3], ranks[0])
    P = TwistedPearlComplex(F, ranks, morse_F.boundaries[1:], delta, d2)
    bad = validate_pearl(P)
    if bad:
        raise ModelError("invalid pearl complex: " + "; ".join(bad))
    return P
