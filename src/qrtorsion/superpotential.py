"""Superpotential algebra from disc data.

A disc system lists boundary classes in Z^b with their counts; the potential
is the corresponding integer Laurent polynomial, held here as the map from
exponent vectors to nonzero counts with only what its callers read: the
constant test, partial derivatives and evaluation.  Evaluation happens at
points of the torus (F^x)^b, exactly, through Representation.monomial,
which refuses a power over Q too long to write; the Hessian, read by
discriminant and the verifier, is evaluated once, in hessian.  The degree-0
and degree-2 disc differentials are the logarithmic gradient of the
potential, written once, in log_gradient, as a column and a row.  Nothing
here knows about collapsing pages: the rule that ties a critical point to
page-3 collapse is checked by the verifier.
"""

from __future__ import annotations

from .fields import Field, digit_limit
from .linalg import Matrix


class PotentialError(Exception):
    pass


class LaurentPolynomial:
    """Finite sum of monomials c * z_1^{a_1} ... z_b^{a_b}: terms maps each
    exponent vector (a tuple, possibly negative) to its nonzero integer
    coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        """The sum of the (exponent vector, coefficient) pairs in terms.
        Repeated vectors accumulate in the position of their first
        occurrence, and coefficients that cancel to zero are dropped."""
        self.nvars = nvars
        acc: dict[tuple, int] = {}
        for exps, c in terms:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise PotentialError("exponent vector length mismatch")
            acc[exps] = acc.get(exps, 0) + c
        self.terms = {exps: c for exps, c in acc.items() if c}

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def partial(self, i: int) -> "LaurentPolynomial":
        """Formal partial derivative in variable i."""
        if not 0 <= i < self.nvars:
            raise PotentialError(f"variable index {i} out of range")
        return LaurentPolynomial(self.nvars, (
            (exps[:i] + (exps[i] - 1,) + exps[i + 1:], c * exps[i])
            for exps, c in self.terms.items() if exps[i]))

    def evaluate(self, phi: "Representation"):
        """Exact value at the point phi of the torus."""
        F = phi.field
        if phi.b != self.nvars:
            raise PotentialError("representation size mismatch")
        total = F.zero()
        for exps, c in self.terms.items():
            total = F.add(total, F.mul(F.from_int(c), phi.monomial(exps)))
        return total


class DiscSystem:
    """Finite list of (boundary class in Z^b, integer count)."""

    def __init__(self, b: int, discs=()):
        if b < 0:
            raise PotentialError("negative variable count")
        self.b = b
        self.discs = []
        for bd, m0 in discs:
            vec = [int(x) for x in bd]
            if len(vec) != b:
                raise PotentialError("boundary vector length mismatch")
            self.discs.append((vec, int(m0)))


class Representation:
    """A point of the torus: one invertible scalar per variable (torsion
    classes are implicitly sent to 1)."""

    def __init__(self, field: Field, values):
        self.field = field
        self.values = list(values)
        if any(field.is_zero(v) for v in self.values):
            raise PotentialError("representation values must be invertible")

    @property
    def b(self):
        return len(self.values)

    def monomial(self, exps):
        """The value z^e at this point.  Over Q, v^e is refused before it is
        built when it is certain to have more than digit_limit() digits in
        its numerator or denominator; +-1 never is."""
        F = self.field
        cap = F.char == 0 and digit_limit()
        out = F.one()
        for v, e in zip(self.values, exps):
            # at least (bits - 1) |e| log10(2) digits, and 0.30102 < log10(2)
            bits = cap and (abs(v.numerator) | v.denominator).bit_length()
            if bits and (bits - 1) * abs(e) * 30102 >= cap * 100000:
                raise PotentialError(f"z^{e} at {F.format(v)} exceeds the "
                                     f"{cap}-digit limit on integers")
            out = F.mul(out, F.pow(v, e))
        return out


def build_potential(D: DiscSystem) -> LaurentPolynomial:
    """Sum of count * z^{boundary} over the discs; colliding boundary
    classes accumulate."""
    return LaurentPolynomial(D.b, D.discs)


def log_gradient(W: LaurentPolynomial, phi: Representation):
    """The vector of z_i * dW/dz_i evaluated at phi; on a monomial this
    multiplies its value by the exponent, so no division ever happens.
    PotentialError when the point has the wrong number of coordinates."""
    F = phi.field
    if phi.b != W.nvars:
        raise PotentialError("representation size mismatch")
    out = [F.zero()] * phi.b
    for exps, coeff in W.terms.items():
        val = F.mul(F.from_int(coeff), phi.monomial(exps))
        for i, e in enumerate(exps):
            if e:
                out[i] = F.add(out[i], F.mul(F.from_int(e), val))
    return out


def hessian(W: LaurentPolynomial, phi: Representation):
    """The second partials d^2 W / dz_i dz_j at phi, as a symmetric list of
    rows; each one with i <= j is evaluated once."""
    b = W.nvars
    H = [[None] * b for _ in range(b)]
    for i in range(b):
        Wi = W.partial(i)
        for j in range(i, b):
            H[i][j] = H[j][i] = Wi.partial(j).evaluate(phi)
    return H


def discriminant(W: LaurentPolynomial, phi: Representation):
    """Signed torus-weighted Hessian determinant at a critical point of a
    3-fold's potential: (-1)^{3b + 1} z_1^2 ... z_b^2 det(d^2 W / dz_i dz_j)."""
    F = phi.field
    b = phi.b
    if any(not F.is_zero(g) for g in log_gradient(W, phi)):
        raise PotentialError("discriminant is only defined at critical points")
    det = Matrix(F, hessian(W, phi), b, b).determinant()
    sign = F.from_int((-1) ** (3 * b + 1))
    weight = F.one()
    for v in phi.values:
        weight = F.mul(weight, F.mul(v, v))
    return F.mul(sign, F.mul(weight, det))


def d1_from_discs(W: LaurentPolynomial, phi: Representation):
    """The two disc differentials determined by the divisor axiom, as a row
    (degree 2 to degree 3) and a column (degree 0 to degree 1): both are the
    log gradient g of the potential W = build_potential(D),
    g_i = sum_A m0(A) * phi(dA) * (dA)_i."""
    g = log_gradient(W, phi)
    return (Matrix(phi.field, [g], nrows=1, ncols=W.nvars),
            Matrix(phi.field, [[x] for x in g], nrows=W.nvars, ncols=1))

