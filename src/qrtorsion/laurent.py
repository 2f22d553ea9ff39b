"""Multivariate Laurent polynomials with exact integer or field coefficients.

Terms are stored as a map from integer exponent vectors (tuples, possibly
negative) to nonzero coefficients.  Coefficients are arbitrary-precision
integers unless stated otherwise; evaluation happens in a chosen field.
"""

from __future__ import annotations

from .fields import Field


class LaurentError(Exception):
    pass


class LaurentPolynomial:
    """Finite sum of monomials c * z_1^{a_1} ... z_b^{a_b}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict[tuple, int] = {}
        if terms:
            for exps, c in dict(terms).items():
                self._add_term(tuple(exps), c)

    def _add_term(self, exps, c):
        if len(exps) != self.nvars:
            raise LaurentError("exponent vector length mismatch")
        if c == 0:
            return
        cur = self.terms.get(exps, 0)
        new = cur + c
        if new == 0:
            self.terms.pop(exps, None)
        else:
            self.terms[exps] = new

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): c})

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def __eq__(self, other):
        return (isinstance(other, LaurentPolynomial) and other.nvars == self.nvars
                and other.terms == self.terms)

    def __add__(self, other):
        if other.nvars != self.nvars:
            raise LaurentError("variable count mismatch")
        out = LaurentPolynomial(self.nvars, self.terms)
        for exps, c in other.terms.items():
            out._add_term(exps, c)
        return out

    def partial(self, i: int) -> "LaurentPolynomial":
        """Formal partial derivative in variable i."""
        if not 0 <= i < self.nvars:
            raise LaurentError(f"variable index {i} out of range")
        out = LaurentPolynomial(self.nvars)
        for exps, c in self.terms.items():
            k = exps[i]
            if k == 0:
                continue
            shifted = list(exps)
            shifted[i] = k - 1
            out._add_term(tuple(shifted), c * k)
        return out

    def evaluate(self, field: Field, point):
        """Exact value at a point of the torus (all coordinates nonzero)."""
        if len(point) != self.nvars:
            raise LaurentError("point dimension mismatch")
        for z in point:
            if field.is_zero(z):
                raise LaurentError("evaluation point has a zero coordinate")
        total = field.zero()
        for exps, c in self.terms.items():
            v = field.from_int(c)
            for z, k in zip(point, exps):
                if k:
                    v = field.mul(v, field.pow(z, k))
            total = field.add(total, v)
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items()):
            mono = "".join(f"z{i + 1}^{k}" if k != 1 else f"z{i + 1}"
                           for i, k in enumerate(exps) if k != 0)
            parts.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(parts)
