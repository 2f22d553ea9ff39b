"""Shared constructors for randomized test data, and the dense reference
product."""

import random
from operator import mul

from qrtorsion.fields import Field
from qrtorsion.linalg import Matrix
from qrtorsion.complexes import BasedChainComplex


def dense_product(A, B, ncols, p=0):
    """The integer rows of A·B by the schoolbook loop: one dot product per
    entry, reduced % p when p is nonzero.  The reference the product kernel
    of ``linalg`` is checked against."""
    cols = list(zip(*B)) if B else [()] * ncols
    if p:
        return [[sum(map(mul, r, c)) % p for c in cols] for r in A]
    return [[sum(map(mul, r, c)) for c in cols] for r in A]


def random_invertible(field: Field, n: int, rng: random.Random) -> Matrix:
    span = field.char - 1 if field.char else 5
    while True:
        M = Matrix.from_int_rows(
            field, [[rng.randint(-span, span) for _ in range(n)]
                    for _ in range(n)], n, n)
        if not field.is_zero(M.determinant()):
            return M


def random_acyclic(field: Field, rng: random.Random, maxdeg: int = 4,
                   maxrank: int = 6) -> BasedChainComplex:
    """Random acyclic based complex: a sum of shifted two-term identity
    complexes, hidden behind random basis changes in every degree."""
    n = rng.randint(1, maxdeg)
    # pairs[k] counts cancelling generators spanning degrees (k-1, k)
    pairs = [0] * (n + 2)
    for k in range(1, n + 1):
        pairs[k] = rng.randint(0, maxrank // 2)
    if all(p == 0 for p in pairs):
        pairs[1] = 1
    ranks = [pairs[k] + pairs[k + 1] for k in range(n + 1)]
    bnds = []
    for k in range(1, n + 1):
        rows = [[field.zero()] * ranks[k] for _ in range(ranks[k - 1])]
        for i in range(pairs[k]):
            # top generator i of the degree-k pairs dies on the tail block
            rows[pairs[k - 1] + i][i] = field.one()
        bnds.append(Matrix(field, rows, ranks[k - 1], ranks[k]))
    C = BasedChainComplex(field, ranks, bnds)
    return conjugate(C, [random_invertible(field, ranks[k], rng)
                         for k in range(n + 1)])


def conjugate(C: BasedChainComplex, T) -> BasedChainComplex:
    """The same complex in new preferred bases T[k] (columns in the old)."""
    n = C.top_degree
    bnds = [T[k - 1].inverse() * C.boundary(k) * T[k] for k in range(1, n + 1)]
    return BasedChainComplex(C.field, C.ranks, bnds)
