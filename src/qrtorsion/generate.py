"""Seeded construction of verifiable pearl-complex instances.

One 64-bit seed drives everything.  The master PRNG is split into named
subseeds drawn in a fixed order (morse, transport, lift, rate), so the
same seed always yields byte-identical instances regardless of how many
random draws each stage consumes internally.
"""

from __future__ import annotations

import random

from .fields import Field, field_to_string
from .complexes import admissibility_error, TwistedPearlComplex
from .linalg import IntegerMatrix, Matrix
from .threefold import ThreefoldHomology, TripleForm
from .models import (Page2Spec, Page3Spec, realize_morse, homology_bases,
                     lift_derivation_page2, lift_derivation_page3, _unimodular)
from .verifier import Instance


class GenerateError(Exception):
    pass


def canonical_form(b: int) -> TripleForm:
    """Block triple form I(1, 2i, 2i+1) = 1 for odd b; zero when b = 1.

    Each block contributes a symplectic plane to the slice at the first
    generator, so the slice pairing is invertible on the complement.  Its
    derivation for the rate vector e_1 is canonical_derivation(b)."""
    if b % 2 == 0:
        raise GenerateError("odd rank required")
    entries = {}
    for i in range(1, (b - 1) // 2 + 1):
        entries[(1, 2 * i, 2 * i + 1)] = 1
    return TripleForm(b, entries)


def canonical_derivation(b: int):
    """The degree-1 derivation c0 of canonical_form(b) for the rate vector
    e_1: c0(2i, 2i+1) = 1 = -c0(2i+1, 2i) (1-based) per block, else zero.
    It is antisymmetric, kills e_1 and has rank b - 1."""
    if b % 2 == 0:
        raise GenerateError("odd rank required")
    c = [[0] * b for _ in range(b)]
    for i in range(1, b, 2):
        c[i][i + 1], c[i + 1][i] = 1, -1
    return c


def standard_symplectic(b: int):
    """Block-diagonal [[0,1],[-1,0]] pairing of even rank b."""
    if b % 2 == 1:
        raise GenerateError("even rank required")
    J = [[0] * b for _ in range(b)]
    for i in range(0, b, 2):
        J[i][i + 1] = 1
        J[i + 1][i] = -1
    return J


def _congruence(P, M):
    """The integer matrix P M P^T, for square integer row lists P and M."""
    return (IntegerMatrix(P) * IntegerMatrix(M) * IntegerMatrix(zip(*P))).rows


def _draw_rate(rng, high: int, field: Field) -> int:
    """A rate drawn from 1..high; one that vanishes in the field becomes 1."""
    r = rng.randint(1, high)
    return 1 if field.char and r % field.char == 0 else r


def check_admissible(field: Field, H: ThreefoldHomology):
    error = admissibility_error(H.torsion, field)
    if error:
        raise GenerateError(error)


def generate_instance(page: int, b: int, field: Field, seed: int,
                      torsion=(), surplus=(0, 0, 0, 0)) -> Instance:
    """A fresh narrow instance of the requested collapse page.

    The canonical spec (block form with unit rate for page 2, standard
    pairing for page 3) is hidden behind a seeded unimodular change of
    homology basis, so repeated calls explore genuinely different data.
    """
    H = ThreefoldHomology(b, torsion)
    check_admissible(field, H)
    master = random.Random(seed)
    morse_seed = master.getrandbits(32)
    transport = random.Random(master.getrandbits(32))
    lift_seed = master.getrandbits(32)
    rate_pick = random.Random(master.getrandbits(32))
    morse = realize_morse(H, surplus, seed=morse_seed)
    F = field
    if page == 2:
        # I = I0 o U and r = U^T (r0 e_1) = r0 (row 0 of U) carry the
        # derivation c0 to U^-1 c0 U^-T
        U, Uinv = _unimodular(transport, b, inverse=True)
        I = canonical_form(b).apply_unimodular(U)
        r0 = _draw_rate(rate_pick, 4, F) if b == 1 else 1
        r = [r0 * x for x in U[0]]
        c = _congruence(Uinv, canonical_derivation(b))
        pearl = lift_derivation_page2(Page2Spec(H, I, r, c), morse, F,
                                      seed=lift_seed)
    elif page == 3:
        J = standard_symplectic(b)
        U = _unimodular(transport, b)
        # congruence transport keeps the pairing antisymmetric and
        # invertible over the integers
        Qp = _congruence(list(zip(*U)), J)
        r = _draw_rate(rate_pick, 5, F)
        pearl = lift_derivation_page3(Page3Spec(H, Qp, r), morse, F,
                                      seed=lift_seed)
        I = TripleForm(b)
    else:
        raise GenerateError("page must be 2 or 3")
    bases = homology_bases(morse, F)
    ident = f"page{page}-b{b}-{field_to_string(F)}-s{seed}"
    return Instance(H, I, F, pearl, bases, ident=ident)


def mutate_d2(inst: Instance, seed: int) -> Instance:
    """Negate one seeded nonzero entry of the degree-3 disc map.

    Characteristic two is excluded globally, so the entry always changes.
    """
    P = inst.pearl
    F = inst.field
    nz = [(i, j) for i in range(P.d2.nrows) for j in range(P.d2.ncols)
          if not F.is_zero(P.d2.rows[i][j])]
    if not nz:
        raise GenerateError("no nonzero entry to mutate")
    i, j = random.Random(seed).choice(nz)
    rows = [list(r) for r in P.d2.rows]
    rows[i][j] = F.neg(rows[i][j])
    d2 = Matrix(F, rows, nrows=P.d2.nrows, ncols=P.d2.ncols)
    mutated = TwistedPearlComplex(F, P.ranks, [P.dM(k) for k in range(1, 4)],
                                  [P.d1_map(k) for k in range(3)], d2)
    return Instance(inst.homology, inst.form, F, mutated, inst.bases,
                    inst.discs, inst.representation,
                    (inst.ident or "instance") + "-mutated")
