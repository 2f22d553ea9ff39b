"""Orchestration: classify an instance, compute its quantum torsion along
independent paths, and check every identity the dichotomy promises.

The two torsion paths are the point: the direct path folds the pearl complex
and takes periodic torsion of the chain-level matrices; the formula path only
sees homology-level data (rates, intersection forms, the pairing Q).  Their
agreement, as sign classes, is the verified content of the torsion theorems.
On page 3, det A is read off the forward pass that A keeps from page 1's
rank count (linalg), q_form reads det Q and Q's antisymmetry off A, and
only the symmetrized-product identity builds Q's entries.

Only the formula path reads the instance's Spectrum.  A generated instance
carries the one generation checked its lift on (page 1, collapse page and,
on page 3, the literal rate), so verifying it in memory computes none of
them again; an instance read from JSON or built by mutate_d2 computes its
own.

On page 2 the Milnor cross-check runs on the checked complex page 1 holds,
and reads each d1*'s image basis and section off the forward pass that d1*
keeps from page 1's rank count.  The closed formula runs first, and
find_slice only when it failed: a formula that holds has a nondegenerate
slice at the pivot's unit vector, and find_slice tries every unit vector
first, so the dichotomy flag is the same either way.

Independence: the fold eliminates only its own block matrices
(TwistedPearlComplex._fold), and nothing on the formula side ranks them.
The closed-form rate reads the Contraction page 1 was read through, since
a second one built from the same inputs is the same deterministic object
and could never disagree with it.  The literal rate's value reads only the
pearl's own maps, and page 1 only gates the survivor pattern, so the rate
cross-check still compares two computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .fields import Field, SignClass
from .linalg import Matrix
from .complexes import TwistedPearlComplex, validate_pearl
from .torsion import milnor_torsion, quantum_torsion, NotNarrowError
from .spectral import Spectrum, PAGE2, PAGE3, SpectralError, WrongPageError
from .threefold import (ThreefoldHomology, TripleForm, symplectic_slice,
                        find_slice)
from .superpotential import (DiscSystem, Representation, build_potential,
                             d1_from_discs, hessian)


class VerifierError(Exception):
    pass


class Instance:
    """Everything the theorems quantify over: 3-fold homology, the triple
    form, the pearl complex over its field, and the distinguished homology
    bases (integral representatives reduced to the field).  Disc data and a
    representation are optional extras."""

    def __init__(self, homology: ThreefoldHomology, form: TripleForm,
                 field: Field, pearl: TwistedPearlComplex, bases,
                 discs: DiscSystem = None, representation: Representation = None,
                 ident=None):
        self.homology = homology
        self.form = form
        self.field = field
        self.pearl = pearl
        self.bases = list(bases)
        self.discs = discs
        self.representation = representation
        self.ident = ident
        self._checked = None

    @classmethod
    def from_spectrum(cls, homology: ThreefoldHomology, form: TripleForm,
                      field: Field, spectrum: Spectrum, ident=None):
        """The instance on the pearl and bases a Spectrum was computed in,
        holding that Spectrum: a generated instance carries the one its
        lift was checked on (models._lift_pearl)."""
        inst = cls(homology, form, field, spectrum.P, spectrum.page1.bases,
                   ident=ident)
        inst._checked = spectrum
        return inst

    @cached_property
    def spectrum(self) -> Spectrum:
        """The spectral sequence in the distinguished bases, computed on first
        use; only the formula path reads it.  An instance built by
        from_spectrum reads the given one instead, as long as its pearl and
        bases are still the objects that Spectrum was computed in."""
        S = self._checked
        if (S is not None and S.P is self.pearl
                and len(S.page1.bases) == len(self.bases)
                and all(a is b for a, b in zip(S.page1.bases, self.bases))):
            return S
        return Spectrum(self.pearl, self.bases)


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_main_theorem`; A_det, r and Q_det are field
    values (None off the page-3 branch)."""

    collapse: str | None
    torsion_direct: SignClass | None
    torsion_formula: SignClass | None
    A_det: Any
    r: Any
    Q_det: Any
    flags: dict
    implied: dict
    notes: list

    @property
    def all_pass(self) -> bool:
        return all(self.flags.values())


def torsion_ratio(H: ThreefoldHomology, field: Field):
    """|Tor_ev| / |Tor_odd| in the field; for 3-folds all integral torsion
    sits in degree 1, so this is the inverse of its order."""
    return field.inv(field.from_int(H.torsion_order()))


def e1_milnor_torsion(inst: Instance) -> SignClass:
    """Milnor torsion of the acyclic page-1 complex in the distinguished
    homology bases.

    The page-1 differential ascends, so degree k of the complex holds the
    homology of degree 3 - k; that regrading flips every degree parity,
    which inverts the torsion, so the inverse is returned.  That complex is
    the one page 1 holds, whose d_{k+1} is d1star_{2-k} and keeps page 1's
    forward pass, so only the zero map d_4 is eliminated here.
    """
    pg1 = inst.spectrum.page1
    if not pg1.is_exact():
        raise WrongPageError("page-1 complex is not acyclic")
    C = pg1.complex
    empty = [Matrix.zeros(inst.field, r, 0) for r in C.ranks]
    return milnor_torsion(C, empty).inv()


def torsion_via_page2_formula(inst: Instance) -> SignClass:
    """The closed torsion formula for page-2 collapse: torsion ratio times
    r_i^{b-3} over the slice determinant at the pivot index i (the first
    index with nonzero rate), cross-checked against the page-1 Milnor
    torsion path."""
    F = inst.field
    b = inst.homology.b
    pg1 = inst.spectrum.page1
    if not pg1.is_exact():
        raise WrongPageError("not a page-2 instance")
    d1 = pg1.d1star[0].rows
    rates = [d1[i][0] for i in range(b)]
    # page 1 is exact, so d1*_0 is injective and some rate is nonzero
    pivot = next(i for i, x in enumerate(rates) if not F.is_zero(x))
    det_slice = symplectic_slice(inst.form, [int(j == pivot)
                                             for j in range(b)], F)
    if det_slice is None:
        raise VerifierError("slice at the pivot index is degenerate")
    ratio = torsion_ratio(inst.homology, F)
    val = F.mul(ratio, F.div(F.pow(rates[pivot], b - 3), det_slice))
    formula = SignClass(F, val)
    cross = SignClass(F, ratio) * e1_milnor_torsion(inst)
    if formula != cross:
        raise VerifierError("closed formula disagrees with the page-1 "
                            "torsion path")
    return formula


def torsion_via_page3_formula(inst: Instance) -> SignClass:
    """The page-3 torsion formula: torsion ratio times det A over the page-2
    rate, with the rate cross-checked against its closed form; A is the
    page-1 degree-1 map d1star_1."""
    F = inst.field
    S = inst.spectrum
    r = S.rate
    r_cf = S.closed_form_rate
    if r != r_cf:
        raise VerifierError("page-2 rate disagrees with its closed form")
    ratio = torsion_ratio(inst.homology, F)
    return SignClass(F, F.mul(ratio, F.div(S.page1.d1star[1].determinant(),
                                           r)))


@dataclass
class QForm:
    det: Any
    antisymmetric: bool


def q_form(A: Matrix, r, field: Field) -> QForm:
    """det Q = r^b / det A and the antisymmetry of Q = r * A^{-1}, read off
    A: Q + Q^T = r A^{-1} (A + A^T) A^{-T}, zero exactly when A + A^T is, as
    det A != 0 (refused here) and r != 0 (Spectrum.rate refuses it)."""
    A_det = A.determinant()
    if field.is_zero(A_det):
        raise VerifierError("singular degree-1 differential on page 3")
    return QForm(field.div(field.pow(r, A.nrows), A_det),
                 (A + A.transpose()).is_zero())


def verify_main_theorem(inst: Instance) -> VerificationReport:
    """Full dichotomy check; failures land in flags, never in exceptions."""
    F = inst.field
    b = inst.homology.b
    flags = {}
    implied = {}
    notes = []
    collapse = None
    direct = formula = None
    A_det = r_val = Q_det = qf = None

    flags["pearl_valid"] = not validate_pearl(inst.pearl)
    try:
        S = inst.spectrum
        collapse = S.collapse
    except SpectralError as e:
        notes.append(f"collapse classification failed: {e}")
        flags["narrow"] = False
        return VerificationReport(collapse, None, None, None, None, None,
                                  flags, implied, notes)
    flags["narrow"] = collapse in (PAGE2, PAGE3)
    if not flags["narrow"]:
        notes.append("torsion undefined, complex not narrow")
        return VerificationReport(collapse, None, None, None, None, None,
                                  flags, implied, notes)
    try:
        direct = quantum_torsion(inst.pearl)
    except NotNarrowError:
        flags["narrow"] = False
        notes.append("fold is not acyclic despite page collapse")
        return VerificationReport(collapse, None, None, None, None, None,
                                  flags, implied, notes)

    if collapse == PAGE2:
        flags["b_parity"] = b % 2 == 1
        try:
            formula = torsion_via_page2_formula(inst)
        except (VerifierError, WrongPageError, SpectralError) as e:
            notes.append(str(e))
        # slice test directly, where the formula found no slice at e_pivot
        # (module docstring): for b = 1 the complement is 0-dimensional and
        # the slice exists vacuously even though the form is zero
        flags["dichotomy_consistent"] = (formula is not None or
                                         find_slice(inst.form, F) is not None)
        implied["rationally_prime"] = True
        flags["e1_torsion_identity"] = formula is not None
        flags["two_path_torsion"] = formula is not None and direct == formula
    else:
        flags["b_parity"] = b % 2 == 0
        flags["dichotomy_consistent"] = inst.form.is_zero_over(F)
        try:
            A = S.page1.d1star[1]
            A_det = A.determinant()
            r_val = S.rate
            flags["rate_cross_check"] = r_val == S.closed_form_rate
            qf = q_form(A, r_val, F)
            Q_det = qf.det
            flags["q_antisymmetric"] = qf.antisymmetric
            # last, so that a rate refused by its closed form fails only
            # rate_cross_check and two_path_torsion
            formula = torsion_via_page3_formula(inst)
        except (VerifierError, WrongPageError, SpectralError) as e:
            notes.append(str(e))
            for name in ("rate_cross_check", "q_antisymmetric"):
                flags.setdefault(name, False)
        flags["two_path_torsion"] = formula is not None and direct == formula

    if inst.discs is not None and inst.representation is not None:
        phi = inst.representation
        W = build_potential(inst.discs)
        implied["w_constant"] = W.is_constant()
        row, col = d1_from_discs(W, phi)
        flags["disc_differential_match"] = (row == S.page1.d1star[2]
                                            and col == S.page1.d1star[0])
        # collapse is at page 3 exactly when phi is a critical point of W
        critical = row.is_zero()
        consistent = critical == (collapse == PAGE3)
        flags["representation_page_consistent"] = consistent
        if implied["w_constant"]:
            notes.append("potential is constant: gradient and discriminant "
                         "vanish identically")
        if not consistent:
            notes.append("page-2 collapse requires a noncritical representation"
                         if critical else
                         "page-3 collapse requires a critical representation")
        if qf is not None:
            # symmetrized-product identity, the only reader of Q's entries:
            # Q_ij + Q_ji must match the n = 3 signed torus-weighted Hessian
            Q = A.inverse().scale(r_val).rows
            z = phi.values
            flags["symmetrized_product_identity"] = all(
                F.mul(F.from_int(-1), F.mul(F.mul(z[i], z[j]), h))
                == F.add(Q[i][j], Q[j][i])
                for i, row in enumerate(hessian(W, phi))
                for j, h in enumerate(row))

    return VerificationReport(collapse, direct, formula, A_det, r_val, Q_det,
                              flags, implied, notes)
