import os
import random
import subprocess
import sys
import textwrap

import pytest

import qrtorsion
from qrtorsion.fields import QQ, GF, SignClass
from qrtorsion.threefold import ThreefoldHomology, TripleForm
from qrtorsion.models import realize_morse, homology_bases, random_pearl
from qrtorsion.torsion import milnor_torsion, quantum_torsion
from qrtorsion.complexes import BasedChainComplex
from qrtorsion.spectral import PAGE2, PAGE3
from qrtorsion.generate import generate_instance, mutate_d2
from qrtorsion.verifier import (Instance, torsion_ratio, e1_milnor_torsion,
                                torsion_via_page2_formula,
                                torsion_via_page3_formula, q_form,
                                verify_main_theorem)
from qrtorsion.superpotential import DiscSystem, Representation
from qrtorsion.linalg import Matrix
from qrtorsion.schemas import (instance_from_json, instance_to_json,
                               report_to_json, dump)


def _milnor_from_scratch(inst):
    """The page-1 Milnor torsion as a new complex sees it: the squares
    checked again and every d1star, copied into a matrix that keeps no
    pass, eliminated anew."""
    pg1 = inst.spectrum.page1
    C = BasedChainComplex(inst.field, pg1.ranks[::-1], [
        Matrix._make(d.field, d.num, d.den, d.nrows, d.ncols)
        for d in pg1.d1star[::-1]])
    return milnor_torsion(C, [Matrix.zeros(inst.field, r, 0)
                              for r in C.ranks]).inv()


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=repr)
def test_shared_pass_milnor_torsion_matches_a_fresh_complex(field):
    pivots = set()
    for surplus in [(0, 0, 0, 0), (1, 1, 1, 1), (2, 3, 3, 2)]:
        for b, seeds in [(1, range(3)), (3, range(12)), (5, range(3))]:
            for seed in seeds:
                inst = generate_instance(2, b, field, seed, surplus=surplus)
                back = instance_from_json(instance_to_json(inst))
                rates = [row[0] for row in inst.spectrum.page1.d1star[0].rows]
                pivots.add(next(i for i, x in enumerate(rates)
                                if not field.is_zero(x)) > 0)
                for i in (inst, back):
                    assert e1_milnor_torsion(i) == _milnor_from_scratch(i)
    # the rate vanishes at index 0 on some instances (b = 3, seed 10 in
    # each field), so both pivot cases are covered
    assert pivots == {False, True}


def test_torsion_ratio():
    F = GF(7)
    assert torsion_ratio(ThreefoldHomology(3), F) == F.one()
    # torsion sits in degree 1: ratio = 1/|Tor H_1|
    assert torsion_ratio(ThreefoldHomology(3, [5]), F) == F.from_int(3)


def test_page2_formula_matches_direct():
    for seed in range(5):
        inst = generate_instance(2, 3, QQ, seed)
        direct = quantum_torsion(inst.pearl, random.Random(0))
        assert torsion_via_page2_formula(inst) == direct
        ratio = torsion_ratio(inst.homology, inst.field)
        assert direct == e1_milnor_torsion(inst) * ratio


def test_page3_formula_matches_direct():
    for seed in range(5):
        inst = generate_instance(3, 2, GF(5), seed)
        direct = quantum_torsion(inst.pearl, random.Random(0))
        assert torsion_via_page3_formula(inst) == direct


def test_q_form_identity():
    F = QQ
    A = Matrix.from_int_rows(F, [[0, 1], [-1, 0]], 2, 2)
    r = F.from_int(2)
    qf = q_form(A, r, F)
    assert qf.antisymmetric
    # det Q = r^b / det A
    assert qf.det == F.from_int(4)


def test_q_form_determinant_check_survives_optimize():
    # python -O strips asserts; the refusal of det A = 0 must not be one
    code = textwrap.dedent("""
        from qrtorsion.fields import QQ
        from qrtorsion.linalg import Matrix
        from qrtorsion.verifier import VerifierError, q_form
        Matrix.determinant = lambda self: QQ.zero()
        A = Matrix.from_int_rows(QQ, [[0, 1], [-1, 0]], 2, 2)
        try:
            q_form(A, QQ.from_int(2), QQ)
        except VerifierError as e:
            print(e)
    """)
    src = os.path.dirname(os.path.dirname(qrtorsion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "singular degree-1 differential on page 3"


def test_q_form_builds_neither_inverse_nor_determinant(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("q_form must read Q's invariants off A's pass")

    F = GF(5)
    A = Matrix.from_int_rows(F, [[1, 2], [4, 1]], 2, 2)
    # page 1's rank count runs A's forward pass, which A keeps
    assert A.rank() == 2
    monkeypatch.setattr(Matrix, "inverse", refuse)
    monkeypatch.setattr(Matrix, "_eliminate", refuse)
    qf = q_form(A, F.from_int(2), F)
    # Q = 2 A^{-1} = [[4, 2], [4, 4]] over F_5: det 3, not antisymmetric
    assert (qf.det, qf.antisymmetric) == (F.from_int(3), False)


@pytest.mark.parametrize("b, field", [(4, QQ), (2, GF(5))])
def test_page3_verify_inverts_A_only_for_the_disc_identity(monkeypatch, b,
                                                           field):
    # det Q and antisymmetry are read off A; only the symmetrized-product
    # identity, run with discs and a representation, reads Q's entries
    inst = generate_instance(3, b, field, 1)
    A = inst.spectrum.page1.d1star[1]
    calls = []
    inverse = Matrix.inverse

    def counting(self):
        if self is A:
            calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counting)
    rep = verify_main_theorem(inst)
    assert rep.collapse == "Page3" and rep.all_pass
    assert calls == []
    inst.discs = DiscSystem(b, [([1] + [0] * (b - 1), 1)])
    inst.representation = Representation(field, [field.from_int(2)] * b)
    rep = verify_main_theorem(inst)
    assert "symmetrized_product_identity" in rep.flags
    assert len(calls) == 1


def test_verify_page2_report():
    inst = generate_instance(2, 5, GF(7), 1, torsion=(5,),
                             surplus=(1, 1, 1, 1))
    rep = verify_main_theorem(inst)
    assert rep.all_pass
    assert rep.collapse == "Page2"
    assert rep.flags["dichotomy_consistent"]
    assert rep.implied.get("rationally_prime") is True


def test_verify_page3_report():
    inst = generate_instance(3, 4, QQ, 2)
    rep = verify_main_theorem(inst)
    assert rep.all_pass
    assert rep.collapse == "Page3"
    assert rep.flags["q_antisymmetric"] and rep.flags["two_path_torsion"]
    assert rep.torsion_direct == rep.torsion_formula


def test_page3_report_flags_are_exactly_the_checks_that_can_fail():
    doc = report_to_json(
        verify_main_theorem(generate_instance(3, 4, GF(7), 1)), GF(7))
    assert set(doc["flags"]) == {
        "pearl_valid", "narrow", "b_parity", "dichotomy_consistent",
        "rate_cross_check", "q_antisymmetric", "two_path_torsion"}
    assert doc["Q_det"] is not None and doc["A_det"] is not None
    assert doc["r"] is not None


def test_verify_not_narrow_reports_note():
    C = realize_morse(ThreefoldHomology(3), seed=1)
    F = GF(3)
    for s in range(30):
        P = random_pearl(C, F, seed=s)
        inst = Instance(ThreefoldHomology(3), TripleForm(3, {(1, 2, 3): 1}),
                        F, P, homology_bases(C, F))
        rep = verify_main_theorem(inst)
        if not rep.flags.get("narrow", False):
            assert any("not narrow" in n for n in rep.notes)
            return
    pytest.skip("no non-narrow pearl found in 30 draws")


def test_verify_page3_rate_disagreement_is_flagged():
    # a closed-form rate that disagrees stops the page-3 formula path: the
    # report carries the rate's flags as False and the reason as a note,
    # while the flag read off A alone still holds
    inst = generate_instance(3, 4, QQ, 2)
    S = inst.spectrum
    S.__dict__["closed_form_rate"] = QQ.add(S.rate, QQ.one())
    rep = verify_main_theorem(inst)
    for name in ("rate_cross_check", "two_path_torsion"):
        assert rep.flags[name] is False
    assert rep.flags["q_antisymmetric"] is True
    assert rep.torsion_formula is None
    assert "page-2 rate disagrees with its closed form" in rep.notes


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=repr)
@pytest.mark.parametrize("b", [2, 4])
def test_verify_page3_closed_form_reads_page1_contraction(field, b):
    # doubling the pi(3) rows of page 1's contraction after page 1 is read
    # doubles the closed-form rate and leaves the literal one: exactly the
    # rate cross-check and the two-path comparison fail
    for seed in range(5):
        inst = generate_instance(3, b, field, seed, surplus=(1, 1, 1, 1))
        back = instance_from_json(instance_to_json(inst))
        con = back.spectrum.page1.con
        con.coords[3] = con.coords[3].scale(field.from_int(2))
        rep = verify_main_theorem(back)
        assert {name for name, ok in rep.flags.items() if not ok} == {
            "rate_cross_check", "two_path_torsion"}
        assert "page-2 rate disagrees with its closed form" in rep.notes


def test_verify_fold_not_acyclic_is_flagged(monkeypatch):
    from qrtorsion import verifier
    from qrtorsion.torsion import NotNarrowError

    def not_narrow(*args):
        raise NotNarrowError("torsion undefined, complex not narrow")

    monkeypatch.setattr(verifier, "quantum_torsion", not_narrow)
    rep = verify_main_theorem(generate_instance(3, 2, QQ, 4))
    assert rep.flags["narrow"] is False
    assert "fold is not acyclic despite page collapse" in rep.notes


def test_verify_detects_mutation():
    inst = generate_instance(3, 2, QQ, 3, surplus=(1, 1, 1, 1))
    bad = mutate_d2(inst, seed=5)
    assert not verify_main_theorem(bad).all_pass


def test_verify_with_discs():
    # constant potential, critical everywhere: consistent with page 3
    inst = generate_instance(3, 2, QQ, 4)
    inst.discs = DiscSystem(2, [([0, 0], 1)])
    inst.representation = Representation(QQ, [QQ.one(), QQ.one()])
    rep = verify_main_theorem(inst)
    assert rep.all_pass
    assert rep.implied.get("w_constant") is True


CONSTANT = ("potential is constant: gradient and discriminant vanish "
            "identically")
PAGE2_NOTE = "page-2 collapse requires a noncritical representation"
PAGE3_NOTE = "page-3 collapse requires a critical representation"


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("page, discs, point, consistent, notes", [
    (2, [([1, 0, 0], 1)], [1, 1, 1], True, []),
    (2, [([1, -1, 0], 2), ([-1, 1, 0], 2)], [1, 1, 1], False, [PAGE2_NOTE]),
    (2, [([0, 0, 0], 3)], [2, 1, 3], False, [CONSTANT, PAGE2_NOTE]),
    (3, [([1, 0], 1), ([-1, 0], 1)], [1, 3], True, []),
    (3, [([1, 0], 1)], [2, 3], False, [PAGE3_NOTE]),
    (3, [([0, 0], 3)], [2, 3], True, [CONSTANT]),
], ids=["page2-noncritical", "page2-critical", "page2-constant",
        "page3-critical", "page3-noncritical", "page3-constant"])
def test_verify_representation_page_rule(field, page, discs, point,
                                         consistent, notes):
    # page-3 collapse exactly at a critical point of W, with one note when
    # the representation disagrees with the page and one when W is constant
    inst = generate_instance(page, len(point), field, 1)
    inst.discs = DiscSystem(len(point), discs)
    inst.representation = Representation(field,
                                         [field.from_int(x) for x in point])
    rep = verify_main_theorem(inst)
    assert rep.collapse == (PAGE2 if page == 2 else PAGE3)
    assert rep.flags["representation_page_consistent"] is consistent
    assert rep.notes == notes


@pytest.mark.parametrize("disc, holds", [([1, 0], True), ([1, 1], False)],
                         ids=["W=z1", "W=z1z2"])
def test_verify_symmetrized_identity_with_a_nonconstant_potential(disc, holds):
    # -z_i z_j d^2W/dz_i dz_j = Q_ij + Q_ji, with the Hessian and
    # Q = r A^-1 both computed by sympy
    sympy = pytest.importorskip("sympy")
    inst = generate_instance(3, 2, QQ, 4)
    inst.discs = DiscSystem(2, [(disc, 1)])
    inst.representation = Representation(QQ, [QQ.from_int(2),
                                              QQ.parse("1/3")])
    rep = verify_main_theorem(inst)
    z = sympy.symbols("z1 z2")
    point = [sympy.Integer(2), sympy.Rational(1, 3)]
    hess = sympy.hessian(z[0] ** disc[0] * z[1] ** disc[1], z).subs(
        dict(zip(z, point)))
    A = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in inst.spectrum.page1.d1star[1].rows])
    Q = sympy.Rational(rep.r.numerator, rep.r.denominator) * A.inv()
    assert all(-point[i] * point[j] * hess[i, j] == Q[i, j] + Q[j, i]
               for i in range(2) for j in range(2)) is holds
    assert rep.flags["symmetrized_product_identity"] is holds


def test_page3_verify_evaluates_each_disc_witness_once(monkeypatch):
    # a critical representation: the disc row, the page check and the
    # symmetrized-product identity read one W, its one log gradient and
    # its one Hessian
    from qrtorsion import superpotential, verifier
    calls = {"build_potential": 0, "hessian": 0, "log_gradient": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        wrapped = counting(name, getattr(superpotential, name))
        for mod in (superpotential, verifier):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapped)
    inst = generate_instance(3, 2, QQ, 4)
    inst.discs = DiscSystem(2, [([1, 0], 1), ([-1, 0], 1)])
    inst.representation = Representation(QQ, [QQ.one(), QQ.from_int(3)])
    rep = verify_main_theorem(inst)
    assert rep.flags["representation_page_consistent"]
    assert calls == {"build_potential": 1, "hessian": 1, "log_gradient": 1}


def _spectral_counters(monkeypatch):
    """Record the Contractions built inside each page1 call, every
    Contraction built at all, and the Contraction of each b_coords read
    (during a verify, only the closed-form rate reads one)."""
    from qrtorsion import spectral
    calls = {"page1": [], "built": [], "b_coords": []}
    real_init = spectral.Contraction.__init__
    real_b_coords = spectral.Contraction.b_coords
    real_page1 = spectral.page1

    def init(self, *args, **kwargs):
        calls["built"].append(self)
        real_init(self, *args, **kwargs)

    def b_coords(self, k):
        calls["b_coords"].append(self)
        return real_b_coords(self, k)

    def page1(*args, **kwargs):
        start = len(calls["built"])
        out = real_page1(*args, **kwargs)
        calls["page1"].append(calls["built"][start:])
        return out

    monkeypatch.setattr(spectral.Contraction, "__init__", init)
    monkeypatch.setattr(spectral.Contraction, "b_coords", b_coords)
    monkeypatch.setattr(spectral, "page1", page1)
    return calls


def _generated_and_read_back(page, b, field, seed, **kwargs):
    """A generated instance, and the same instance read back from its JSON,
    as `qrtorsion verify` sees it."""
    inst = generate_instance(page, b, field, seed, **kwargs)
    return inst, instance_from_json(instance_to_json(inst))


def test_verify_computes_each_spectral_object_once(monkeypatch):
    page2, page2_json = _generated_and_read_back(2, 3, GF(5), 1,
                                                 surplus=(1, 1, 1, 1))
    page3, page3_json = _generated_and_read_back(3, 2, GF(5), 1,
                                                 surplus=(1, 1, 1, 1))
    calls = _spectral_counters(monkeypatch)

    def verified(inst):
        for recorded in calls.values():
            recorded.clear()
        return verify_main_theorem(inst).all_pass

    # read from JSON, verify computes page 1 itself, once, through the one
    # contraction it builds
    assert verified(page2_json)
    assert len(calls["page1"]) == 1
    assert verified(page3_json)
    [[behind_page1]] = calls["page1"]
    assert calls["built"] == [behind_page1]
    # the closed form reads page 1's contraction instead of building another
    assert page3_json.spectrum.page1.con is behind_page1
    assert calls["b_coords"] == [behind_page1]

    # generated, the instance carries the spectrum its lift was checked on,
    # and the closed form reads the lift's contraction: none is built
    assert verified(page2)
    assert calls["page1"] == [] and calls["built"] == []
    assert verified(page3)
    assert calls["page1"] == [] and calls["built"] == []
    assert calls["b_coords"] == [page3.spectrum.page1.con]


@pytest.mark.parametrize("field", [GF(5), QQ], ids=repr)
@pytest.mark.parametrize("page, b", [(2, 3), (2, 5), (3, 2), (3, 4)])
def test_generate_builds_one_contraction(monkeypatch, page, b, field):
    calls = _spectral_counters(monkeypatch)
    inst = generate_instance(page, b, field, 1, surplus=(1, 1, 1, 1))
    # the lift builds the contraction its pi comes from, and page 1 reads
    # d1* through that one instead of building another
    [lift_contraction] = calls["built"]
    assert calls["page1"] == [[]]
    for recorded in calls.values():
        recorded.clear()
    assert verify_main_theorem(inst).all_pass
    # in memory, verify builds no contraction on either page: page 3's
    # closed form reads the lift's
    assert calls["built"] == []
    assert calls["b_coords"] == ([] if page == 2 else [lift_contraction])


def test_verify_eliminates_each_map_once(monkeypatch):
    page2, page2_json = _generated_and_read_back(2, 3, GF(5), 1,
                                                 surplus=(1, 1, 1, 1))
    page3, page3_json = _generated_and_read_back(3, 2, GF(5), 1,
                                                 surplus=(1, 1, 1, 1))
    calls = []  # (caller, reduce, matrix) of each elimination pass
    eliminate = Matrix._eliminate

    def recorded(self, reduce=True):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):
            caller = caller.f_back  # a comprehension's frame (before 3.12)
        calls.append((caller.f_code.co_name, reduce, self))
        return eliminate(self, reduce)

    monkeypatch.setattr(Matrix, "_eliminate", recorded)
    # every matrix keeps its forward pass: each boundary's image basis and
    # section, each d1star's rank and image and det A are read off one pass,
    # the closed form reads page 1's contraction, the Q form inverts
    # nothing, the page-2 formula evaluates one slice, and a zero map (d_M's
    # d_2 here, and every map with no rows or no columns) is not swept
    for inst, count in [(page2_json, 17), (page3_json, 15),
                        # page 1 with its contraction, its ranks, d_M's
                        # passes and the literal rate come with a generated
                        # instance
                        (page2, 8), (page3, 4)]:
        calls.clear()
        assert verify_main_theorem(inst).all_pass
        assert len(calls) == count
        # every forward pass enters through the kept-pass reader, and only
        # the callers that read R run a Gauss-Jordan pass
        for caller, reduce, _ in calls:
            if caller == "_forward":
                assert reduce is False
            else:
                assert caller in ("solve", "kernel_basis", "inverse") and reduce
        # no matrix is swept forward twice (calls holds each one, so no id
        # is reused)
        forward = [id(m) for c, _, m in calls if c == "_forward"]
        assert len(set(forward)) == len(forward)
        # page 1's pass is the only one over each nonzero d1star (page 3's
        # outer two are zero): once when read from JSON, and none in
        # memory, where the lift ran it
        d1star = inst.spectrum.page1.d1star
        on_d1star = [c for c, _, m in calls if any(m is d for d in d1star)]
        assert on_d1star == {page2_json: ["_forward"] * 3,
                             page3_json: ["_forward"]}.get(inst, [])


def test_verify_multiplies_page1_squares_once(monkeypatch):
    page2, page2_json = _generated_and_read_back(2, 3, GF(5), 1,
                                                 surplus=(1, 1, 1, 1))
    operands = []  # (left, right) of each product
    product = Matrix.__mul__

    def recorded(self, other):
        operands.append((self, other))
        return product(self, other)

    monkeypatch.setattr(Matrix, "__mul__", recorded)
    for inst, times in [(page2_json, 1), (page2, 0)]:
        operands.clear()
        assert verify_main_theorem(inst).all_pass
        # page 1 checks d1star_{k+1} d1star_k = 0 once, and the Milnor
        # cross-check holds the complex without a second product; a
        # generated instance's lift made the check
        d1star = inst.spectrum.page1.d1star
        for k in range(2):
            assert sum(1 for L, R in operands
                       if L is d1star[k + 1] and R is d1star[k]) == times


# slices counts the distinct vectors among find_slice's witness e_0 and the
# pivot's unit vector: one where they coincide, two where the rate vanishes
# at index 0 and the pivot is index 2 (seed 7) or 1 (seeds 10, 42)
@pytest.mark.parametrize("field, seed, slices", [
    (GF(5), 1, 1), (QQ, 1, 1),
    (GF(7), 7, 2), (GF(7), 10, 2), (GF(7), 42, 2), (QQ, 10, 2)], ids=repr)
def test_page2_verify_computes_the_pivot_slice_once(monkeypatch, field, seed,
                                                    slices):
    from qrtorsion import threefold, verifier
    inst, back = _generated_and_read_back(2, 3, field, seed)
    calls = []
    real = threefold.symplectic_slice

    def counting(I, v, F):
        calls.append(list(v))
        return real(I, v, F)

    for mod in (threefold, verifier):
        monkeypatch.setattr(mod, "symplectic_slice", counting)
    rates = [row[0] for row in inst.spectrum.page1.d1star[0].rows]
    pivot = next(i for i, x in enumerate(rates) if not field.is_zero(x))
    e_pivot = [int(j == pivot) for j in range(3)]
    witness, _ = threefold.find_slice(inst.form, field)
    assert witness == [1, 0, 0]
    assert len({tuple(witness), tuple(e_pivot)}) == slices
    for i in (inst, back):
        calls.clear()
        report = verify_main_theorem(i)
        assert report.all_pass
        # the formula runs first, and once it holds, find_slice does not
        assert calls == [e_pivot]
    # called alone, the formula computes its own slice at the pivot
    calls.clear()
    assert torsion_via_page2_formula(back) == report.torsion_formula
    assert calls == [e_pivot]


def test_verify_page3_computes_det_A_once(monkeypatch):
    inst, back = _generated_and_read_back(3, 2, QQ, 1, surplus=(1, 1, 1, 1))
    passes, dets = [], []  # the matrix of each pass, and of each det read
    eliminate, determinant = Matrix._eliminate, Matrix.determinant

    def eliminating(self, reduce=True):
        passes.append(self)
        return eliminate(self, reduce)

    def reading(self):
        dets.append(self)
        return determinant(self)

    monkeypatch.setattr(Matrix, "_eliminate", eliminating)
    monkeypatch.setattr(Matrix, "determinant", reading)
    for i, times in [(back, 1), (inst, 0)]:
        passes.clear()
        dets.clear()
        assert verify_main_theorem(i).all_pass
        # the report, the Q form and the formula each read det A off the
        # pass A keeps from page 1's rank count: run once from JSON, and in
        # memory by the lift; det Q is r^b / det A
        A = i.spectrum.page1.d1star[1]
        assert sum(m is A for m in dets) == 3
        assert sum(m is A for m in passes) == times


@pytest.mark.parametrize("page, b", [(2, 3), (3, 2)])
def test_generate_computes_the_integral_homology_once(monkeypatch, page, b):
    from qrtorsion import complexes
    calls = []
    real = complexes.smith_normal_form

    def counting(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(complexes, "smith_normal_form", counting)
    generate_instance(page, b, GF(5), 1, torsion=[3], surplus=(1, 1, 1, 1))
    # realize_morse's check and the lift's check share one computation: one
    # Smith pass for each of d_1, d_2 and d_3
    assert len(calls) == 3


def test_generate_skips_the_passes_of_zero_boundaries(monkeypatch):
    from qrtorsion import complexes, models
    snf, transports = [], []
    real_snf, real_unimodular = complexes.smith_normal_form, models._unimodular

    def counting(A):
        snf.append(A)
        return real_snf(A)

    def drawing(*args, **kwargs):
        transports.append(args)
        return real_unimodular(*args, **kwargs)

    monkeypatch.setattr(complexes, "smith_normal_form", counting)
    # models' own name is the one realize_morse calls; generate's transport
    # of the spec calls its imported copy
    monkeypatch.setattr(models, "_unimodular", drawing)
    for seed in range(3):
        # the default shape: every Morse boundary is zero, so realize_morse
        # draws no transport and its homology takes no Smith pass
        generate_instance(2, 9, GF(7), seed)
        assert snf == [] and transports == []
    for page, b in [(2, 3), (3, 2)]:
        # surplus (2,2,2,2) without torsion: d_2 is zero, so d_1 and d_3
        # take the only two passes
        snf.clear()
        generate_instance(page, b, GF(5), 1, surplus=(2, 2, 2, 2))
        assert len(snf) == 2


@pytest.mark.parametrize("page, b", [(2, 3), (3, 2)])
def test_generate_reduces_the_homology_bases_once(monkeypatch, page, b):
    from qrtorsion import models
    calls = []
    real = models.homology_bases

    def counting(*args):
        calls.append(args)
        return real(*args)

    # rebind it in every namespace that holds it, as the benchmark's tracer
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qrtorsion" and \
                getattr(mod, "homology_bases", None) is real:
            monkeypatch.setattr(mod, "homology_bases", counting)
    generate_instance(page, b, GF(5), 1, torsion=[3], surplus=(1, 1, 1, 1))
    # the lift reduces the integral representatives and hands them back
    assert len(calls) == 1


def test_verify_checks_the_pearl_once(monkeypatch):
    from qrtorsion import complexes
    defects = complexes.TwistedPearlComplex.defects.func.__code__
    inside, elsewhere = [], []  # products made in defects, and elsewhere in
    product = Matrix.__mul__    # complexes.py (the fold and the page-1
    block = Matrix.block.__func__  # complexes' square checks)
    folds = []

    def counting(self, other):
        caller = sys._getframe(1).f_code
        if caller is defects:
            inside.append((self.nrows, self.ncols, other.ncols))
        elif caller.co_filename == complexes.__file__:
            elsewhere.append((caller.co_name, self, other))
        return product(self, other)

    def building(cls, *args):
        folds.append(sys._getframe(1).f_code.co_name)
        return block(cls, *args)

    inst, back = _generated_and_read_back(3, 2, QQ, 1, surplus=(1, 1, 1, 1))
    monkeypatch.setattr(Matrix, "__mul__", counting)
    monkeypatch.setattr(Matrix, "block", classmethod(building))
    def page1_squares():
        # the other products in complexes.py are the square checks of the
        # page-1 complexes, whose constructor multiplies d1star maps,
        # never a fold block
        fold = back.pearl._fold + inst.pearl._fold
        assert {name for name, _, _ in elsewhere} <= {"__init__"}
        assert not any(m is f for _, L, R in elsewhere for m in (L, R)
                       for f in fold)
        return len(elsewhere)

    # a pearl read back from JSON, as `verify` sees it, has not been checked:
    # one check of d^2 = 0 takes 2 products, the fold's two squares, and the
    # direct path's fold reuses the checked blocks without another product
    assert verify_main_theorem(back).all_pass
    r = back.pearl.ranks
    assert inside == [(r[0] + r[2], r[1] + r[3], r[0] + r[2]),
                      (r[1] + r[3], r[0] + r[2], r[1] + r[3])]
    assert folds.count("_fold") == 2
    # page 1 checks its two squares, and the closed form reads page 1
    # without a page 1 of its own
    assert page1_squares() == 2
    # a generated pearl was checked, and folded, by its lift, which also
    # built and checked its page 1
    inside.clear()
    elsewhere.clear()
    folds.clear()
    assert verify_main_theorem(inst).all_pass
    assert inside == [] and "_fold" not in folds
    assert page1_squares() == 0


def test_disc_check_failure_is_flagged_and_size_mismatch_raises():
    from qrtorsion.superpotential import PotentialError
    inst = generate_instance(3, 2, QQ, 4)
    # W = z1 has log gradient (1, 0) at (1, 1), which page 1 does not have
    inst.discs = DiscSystem(2, [([1, 0], 1)])
    inst.representation = Representation(QQ, [QQ.one(), QQ.one()])
    rep = verify_main_theorem(inst)
    assert rep.flags["disc_differential_match"] is False
    # a representation of the wrong size is bad input, not a failed check
    inst.representation = Representation(QQ, [QQ.one()])
    with pytest.raises(PotentialError, match="size mismatch"):
        verify_main_theorem(inst)


@pytest.mark.parametrize("extra", [{}, {"torsion": (3,),
                                        "surplus": (2, 2, 2, 2)}],
                         ids=["plain", "torsion-surplus"])
@pytest.mark.parametrize("field", [GF(5), GF(7), QQ], ids=repr)
@pytest.mark.parametrize("page, b", [(2, 3), (2, 5), (3, 2), (3, 4)])
def test_generated_spectrum_verifies_as_json_does(monkeypatch, page, b, field,
                                                  extra):
    from qrtorsion import spectral
    pairs = [_generated_and_read_back(page, b, field, seed, **extra)
             for seed in range(3)]
    entered = []
    page1 = spectral.page1
    # counted on entry: page 1 of an invalid pearl raises
    monkeypatch.setattr(spectral, "page1",
                        lambda P, H, *con: entered.append(P)
                        or page1(P, H, *con))

    def report(inst, computes_page1):
        entered.clear()
        rep = verify_main_theorem(inst)
        assert entered == ([inst.pearl] if computes_page1 else [])
        return rep, dump(report_to_json(rep, field))

    mutants = 0
    for seed, (inst, back) in enumerate(pairs):
        # in memory, verify reads the spectrum generation checked; read back,
        # it computes its own, and the reports agree byte for byte
        rep, text = report(inst, False)
        assert rep.all_pass
        assert report(back, True)[1] == text
        if inst.pearl.d2.is_zero():
            continue
        # a mutant holds a new pearl, so it computes its own spectrum; with
        # the surplus of `batch --corrupt`, the mutation is detected
        bad = mutate_d2(inst, seed)
        rep, text = report(bad, True)
        if extra:
            assert not rep.all_pass
        assert report(instance_from_json(instance_to_json(bad)), True)[1] \
            == text
        mutants += 1
    assert mutants


def test_instance_uses_a_spectrum_only_on_its_own_pearl_and_bases():
    from qrtorsion.spectral import Spectrum
    inst, back = _generated_and_read_back(3, 2, GF(5), 1)
    S = Spectrum(back.pearl, back.bases)

    def holding(**swap):
        held = Instance.from_spectrum(back.homology, back.form, back.field, S)
        vars(held).update(swap)
        return held.spectrum

    assert holding() is S
    # equal values in other objects are not the pearl and bases S was
    # computed in
    assert holding(pearl=inst.pearl) is not S
    assert holding(bases=inst.bases) is not S
    assert holding(bases=back.bases + back.bases[:1]) is not S
