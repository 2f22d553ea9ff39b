"""The two compared torsion paths share no elimination.

A Matrix keeps the pivots and det of its own forward pass, so a pass run by
one path would be read, not repeated, by the other.  These tests record
every matrix that is eliminated or read through its kept pass while
verify_main_theorem runs, split by whether quantum_torsion (the direct
path) is running, and require the two sets to be disjoint; and they
require that no matrix of the pearl's fold holds a kept pass when the
direct path starts.  Each check is shown to fail on a deliberate violation.
"""

import pytest

from qrtorsion import verifier
from qrtorsion.complexes import validate_pearl
from qrtorsion.fields import QQ, GF
from qrtorsion.generate import generate_instance, mutate_d2
from qrtorsion.linalg import Matrix
from qrtorsion.schemas import instance_from_json, instance_to_json

SURPLUS = (1, 2, 2, 1)


@pytest.fixture
def recorder(monkeypatch):
    """A function that verifies an instance and returns (shared, kept,
    direct): how many matrices both paths touched, how many fold matrices
    held a kept pass when the direct path started, and how many matrices
    the direct path touched."""
    seen = {"direct": [], "elsewhere": []}
    kept, stage = [], []
    eliminate, forward = Matrix._eliminate, Matrix._forward

    def eliminating(self, reduce=True):
        if stage:
            seen[stage[-1]].append(self)
        return eliminate(self, reduce)

    def reading(self):
        if stage:
            seen[stage[-1]].append(self)
        return forward(self)

    direct = verifier.quantum_torsion

    def directly(P, *args):
        kept.extend(m for m in P._fold if m._pass is not None)
        stage.append("direct")
        try:
            return direct(P, *args)
        finally:
            stage.pop()

    monkeypatch.setattr(Matrix, "_eliminate", eliminating)
    monkeypatch.setattr(Matrix, "_forward", reading)
    monkeypatch.setattr(verifier, "quantum_torsion", directly)

    def violations(inst):
        for recorded in (*seen.values(), kept):
            recorded.clear()
        stage.append("elsewhere")
        try:
            verifier.verify_main_theorem(inst)
        finally:
            stage.pop()
        # the lists hold every recorded matrix, so no id is reused
        direct_ids = {id(m) for m in seen["direct"]}
        shared = {id(m) for m in seen["elsewhere"] if id(m) in direct_ids}
        return len(shared), len(kept), len(direct_ids)

    return violations


def _instances(page, b, field, seed):
    """(instance, mutant) pairs: the generated instance and its JSON
    reading, and, when its d2 is nonzero, the mutate_d2 mutant and its JSON
    reading."""
    inst = generate_instance(page, b, field, seed, surplus=SURPLUS)
    out = [(inst, False), (instance_from_json(instance_to_json(inst)), False)]
    if not inst.pearl.d2.is_zero():
        bad = mutate_d2(inst, seed)
        out += [(bad, True), (instance_from_json(instance_to_json(bad)), True)]
    return out


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=repr)
@pytest.mark.parametrize("page, b", [(2, 3), (2, 5), (3, 2), (3, 4)])
def test_direct_and_formula_paths_share_no_pass(recorder, page, b, field):
    verified = {False: 0, True: 0}
    for seed in range(3):
        for inst, mutant in _instances(page, b, field, seed):
            shared, kept, direct = recorder(inst)
            assert shared == kept == 0
            # every generated pearl reaches the fold; a mutant whose pearl
            # fails d^2 = 0 does not
            assert direct or (mutant and validate_pearl(inst.pearl))
            verified[mutant] += 1
    assert verified[False] == 6 and verified[True]


@pytest.mark.parametrize("page, b", [(2, 3), (3, 2)])
def test_a_fold_ranked_before_verify_is_caught(recorder, page, b):
    inst = instance_from_json(instance_to_json(
        generate_instance(page, b, GF(5), 1, surplus=SURPLUS)))
    inst.pearl._fold[0].rank()
    shared, kept, direct = recorder(inst)
    assert (shared, kept) == (0, 1) and direct


def test_a_formula_reading_the_fold_is_caught(recorder, monkeypatch):
    # the page-2 formula runs after the direct path, so it would only read
    # the pass the fold keeps; reading it is what the check must see
    formula = verifier.torsion_via_page2_formula

    def leaking(inst):
        inst.pearl._fold[1].rank()
        return formula(inst)

    monkeypatch.setattr(verifier, "torsion_via_page2_formula", leaking)
    inst = generate_instance(2, 3, QQ, 1, surplus=SURPLUS)
    shared, kept, _ = recorder(inst)
    assert (shared, kept) == (1, 0)
