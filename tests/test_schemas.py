import hashlib
import json

import pytest

from qrtorsion.fields import QQ, GF
from qrtorsion import schemas
from qrtorsion.generate import generate_instance
from qrtorsion.threefold import TripleForm, ThreefoldHomology
from qrtorsion.superpotential import DiscSystem, Representation
from qrtorsion.complexes import fold_periodic
from qrtorsion.verifier import verify_main_theorem


def test_instance_roundtrip_stable():
    inst = generate_instance(3, 4, GF(5), 7, torsion=(7,),
                             surplus=(1, 1, 1, 1))
    text = schemas.dump(schemas.instance_to_json(inst))
    back = schemas.instance_from_json(json.loads(text))
    assert schemas.dump(schemas.instance_to_json(back)) == text
    assert verify_main_theorem(back).all_pass


def test_pearl_and_periodic_roundtrip():
    inst = generate_instance(2, 3, QQ, 0)
    P = inst.pearl
    back = schemas.pearl_from_json(schemas.pearl_to_json(P))
    assert back.d2 == P.d2 and all(back.d1[k] == P.d1[k] for k in range(3))
    fold = fold_periodic(P)
    fold2 = schemas.periodic_from_json(schemas.periodic_to_json(fold))
    assert fold2.d_oe == fold.d_oe and fold2.d_eo == fold.d_eo


def test_form_roundtrip():
    I = TripleForm(5, {(1, 2, 3): 2, (1, 4, 5): -1})
    assert schemas.form_from_json(schemas.form_to_json(I)).entries() == \
        I.entries()


def test_homology_and_discs_roundtrip():
    H = ThreefoldHomology(3, [3, 9])
    H2 = schemas.homology_from_json(schemas.homology_to_json(H))
    assert H2.b == 3 and H2.torsion == [3, 9]
    D = DiscSystem(2, [([1, 0], 1), ([-1, -1], 2)])
    D2 = schemas.discs_from_json(schemas.discs_to_json(D))
    assert D2.b == 2 and D2.discs == D.discs


def test_instance_roundtrip_with_discs():
    # the disc-bearing instance of test_verify_with_discs
    inst = generate_instance(3, 2, QQ, 4)
    inst.discs = DiscSystem(2, [([0, 0], 1)])
    inst.representation = Representation(QQ, [QQ.one(), QQ.one()])
    text = schemas.dump(schemas.instance_to_json(inst))
    back = schemas.instance_from_json(json.loads(text))
    assert back.discs.b == 2 and back.discs.discs == inst.discs.discs
    assert back.representation.values == inst.representation.values
    assert schemas.dump(schemas.instance_to_json(back)) == text
    report = schemas.dump(schemas.report_to_json(verify_main_theorem(inst), QQ))
    assert '"w_constant": true' in report
    assert schemas.dump(schemas.report_to_json(verify_main_theorem(back),
                                               QQ)) == report


def test_malformed_scalar_rejected():
    with pytest.raises(schemas.SchemaError):
        schemas.matrix_from_json(QQ, [["1/0"]], 1, 1, "test")
    with pytest.raises(schemas.SchemaError):
        schemas.matrix_from_json(QQ, [["1", "2"]], 1, 1, "test")


def _count_parses(monkeypatch, field):
    calls = []
    real = type(field).parse

    def counting(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(type(field), "parse", counting)
    return calls


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_each_distinct_scalar_is_parsed_once_per_document(monkeypatch, field):
    inst = generate_instance(3, 4, field, 7, surplus=(1, 1, 1, 1))
    doc = json.loads(schemas.dump(schemas.instance_to_json(inst)))
    distinct = {x for key in ("dM", "d1") for M in doc["pearl"][key]
                for r in M for x in r}
    distinct |= {x for r in doc["pearl"]["d2"] for x in r}
    distinct |= {x for M in doc["bases"] for r in M for x in r}
    calls = _count_parses(monkeypatch, field)
    back = schemas.instance_from_json(doc)
    assert sorted(calls) == sorted(distinct)
    # a second document parses its scalars again: the memo is not global
    schemas.instance_from_json(doc)
    assert len(calls) == 2 * len(distinct)
    monkeypatch.undo()
    assert schemas.dump(schemas.instance_to_json(back)) == \
        schemas.dump(schemas.instance_to_json(inst))


def test_scalar_memo_keeps_types_apart(monkeypatch):
    # the JSON integer 1 and the string "1" are distinct values, each parsed
    calls = _count_parses(monkeypatch, QQ)
    M = schemas.matrix_from_json(QQ, [[1, "1", "1", 1]], 1, 4, "t")
    assert [type(x) for x in calls] == [int, str]
    assert M.rows == [[QQ.one()] * 4]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
@pytest.mark.parametrize("bad", [2.5, 0.1, 1.0, True, False])
def test_float_and_bool_scalars_are_rejected(monkeypatch, field, bad):
    # each would parse inexactly: 2.5 -> 2 over F_p, true -> 1, 0.1 -> a
    # binary fraction over Q; a memo hit on an equal int must not mask it
    calls = _count_parses(monkeypatch, field)
    with pytest.raises(schemas.SchemaError) as err:
        schemas.matrix_from_json(field, [[1, "1", bad]], 1, 3, "t")
    assert str(err.value) == f"bad scalar in t: {bad!r} is not a string or " \
                             "an integer"
    assert [type(x) for x in calls] == [int, str]


@pytest.mark.parametrize("bad", [[1], {"a": 1}, "1/0", None])
def test_bad_scalar_message_is_the_parse_error(bad):
    try:
        QQ.parse(bad)
    except Exception as e:
        want = f"bad scalar in test: {e}"
    with pytest.raises(schemas.SchemaError) as err:
        schemas.matrix_from_json(QQ, [["2", bad]], 1, 2, "test")
    assert str(err.value) == want


def test_missing_key_reported():
    with pytest.raises(schemas.SchemaError) as err:
        schemas.pearl_from_json({"field": "Q", "ranks": [1, 1, 1, 1]})
    assert "dM" in str(err.value)


def test_load_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\n  broken\n}")
    with pytest.raises(schemas.SchemaError) as err:
        schemas.load(p)
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("page, b, field, digest", [
    (2, 1, "F7",
     "8f1d2f9644818b76214447983668e1c146f55e8e296591ffc9b2545188fb631c"),
    (2, 1, "Q",
     "d4f836a8a7cc411eaac9a7f1de8107aed1f9ae1ab64cb692b417c5be2bddc2ad"),
    (2, 3, "F7",
     "07f2c0736057f09b21f0956768857974b5e999d5a808542be73d862212da29eb"),
    (2, 3, "Q",
     "ab6f909b50276e5dbd7ee2e00a6bfece0e339304956d7d04ec1227a2c028352a"),
    (2, 5, "F7",
     "2f8f44297bf90c00c0c252c805af79fc6e786a8b052aa099db52d2685555e012"),
    (2, 5, "Q",
     "0e1e66eb4fe4f3384c9edac30dea84ebdbb56968e489e78b5ae93e567ea4f907"),
    (2, 9, "F7",
     "9f9266e6c2c8286a873891b3aeac7d60d5a0bf35cff9319b3d209cd973244a61"),
    (2, 9, "Q",
     "0a80f7940b9c3db32f1134c8e48491cf07f501c2dea155cb65b435fcbe491006"),
    (3, 4, "Q",
     "1e9edb3b45d7ea472aa3f73920fd1b822167d3a39ae56f66837b0fe5afc670dd"),
], ids=lambda v: str(v)[:8])
def test_instance_json_pinned(page, b, field, digest):
    # the batch digests hash reports, not instances: this pins the bytes of
    # the generated instances themselves, seeds 0-3
    F = QQ if field == "Q" else GF(7)
    h = hashlib.sha256()
    for seed in range(4):
        inst = generate_instance(page, b, F, seed)
        h.update(schemas.dump(schemas.instance_to_json(inst)).encode())
    assert h.hexdigest() == digest
