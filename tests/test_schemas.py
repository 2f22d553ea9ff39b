import enum
import hashlib
import json
import sys
from fractions import Fraction

import pytest

from qrtorsion.fields import QQ, GF
from qrtorsion import cli, schemas
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


@pytest.mark.parametrize("second", [[1, 2, 3], [2, 1, 3], [3, 2, 1]])
def test_repeated_form_triple_rejected(second):
    # a repeat once overwrote the first entry: [1,2,3] then [2,1,3], both
    # with v = 1, read as I(1,2,3) = -1
    doc = {"b": 3, "entries": [{"ijk": [1, 2, 3], "v": 1},
                               {"ijk": second, "v": 1}]}
    with pytest.raises(schemas.SchemaError) as err:
        schemas.form_from_json(doc)
    assert str(err.value) == f"form entry {second} repeats the triple [1, 2, 3]"


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
    """The scalars the reader parses over field, in order."""
    calls = []
    real = schemas._parse

    def counting(F, x):
        if F == field:
            calls.append(x)
        return real(F, x)

    monkeypatch.setattr(schemas, "_parse", counting)
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


def test_q_scalars_read_as_fraction_reads_them():
    # int() reads the plain forms, Fraction every other string: the reader
    # accepts exactly what Fraction accepts on this interpreter ("1_2" only
    # from Python 3.11), with its value
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st
    cap = sys.get_int_max_str_digits()

    @settings(max_examples=1500, deadline=None)
    @given(st.text(st.sampled_from("0123456789+-/.eE_ \u0663"), max_size=9))
    @example("1_2")
    @example("+0007/0042")
    @example("-3/-4")
    @example(" 5 ")
    @example("\u0663/4")
    @example("1/00")
    def check(text):
        M, err = None, ""
        try:
            M = schemas.matrix_from_json(QQ, [[text, text]], 1, 2, "t")
        except schemas.SchemaError as e:
            err = str(e)
        _, e, exp = text.lower().rpartition("e")
        try:
            big = e and abs(int(exp)) >= cap
        except ValueError:
            big = False
        if big:
            # Fraction would build 10^exp; test_huge_exponents_are_refused
            assert M is None and "exponent" in err
            return
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            assert M is None
            return
        assert M is not None and M.rows == [[want, want]]

    check()


@pytest.mark.parametrize("text", ["1e4300", "1e30000000", "-1E30000000",
                                  "1e-30000000", "2.5e+4300", "1e43_00"])
def test_huge_exponents_are_refused(text):
    with pytest.raises(schemas.SchemaError) as err:
        schemas.matrix_from_json(QQ, [["1", text]], 1, 2, "t")
    assert str(err.value) == (f"bad scalar in t: exponent in {text!r} exceeds "
                              f"the {sys.get_int_max_str_digits()}-digit "
                              "limit on integer strings")


def test_exponents_and_decimals_still_read():
    M = schemas.matrix_from_json(QQ, [["1e3", "1.5", "2.5e-3", "1e4299"]],
                                 1, 4, "t")
    assert M.rows == [[1000, Fraction(3, 2), Fraction(1, 400), 10 ** 4299]]


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


def _pins(*rows):
    """Parametrize pinned rows with ids from (page, b, field) alone, so that
    re-pinning a digest keeps its test's name."""
    return [pytest.param(*row, id=f"{row[0]}-{row[1]}-{row[2]}")
            for row in rows]


@pytest.mark.parametrize("page, b, field, digest", _pins(
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
     "1e9edb3b45d7ea472aa3f73920fd1b822167d3a39ae56f66837b0fe5afc670dd")))
def test_instance_json_pinned(page, b, field, digest):
    # the batch digests hash reports, not instances: this pins the bytes of
    # the generated instances themselves, seeds 0-3
    F = QQ if field == "Q" else GF(7)
    h = hashlib.sha256()
    for seed in range(4):
        inst = generate_instance(page, b, F, seed)
        h.update(schemas.dump(schemas.instance_to_json(inst)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("page, b, field, torsion, surplus, digest", _pins(
    (2, 3, "F7", (3,), (1, 1, 1, 1),
     "ae82d7371a3d919d87364059e36e248214654700191c426080c9b904f1becc17"),
    (3, 4, "Q", (5, 25), (2, 3, 3, 2),
     "a99df2f51fe9fc73c4049ce4a7c52cbaf777ac76fab53190918620030f7da6b1"),
    (2, 5, "Q", (3, 9), (2, 3, 3, 2),
     "ee33c0b6cf837c788d69e03329cb1593ae577d783bb7273c7c2ac1640287be73"),
    (3, 2, "F7", (5,), (1, 2, 2, 1),
     "c6b18960db1aeed447af4d56c1c0f448015edf02bfa6ffbcf88c8fd724e79e83")))
def test_instance_json_pinned_on_the_smith_form_path(page, b, field, torsion,
                                                     surplus, digest):
    # integral torsion and Morse surplus route generation through Smith
    # normal form with nontrivial invariant factors and birth pairs; this
    # pins each instance and its report, seeds 0-3
    F = QQ if field == "Q" else GF(7)
    h = hashlib.sha256()
    for seed in range(4):
        inst = generate_instance(page, b, F, seed, torsion=torsion,
                                 surplus=surplus)
        h.update(schemas.dump(schemas.instance_to_json(inst)).encode())
        rep = verify_main_theorem(inst)
        assert rep.all_pass
        h.update(schemas.dump(schemas.report_to_json(rep, F)).encode())
    assert h.hexdigest() == digest


def _json_dumps(value):
    """What json writes for the value, or the error it raises."""
    try:
        return json.dumps(value, indent=2, sort_keys=True) + "\n"
    except Exception as e:
        return type(e), str(e)


def _dumped(value):
    try:
        return schemas.dump(value)
    except Exception as e:
        return type(e), str(e)


class _Int(int):
    def __repr__(self):
        return "not JSON"


class _Float(float):
    def __repr__(self):
        return "not JSON"


class _Color(enum.IntEnum):
    RED = 1


def test_dump_is_json_dumps_on_nested_values():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    text = st.one_of(st.text(), st.sampled_from(
        ['"', "\\", "\x00\x1f\x7f", "\u00e9", "\U0001f600", "\ud800", ""]))
    leaves = st.one_of(
        text, text.map(type("_Str", (str,), {})),
        st.integers(), st.integers(min_value=2 ** 64, max_value=10 ** 60),
        st.integers().map(_Int), st.just(_Color.RED),
        st.booleans(), st.none(),
        st.floats(), st.floats().map(_Float),
        st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]))
    keys = st.one_of(text, st.integers(), st.floats(), st.booleans(),
                     st.none())

    def containers(inner):
        return st.one_of(
            st.lists(inner), st.lists(inner).map(tuple),
            st.lists(inner).map(type("_List", (list,), {})),
            st.dictionaries(text, inner),
            st.dictionaries(text, inner).map(type("_Dict", (dict,), {})),
            # keys of mixed types fail json's sort, and must fail alike
            st.dictionaries(keys, inner, max_size=3))

    @settings(max_examples=150, deadline=None)
    @given(st.recursive(leaves, containers, max_leaves=20))
    def check(value):
        assert _dumped(value) == _json_dumps(value)

    check()


@pytest.mark.parametrize("value", [
    [], {}, (), [[], {}, ()], {"a": {}, "b": [[]]},
    "", '"\\\x00\x1f\x7f\u00e9\U0001f600\ud800', 0, -7, 10 ** 60, None,
    [True, False, None], float("nan"), float("inf"), -float("inf"), -0.0,
    1e300, 0.1, _Int(3), _Float(2.5), _Color.RED,
    {1.5: 1, float("inf"): 2, -float("inf"): 3, float("nan"): 4},
    {True: 1, False: 2, 3: 4}, {None: [1, (2, "x")]},
])
def test_dump_writes_leaves_and_keys_as_json(value):
    assert schemas.dump(value) == _json_dumps(value)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), [1, Fraction(1, 2)], {"a": [Fraction(1, 2)]},
    {"a": 1, "b": {1, 2}}, {(1, 2): 3}, {1: "a", "b": 2}, [b"bytes"],
], ids=["leaf", "in-list", "in-dict", "set", "tuple-key", "mixed-keys",
        "bytes"])
def test_dump_raises_json_type_error(value):
    with pytest.raises(TypeError):
        schemas.dump(value)
    assert _dumped(value) == _json_dumps(value)


def test_dump_leaves_deep_and_circular_values_to_json():
    deep = []
    for _ in range(900):
        deep = [deep]
    assert schemas.dump(deep) == _json_dumps(deep)
    circular = {"a": []}
    circular["a"].append(circular)
    assert _dumped(circular) == _json_dumps(circular) == \
        (ValueError, "Circular reference detected")


def test_dump_is_json_dumps_on_every_document_kind(tmp_path, monkeypatch,
                                                  capsys):
    docs = []
    dump = schemas.dump

    def recording(doc, path=None):
        docs.append(doc)
        return dump(doc, path)

    monkeypatch.setattr(schemas, "dump", recording)
    inst = generate_instance(3, 2, QQ, 4, torsion=(3,), surplus=(1, 1, 1, 1))
    inst.discs = DiscSystem(2, [([0, 0], 1)])
    inst.representation = Representation(QQ, [QQ.one(), QQ.one()])
    P = inst.pearl
    files = {"inst": schemas.instance_to_json(inst),
             "pearl": schemas.pearl_to_json(P),
             "periodic": schemas.periodic_to_json(fold_periodic(P)),
             "complex": {"v": schemas.VERSION, "kind": "complex",
                         "field": "Q", "ranks": P.ranks,
                         "boundaries": [schemas.matrix_to_json(P.dM(k))
                                        for k in range(1, 4)],
                         "bases": schemas.bases_to_json(inst.bases)},
             "form": schemas.form_to_json(TripleForm(3, {(1, 2, 3): 1})),
             "pot": {"b": 1, "discs": [{"d": [1], "m0": 1},
                                       {"d": [-1], "m0": 1}]}}
    for name, doc in files.items():
        schemas.dump(doc, tmp_path / f"{name}.json")
    for argv in (["generate", "--page", "2", "--b", "9", "--field", "F7",
                  "--seed", "3", "-o", str(tmp_path / "page2.json")],
                 ["verify", str(tmp_path / "inst.json"),
                  "--report", str(tmp_path / "report.json")],
                 ["spectral", str(tmp_path / "page2.json")],
                 ["torsion", "quantum", str(tmp_path / "pearl.json")],
                 ["torsion", "periodic", str(tmp_path / "periodic.json")],
                 ["torsion", "graded", str(tmp_path / "complex.json")],
                 ["classify", str(tmp_path / "form.json")],
                 ["potential", "grad", str(tmp_path / "pot.json"),
                  "--at", "2"],
                 ["batch", "--page", "2", "--count", "2", "--field", "F5"],
                 ["batch", "--page", "3", "--count", "2", "--field", "F5",
                  "--corrupt"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    kinds = {doc.get("kind") for doc in docs}
    assert kinds >= {"instance", "report", "pearl", "complex", "periodic",
                     "spectral", "batch"}
    for doc in docs:
        # the fast path writes every document: none falls back to json
        assert schemas._json(doc, "\n") + "\n" == dump(doc) == \
            _json_dumps(doc)
    for name in ("page2", "report", *files):
        text = (tmp_path / f"{name}.json").read_text()
        assert text == _json_dumps(json.loads(text))


def test_form_document_is_written_as_json_and_read_back():
    # the form-entry template of dump and form_from_json on the entries it
    # writes, against json and the form itself, at the top level and
    # nested one level deeper (as in an instance)
    pytest.importorskip("hypothesis")
    from itertools import combinations
    from hypothesis import given, settings, strategies as st
    coeffs = st.one_of(st.integers(-2 ** 90, 2 ** 90),
                       st.sampled_from([-1, 1, -10 ** 20, 10 ** 20]))

    @st.composite
    def forms(draw):
        b = draw(st.integers(0, 12))
        triples = list(combinations(range(1, b + 1), 3))
        chosen = draw(st.lists(st.sampled_from(triples), unique=True,
                               max_size=40)) if triples else []
        return TripleForm(b, {t: draw(coeffs) for t in chosen})

    @settings(max_examples=150, deadline=None)
    @given(forms())
    def check(I):
        doc = schemas.form_to_json(I)
        for value in (doc, {"form": doc, "b": [doc]}):
            assert schemas.dump(value) == _json_dumps(value)
        back = schemas.form_from_json(json.loads(schemas.dump(doc)))
        assert back.b == I.b and back.coeffs == I.coeffs
        assert list(schemas.form_from_json(doc).coeffs) == sorted(I.coeffs)

    check()


def test_matrix_to_json_is_the_field_format_of_each_entry():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from qrtorsion.linalg import Matrix

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([QQ, GF(7), GF(2 ** 61 - 1)]), st.integers(0, 4),
           st.integers(0, 4), st.data())
    def check(F, m, n, data):
        num = st.integers(-2 ** 70, 2 ** 70)
        den = st.one_of(st.just(1), st.integers(1, 2 ** 70))
        # over Q any denominators, so den != 1 and negative entries;
        # over F_p residues of large integers of either sign
        rows = [[Fraction(data.draw(num), d) if not F.char
                 else F.from_int(data.draw(num))
                 for d in data.draw(st.lists(den, min_size=n, max_size=n))]
                for _ in range(m)]
        M = Matrix(F, rows, m, n)
        assert schemas.matrix_to_json(M) == \
            [[F.format(x) for x in r] for r in M.rows]

    check()
    M = Matrix(QQ, [[Fraction(-1, 2), Fraction(0), Fraction(4, 6)],
                    [Fraction(3), Fraction(-5, 3), Fraction(-6, 2)]])
    assert M.den == 6
    assert schemas.matrix_to_json(M) == [["-1/2", "0", "2/3"],
                                         ["3", "-5/3", "-3"]]


# entries that form_to_json writes, then one that it does not
_ASCENDING_HEAD = [{"ijk": [1, 2, 3], "v": 2}, {"ijk": [1, 2, 4], "v": -1},
                   {"ijk": [2, 3, 4], "v": 5}]


@pytest.mark.parametrize("entry, message", [
    ({"ijk": [3, 2, 1], "v": 1},
     "form entry [3, 2, 1] repeats the triple [1, 2, 3]"),
    ({"ijk": [1, 2, 4], "v": 3},
     "form entry [1, 2, 4] repeats the triple [1, 2, 4]"),
    ({"ijk": [2, 2, 4], "v": 1}, "repeated index in (2,2,4) forces 0"),
    ({"ijk": [2, 4, 5], "v": True},
     "form entry v must be an integer, got True"),
    ({"ijk": [2, 4, 5], "v": 1.0}, "form entry v must be an integer, got 1.0"),
    ({"ijk": [2, 4, 5], "v": "1"}, "form entry v must be an integer, got '1'"),
    ({"ijk": [2, True, 5], "v": 1},
     "form entry ijk must be an integer, got True"),
    ({"ijk": [0, 4, 5], "v": 1}, "index 0 out of range 1..5"),
    ({"ijk": [3, 4, 6], "v": 1}, "index 6 out of range 1..5"),
    ({"ijk": [3, 4], "v": 1}, "form entries index three generators"),
    ({"ijk": [3, 4, 5]}, "missing key 'v' in form entry"),
    ([3, 4, 5], "form entry must be a JSON object"),
], ids=["descending-repeat", "repeat", "repeated-index", "bool", "float",
        "str", "bool-index", "index-0", "index-b+1", "two-indices", "no-v",
        "not-object"])
def test_form_reader_leaving_the_fast_path_keeps_each_refusal(
        tmp_path, capsys, entry, message):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"b": 5, "entries": _ASCENDING_HEAD + [entry]}))
    assert cli.main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == json.dumps({"error": message, "where": "classify"}) + "\n"


@pytest.mark.parametrize("entry", [
    {"ijk": [4, 3, 1], "v": 1}, {"ijk": [1, 3, 4], "v": 0},
    {"ijk": [2, 2, 4], "v": 0}, {"ijk": [2, 4, 5], "v": 3, "note": "x"},
], ids=["descending", "out-of-order", "repeated-index-zero", "extra-key"])
def test_form_reader_leaving_the_fast_path_reads_the_same_form(entry):
    entries = _ASCENDING_HEAD + [entry]
    I = schemas.form_from_json({"b": 5, "entries": entries})
    assert I.coeffs == TripleForm(5, [(e["ijk"], e["v"])
                                      for e in entries]).coeffs


class _CountedList(list):
    """A list that counts the passes made over it."""
    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("entries, keyed", [
    (_ASCENDING_HEAD + [{"ijk": [2, 4, 5], "v": 1}], 0),
    (_ASCENDING_HEAD + [{"ijk": [4, 3, 1], "v": 1}], 1),
    ([{"ijk": [2, 1, 3], "v": -2}, {"ijk": [1, 3, 4], "v": 0}]
     + _ASCENDING_HEAD[1:], 4),
], ids=["written", "last-entry-breaks", "not-written"])
def test_form_reader_makes_one_pass(monkeypatch, entries, keyed):
    # the entries as form_to_json writes them are stored as they stand;
    # from the first that is not, each is set key by key in the same pass,
    # and the form, with its coefficients' order, is the one set entry by
    # entry from the start
    expected = TripleForm(5, [(e["ijk"], e["v"]) for e in entries]).coeffs
    calls = []
    set_ = TripleForm.set
    monkeypatch.setattr(TripleForm, "set",
                        lambda I, *a: calls.append(a) or set_(I, *a))
    doc = {"b": 5, "entries": _CountedList(entries)}
    I = schemas.form_from_json(doc)
    assert doc["entries"].passes == 1
    assert len(calls) == keyed
    assert list(I.coeffs.items()) == list(expected.items())


@pytest.mark.parametrize("entries, message", [
    ([{"ijk": [1, 2, 3], "v": 0}, {"ijk": [1, 2, 4], "v": 1},
      {"ijk": [3, 2, 1], "v": 1}],
     "form entry [3, 2, 1] repeats the triple [1, 2, 3]"),
    ([{"ijk": [2, 1, 3], "v": 1}, {"ijk": [1, 2, 4], "v": 0},
      {"ijk": [4, 2, 1], "v": 1}],
     "form entry [4, 2, 1] repeats the triple [1, 2, 4]"),
    ([{"ijk": [2, 1, 3], "v": 1}, {"ijk": [1, 2, 9], "v": 1},
      {"ijk": [1, 2], "v": 1}], "form entries index three generators"),
], ids=["zero-before-switch", "zero-after-switch", "schema-before-range"])
def test_form_reader_refuses_across_the_switch(entries, message):
    # a written entry of value 0 still counts for the repeat check, and a
    # key at fault anywhere is named before any index out of range
    with pytest.raises(schemas.SchemaError) as err:
        schemas.form_from_json({"b": 5, "entries": entries})
    assert str(err.value) == message
