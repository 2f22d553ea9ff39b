import json
import random

import pytest

from qrtorsion import schemas
from qrtorsion.cli import main
from qrtorsion.complexes import ComplexError, fold_periodic, validate_pearl
from qrtorsion.fields import QQ, digit_limit
from qrtorsion.linalg import Matrix
from qrtorsion.models import (MAX_RANK, _lift_pearl, homology_bases,
                              realize_morse)
from qrtorsion.spectral import PAGE3
from qrtorsion.superpotential import DiscSystem, Representation
from qrtorsion.threefold import ThreefoldHomology, TripleForm
from qrtorsion.verifier import Instance


# verbs that read one document through schemas.load
READING_VERBS = [["verify"], ["spectral"], ["torsion", "quantum"], ["classify"],
                 ["potential", "eval", "--at", "1"]]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_verify_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    code, _, _ = run(capsys, "generate", "--page", "3", "--b", "2",
                     "--seed", "4", "-o", path)
    assert code == 0
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_generate_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, "generate", "--page", "2", "--b", "3", "--field", "Fp:5",
        "--seed", "9", "-o", a)
    run(capsys, "generate", "--page", "2", "--b", "3", "--field", "Fp:5",
        "--seed", "9", "-o", b)
    assert open(a).read() == open(b).read()


def test_torsion_quantum(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "generate", "--page", "2", "--b", "3", "--seed", "0",
        "-o", path)
    code, out, _ = run(capsys, "torsion", "quantum", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["normalized"] is True and "torsion" in doc


def test_torsion_graded_without_bases(tmp_path, capsys):
    # an acyclic complex needs no homology bases: each degree gets an empty one
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"v": 1, "kind": "complex", "field": "Q",
                                "ranks": [1, 1], "boundaries": [[["2"]]]}))
    code, out, _ = run(capsys, "torsion", "graded", str(path))
    assert code == 0
    assert json.loads(out)["torsion"] == "2"


def test_torsion_periodic_nonacyclic_exits_2(tmp_path, capsys):
    path = tmp_path / "na.json"
    path.write_text(json.dumps({
        "v": 1, "kind": "periodic", "field": "Q", "n_odd": 1, "n_even": 1,
        "d_oe": [["0"]], "d_eo": [["0"]]}))
    code, _, err = run(capsys, "torsion", "periodic", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "torsion undefined, complex not narrow"


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "line" in json.loads(err)["error"]


@pytest.mark.parametrize("verb", READING_VERBS, ids=lambda v: v[0])
def test_non_object_json_exits_2(tmp_path, capsys, verb):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, *verb, str(path))
    assert code == 2 and out == ""
    assert "expected a JSON object" in json.loads(err)["error"]


@pytest.mark.parametrize("verb", READING_VERBS, ids=lambda v: v[0])
def test_deeply_nested_json_exits_2(tmp_path, capsys, verb):
    # json's decoder raises RecursionError on this
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, *verb, str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "JSON nested too deeply"


def test_unwritable_output_exits_2(tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    run(capsys, "generate", "--page", "3", "--b", "2", "--field", "F5",
        "--seed", "1", "-o", inst)
    missing = tmp_path / "missing"
    for argv in (["generate", "--page", "3", "--b", "2", "--field", "F5",
                  "-o", str(missing / "x.json")],
                 ["verify", inst, "--report", str(missing / "r.json")],
                 ["batch", "--page", "2", "--count", "1", "--field", "F5",
                  "-o", str(missing / "b.json")]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        error = json.loads(err)["error"]
        assert error.startswith(f"cannot write {missing}"), error
    assert not missing.exists()


def test_inadmissible_characteristic_exits_2(capsys):
    code, _, err = run(capsys, "generate", "--page", "2", "--b", "3",
                       "--field", "Fp:5", "--torsion", "5", "--seed", "1")
    assert code == 2
    assert "invariant factor 5" in json.loads(err)["error"]


@pytest.mark.parametrize("b", [1, 5])
def test_betti_number_disagreeing_with_the_bases_exits_2(tmp_path, capsys, b):
    # b = 1 once passed every flag, the dichotomy checked vacuously on the
    # declared form; b = 5 once crashed with an IndexError (exit 3)
    path = str(tmp_path / "inst.json")
    run(capsys, "generate", "--page", "2", "--b", "3", "--field", "F7",
        "--seed", "1", "-o", path)
    doc = json.load(open(path))
    doc["homology"]["b"] = b
    doc["form"] = {"b": b, "entries": []}
    open(path, "w").write(json.dumps(doc))
    code, out, err = run(capsys, "verify", path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == (
        f"bases have [1, 3, 3, 1] columns, not [1, b, b, 1] for "
        f"homology.b = {b}")


M61 = 2 ** 61 - 1   # prime


def test_large_prime_field_generates_and_verifies(tmp_path, capsys):
    path = str(tmp_path / "big.json")
    for page, b in [(2, 3), (3, 4)]:
        code, _, _ = run(capsys, "generate", "--page", str(page), "--b",
                         str(b), "--field", f"F{M61}", "--seed", "1",
                         "-o", path)
        assert code == 0
        code, out, _ = run(capsys, "verify", path)
        assert code == 0 and json.loads(out)["all_pass"] is True


def test_small_instance_over_a_large_prime_field_verifies(tmp_path, capsys):
    path = tmp_path / "b1.json"
    field = f"Fp:{M61}"
    path.write_text(json.dumps({
        "v": 1, "kind": "instance", "field": field,
        "homology": {"b": 1, "torsion": []}, "form": {"b": 1, "entries": []},
        "pearl": {"v": 1, "kind": "pearl", "field": field, "ranks": [1, 1, 1, 1],
                  "dM": [[["0"]], [["0"]], [["0"]]],
                  "d1": [[["3"]], [["0"]], [["3"]]], "d2": [[str(M61 - 4)]]},
        "bases": [[["1"]], [["1"]], [["1"]], [["1"]]]}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and json.loads(out)["all_pass"] is True


@pytest.mark.parametrize("p", [2 ** 89 - 1, 318665857834031151167461],
                         ids=["M89", "psi12"])
def test_field_beyond_the_exact_primality_test_exits_2(capsys, p):
    # the prime 2^89 - 1 and the composite psi_12 both lie at or above
    # psi_12, where Miller-Rabin on the bases 2..37 stops being exact
    code, out, err = run(capsys, "generate", "--page", "3", "--b", "4",
                         "--field", f"F{p}", "--seed", "1")
    assert code == 2 and out == ""
    assert "primality is decided only below" in json.loads(err)["error"]


def _edited_instance(tmp_path, capsys, edit, field="Q"):
    path = str(tmp_path / "inst.json")
    run(capsys, "generate", "--page", "3", "--b", "2", "--field", field,
        "--seed", "4", "-o", path)
    doc = json.load(open(path))
    edit(doc)
    open(path, "w").write(json.dumps(doc))
    return path


@pytest.mark.parametrize("value", [None, 7, "x", {"0": []}, [[], []]],
                         ids=repr)
def test_verify_non_list_disc_maps_exit_2(tmp_path, capsys, value):
    path = _edited_instance(tmp_path, capsys,
                            lambda doc: doc["pearl"].update(d1=value))
    code, out, err = run(capsys, "verify", path)
    assert code == 2 and out == ""
    assert "d1" in json.loads(err)["error"]


def test_unexpected_error_exits_3(tmp_path, capsys, monkeypatch):
    from qrtorsion import cli

    def broken(inst):
        raise RuntimeError("boom")

    path = _edited_instance(tmp_path, capsys, lambda doc: None)
    monkeypatch.setattr(cli, "verify_main_theorem", broken)
    code, out, err = run(capsys, "verify", path)
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "internal error: RuntimeError: boom",
                               "where": "verify"}


@pytest.mark.parametrize("page, b, field", [(3, 2, "Q"), (2, 3, "F7")])
def test_internal_error_in_inverse_exits_3(tmp_path, capsys, monkeypatch,
                                           page, b, field):
    # only a LinAlgError of inverse() means bad input: any other error in
    # it (here the Contraction's) is internal, not a failed verification
    from qrtorsion.linalg import Matrix

    def broken(self):
        raise TypeError("injected")

    path = str(tmp_path / "inst.json")
    code, _, _ = run(capsys, "generate", "--page", str(page), "--b", str(b),
                     "--field", field, "--seed", "1", "-o", path)
    assert code == 0
    monkeypatch.setattr(Matrix, "inverse", broken)
    code, out, err = run(capsys, "verify", path)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "internal error: TypeError: injected",
                               "where": "verify"}


def test_verify_inconsistent_instance_exits_2(tmp_path, capsys):
    path = _edited_instance(tmp_path, capsys,
                            lambda doc: doc["form"].update(b=3))
    code, out, err = run(capsys, "verify", path)
    assert code == 2 and out == ""
    assert "form.b = 3 differs from homology.b = 2" in json.loads(err)["error"]

    path = _edited_instance(tmp_path, capsys,
                            lambda doc: doc.update(discs={"b": 3, "discs": []}))
    code, out, err = run(capsys, "verify", path)
    assert code == 2 and out == ""
    assert "discs.b = 3 differs from homology.b = 2" in json.loads(err)["error"]

    path = _edited_instance(tmp_path, capsys,
                            lambda doc: doc["homology"].update(torsion=[5]),
                            field="Fp:5")
    for verb in ("verify", "spectral"):
        code, out, err = run(capsys, verb, path)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == (
            "inadmissible field Fp:5: characteristic 5 divides invariant "
            "factor 5")


@pytest.mark.parametrize("pearl_field, instance_field, error", [
    ("Fp:7", "Q", "pearl.field Fp:7 differs from field Q"),
    ("Q", "F7", "pearl.field Q differs from field Fp:7"),
    ("F5", "Fp:7", "pearl.field Fp:5 differs from field Fp:7"),
    ("F7", "Fp:7", None),
], ids=["F7-in-Q", "Q-in-F7", "F5-in-F7", "F7-respelled"])
def test_instance_with_a_pearl_over_another_field(tmp_path, capsys,
                                                  pearl_field, instance_field,
                                                  error):
    # one field per instance: a pearl over another field is refused before
    # any matrix is read, naming both fields; F7 and Fp:7 are one field
    path = _edited_instance(
        tmp_path, capsys,
        lambda doc: doc["pearl"].update(field=pearl_field),
        field=instance_field)
    for verb in (["verify"], ["spectral"], ["torsion", "quantum"]):
        code, out, err = run(capsys, *verb, path)
        if error is None:
            assert code == 0, verb
        else:
            assert code == 2 and out == "", verb
            assert json.loads(err)["error"] == error


WRONG_TYPES = [None, 7, -1, "x", [], {}, [[1]], 2.9, "2", True, 1.0]
INSTANCE_FIELDS = ["bases", "homology", "form", "discs", "representation",
                   "pearl", "homology.b", "homology.torsion", "form.b",
                   "form.entries", "discs.b", "discs.discs", "bases.1"]


@pytest.fixture(scope="module")
def page3_f5_instance(tmp_path_factory):
    """A page-3 F5 instance document carrying discs and a representation."""
    path = str(tmp_path_factory.mktemp("inst") / "inst.json")
    assert main(["generate", "--page", "3", "--b", "2", "--field", "Fp:5",
                 "--seed", "4", "-o", path]) == 0
    doc = json.load(open(path))
    doc["discs"] = {"b": 2, "discs": [{"d": [0, 0], "m0": 1}]}
    doc["representation"] = ["1", "1"]
    return doc


@pytest.mark.parametrize("field", INSTANCE_FIELDS)
def test_wrong_json_types_exit_0_or_2(tmp_path, capsys, page3_f5_instance,
                                      field):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(page3_f5_instance))
    for verb in ("verify", "spectral"):
        assert run(capsys, verb, str(path))[0] == 0
    # wrong types are bad input (exit 2); a few replacements, such as []
    # for form.entries, still describe a valid instance (exit 0)
    *parents, key = field.split(".")
    bad = []
    for value in WRONG_TYPES:
        doc = json.loads(json.dumps(page3_f5_instance))
        target = doc
        for name in parents:
            target = target[name]
        target[int(key) if isinstance(target, list) else key] = value
        path.write_text(json.dumps(doc))
        for verb in ("verify", "spectral"):
            code, out, err = run(capsys, verb, str(path))
            if code not in (0, 2) or code == 2 and out:
                bad.append((value, verb, code, err))
            elif code == 2:
                assert "error" in json.loads(err)
    assert not bad


@pytest.mark.parametrize("field", ["homology.b", "form.b", "pearl.ranks.1",
                                   "discs.b"])
@pytest.mark.parametrize("value", [2.9, "2", True, 1.0],
                         ids=["float", "string", "bool", "integral-float"])
def test_non_integer_json_numbers_exit_2(tmp_path, capsys, page3_f5_instance,
                                         field, value):
    # int() accepts every value here, but none is a JSON integer
    doc = json.loads(json.dumps(page3_f5_instance))
    *parents, key = field.split(".")
    target = doc
    for name in parents:
        target = target[name]
    target[int(key) if isinstance(target, list) else key] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    for verb in ("verify", "spectral"):
        code, out, err = run(capsys, verb, str(path))
        assert code == 2 and out == ""
        assert "must be an integer" in json.loads(err)["error"]


@pytest.mark.parametrize("field", ["Fp:5", "Q"])
@pytest.mark.parametrize("value", [2.5, 0.1, 1.0, True, False])
def test_float_and_bool_matrix_scalars_exit_2(tmp_path, capsys, field, value):
    path = tmp_path / "inst.json"
    assert run(capsys, "generate", "--page", "3", "--b", "2", "--field", field,
               "--seed", "4", "-o", str(path))[0] == 0
    doc = json.loads(path.read_text())
    doc["pearl"]["d2"][0][0] = value
    path.write_text(json.dumps(doc))
    for verb in ("verify", "spectral"):
        code, out, err = run(capsys, verb, str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == (
            f"bad scalar in d2: {value!r} is not a string or an integer")


def test_huge_exponent_exits_2_without_building_the_power(tmp_path, capsys):
    # Fraction("1e30000000") would first build 10^30000000, for long
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "v": 1, "kind": "instance", "field": "Q",
        "homology": {"b": 0, "torsion": []}, "form": {"b": 0, "entries": []},
        "pearl": {"ranks": [1, 1, 1, 1],
                  "dM": [[["1e30000000"]], [["0"]], [["0"]]],
                  "d1": [[["0"]], [["0"]], [["0"]]], "d2": [["0"]]},
        "bases": [[], [], [], []]}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"].startswith(
        "bad scalar in dM_1: exponent in '1e30000000' exceeds the ")


@pytest.mark.parametrize("d, at, flavor, text", [
    (10 ** 10, "2", "eval", "z^10000000000 at 2"),
    (-10 ** 10, "1/2", "grad", "z^-10000000000 at 1/2"),
    (20000, "2", "eval", "z^20000 at 2")])
def test_huge_disc_power_exits_2_without_building_it(tmp_path, capsys, d,
                                                     at, flavor, text):
    # Fraction(2) ** 10**10 would run for long; 2**20000 would be built and
    # only refused when it is written out
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"b": 1, "discs": [{"d": [d], "m0": 1}]}))
    code, out, err = run(capsys, "potential", flavor, str(path), "--at", at)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == (f"{text} exceeds the {digit_limit()}"
                                        "-digit limit on integers")


def test_huge_disc_power_in_verify_exits_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--page", "3", "--b", "2", "--field", "Q",
        "--seed", "1", "-o", str(path))
    doc = json.loads(path.read_text())
    doc["discs"] = {"b": 2, "discs": [{"d": [10 ** 10, 0], "m0": 1}]}
    doc["representation"] = ["2", "1"]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"].startswith("z^10000000000 at 2 exceeds")


def test_cancelling_huge_disc_powers_verify_as_potential_evaluates(tmp_path,
                                                                   capsys):
    # the two discs cancel out of W, so neither command evaluates z^(10^10)
    discs = {"b": 2, "discs": [{"d": [10 ** 10, 0], "m0": 1},
                               {"d": [10 ** 10, 0], "m0": -1}]}
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps(discs))
    code, out, _ = run(capsys, "potential", "eval", str(pot), "--at", "2,1")
    assert code == 0 and json.loads(out)["value"] == "0"
    code, out, _ = run(capsys, "potential", "grad", str(pot), "--at", "2,1")
    assert code == 0 and json.loads(out)["gradient"] == ["0", "0"]
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--page", "3", "--b", "2", "--field", "Q",
        "--seed", "1", "-o", str(path))
    doc = json.loads(path.read_text())
    doc["discs"] = discs
    doc["representation"] = ["2", "1"]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    report = json.loads(out)
    assert code == 0 and report["implied"]["w_constant"] is True
    assert report["flags"]["disc_differential_match"] is True


@pytest.mark.parametrize("d, at, field, value", [
    (14000, "2", "Q", str(2 ** 14000)),         # 4,215 digits
    (10 ** 10, "-1", "Q", "1"),
    (-10 ** 10, "1", "Q", "1"),
    (10 ** 10, "3", "Fp:7", str(pow(3, 10 ** 10, 7)))])
def test_disc_power_within_the_digit_limit_evaluates(tmp_path, capsys, d,
                                                     at, field, value):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"b": 1, "discs": [{"d": [d], "m0": 1}]}))
    code, out, _ = run(capsys, "potential", "eval", str(path), "--at", at,
                       "--field", field)
    assert code == 0 and json.loads(out)["value"] == value


@pytest.mark.parametrize("field", ["Fp:5", "Q"])
def test_json_integer_scalars_read_as_strings(tmp_path, capsys, field):
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--page", "3", "--b", "2", "--field", field,
        "--seed", "4", "--surplus", "1,1,1,1", "-o", str(path))
    code, report, _ = run(capsys, "verify", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    pearl = doc["pearl"]
    ints = 0
    for mats in (pearl["dM"], pearl["d1"], [pearl["d2"]]):
        for M in mats:
            for row in M:
                for j, x in enumerate(row):
                    if "/" not in x:
                        row[j] = int(x)
                        ints += 1
    assert ints
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(path))[:2] == (0, report)


def test_verify_failure_exits_1(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "generate", "--page", "3", "--b", "2", "--seed", "4",
        "--surplus", "1,1,1,1", "-o", path)
    doc = json.load(open(path))
    # corrupt one disc-map entry by hand
    doc["pearl"]["d2"][0][0] = "17"
    open(path, "w").write(json.dumps(doc))
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def _clean_page2_f5(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--page", "2", "--b", "3", "--field", "F5",
        "--seed", "1", "--surplus", "1,1,1,1", "-o", str(path))
    return path, json.loads(path.read_text())


def test_d1_defect_is_named_and_rejected(tmp_path, capsys):
    path, doc = _clean_page2_f5(tmp_path, capsys)
    entry = doc["pearl"]["d1"][0][0]
    entry[0] = str((int(entry[0]) + 1) % 5)
    path.write_text(json.dumps(doc))
    pearl = schemas.instance_from_json(doc).pearl
    assert "d_M d1 + d1 d_M != 0 in degree 0" in validate_pearl(pearl)
    with pytest.raises(ComplexError, match="^invalid pearl complex: "):
        fold_periodic(pearl)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1 and json.loads(out)["flags"]["pearl_valid"] is False
    code, out, err = run(capsys, "torsion", "quantum", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("invalid pearl complex: ")


def test_page2_formula_failure_exits_1(tmp_path, capsys):
    # the zero form has no slice, so the formula path fails on a valid pearl
    path, doc = _clean_page2_f5(tmp_path, capsys)
    doc["form"]["entries"] = []
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    rep = json.loads(out)
    assert rep["flags"]["pearl_valid"] and rep["flags"]["narrow"]
    for flag in ("dichotomy_consistent", "e1_torsion_identity",
                 "two_path_torsion"):
        assert rep["flags"][flag] is False
    assert rep["notes"] == ["slice at the pivot index is degenerate"]


def _verified_edit(tmp_path, capsys, generate, edit):
    """The report of verify on a generated document after edit, and the
    flags that fail in it; verify must exit 1."""
    path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "generate", *generate, "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    rep = json.loads(out)
    return rep, [flag for flag, ok in rep["flags"].items() if not ok]


@pytest.mark.parametrize("page, b, field, direct, formula", [
    (2, 3, "Q", "1/3", "1"), (3, 2, "Q", None, None),
    (3, 4, "F7", None, None)])
def test_wrong_torsion_claim_fails_only_the_two_path_torsion(
        tmp_path, capsys, page, b, field, direct, formula):
    # the fold never reads the claimed homology torsion, and the formula
    # path reads it on both of its sides, so only the comparison of the two
    # paths can see a claim of () for a pearl whose H_1 has torsion (3)
    rep, failed = _verified_edit(
        tmp_path, capsys, ["--page", str(page), "--b", str(b), "--field",
                           field, "--torsion", "3", "--seed", "1"],
        lambda doc: doc["homology"].update(torsion=[]))
    assert failed == ["two_path_torsion"]
    assert rep["torsion_direct"] != rep["torsion_formula"]
    if direct is not None:
        assert (rep["torsion_direct"], rep["torsion_formula"]) == \
            (direct, formula)


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_nonzero_form_on_page3_fails_only_dichotomy_consistent(
        tmp_path, capsys, field):
    # an even b forces the form to vanish; no other flag reads the form
    rep, failed = _verified_edit(
        tmp_path, capsys, ["--page", "3", "--b", "4", "--field", field,
                           "--seed", "1"],
        lambda doc: doc["form"].update(entries=[{"ijk": [1, 2, 3], "v": 1}]))
    assert failed == ["dichotomy_consistent"]
    assert rep["collapse"] == "Page3"


def _verified_pairing_pearl(tmp_path, capsys, b, discs=None):
    """The report of verify on a page-3 pearl over Q lifted at rate 2 from
    the invertible A = 1 + (superdiagonal ones), so Q = r A^-1 is not
    antisymmetric, with the given discs at the representation (1, ..., 1),
    and the flags that fail in it; verify must exit 1."""
    homology = ThreefoldHomology(b)
    morse = realize_morse(homology, seed=1)
    H = homology_bases(morse, QQ)
    A = Matrix.from_int_rows(QQ, [[int(j in (i, i + 1)) for j in range(b)]
                                  for i in range(b)], b, b)
    _, S = _lift_pearl(morse.to_field(QQ), H,
                       [Matrix.zeros(QQ, b, 1), A, Matrix.zeros(QQ, 1, b)],
                       random.Random(1), PAGE3, QQ.from_int(2))
    inst = Instance.from_spectrum(homology, TripleForm(b), QQ, S)
    if discs is not None:
        inst.discs = DiscSystem(b, discs)
        inst.representation = Representation(QQ, [QQ.one()] * b)
    path = tmp_path / "inst.json"
    schemas.dump(schemas.instance_to_json(inst), str(path))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    rep = json.loads(out)
    assert rep["collapse"] == "Page3"
    assert rep["torsion_direct"] == rep["torsion_formula"]
    return rep, [flag for flag, ok in rep["flags"].items() if not ok]


@pytest.mark.parametrize("b, failed", [
    (2, ["q_antisymmetric"]), (3, ["b_parity", "q_antisymmetric"])],
    ids=["b2", "b3"])
def test_page3_pearl_on_a_pairing_that_is_not_antisymmetric_exits_1(
        tmp_path, capsys, b, failed):
    # at odd b the parity fails too
    assert _verified_pairing_pearl(tmp_path, capsys, b)[1] == failed


def test_page3_discs_with_a_nonzero_hessian_check_the_symmetrized_product(
        tmp_path, capsys):
    # on the b=2 pearl above, Q = 2 A^-1 = [[2, -2], [0, 2]].  These discs
    # make W critical at (1, 1), so the page-3 collapse is consistent, with
    # Hessian [[-4, 2], [2, -4]] = -(Q + Q^T) there: the symmetrized-product
    # identity holds on a nonzero Q + Q^T, and so fails on its own when its
    # sign is flipped, while q_antisymmetric fails
    discs = [([1, 0], -3), ([-1, 0], -3), ([0, 1], -3), ([0, -1], -3),
             ([1, 1], 1), ([-1, -1], 1)]
    rep, failed = _verified_pairing_pearl(tmp_path, capsys, 2, discs)
    assert failed == ["q_antisymmetric"]
    for flag in ("disc_differential_match", "representation_page_consistent",
                 "symmetrized_product_identity"):
        assert rep["flags"][flag] is True
    assert rep["implied"]["w_constant"] is False


def test_spectral_verb(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "generate", "--page", "3", "--b", "2", "--seed", "4",
        "-o", path)
    code, out, _ = run(capsys, "spectral", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["collapse"] == "Page3"
    assert doc["page2_ranks"] == [1, 0, 0, 1]
    assert doc["rate"] is not None


def test_classify_verb(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"b": 3,
                                "entries": [{"ijk": [1, 2, 3], "v": 1}]}))
    code, out, _ = run(capsys, "classify", str(path), "--field", "Fp:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "SlicedOddB" and doc["qualifier"] == "definitive"
    # a slice is a witness, so the answer is certain over Q too
    code, out, _ = run(capsys, "classify", str(path))
    assert json.loads(out)["qualifier"] == "definitive"


REPEATED_TRIPLE = [{"ijk": [1, 2, 3], "v": 1}, {"ijk": [2, 1, 3], "v": 1}]


def test_classify_repeated_triple_exits_2(tmp_path, capsys):
    # the repeat once overwrote the first entry, and classify answered from
    # I(1,2,3) = -1 with exit 0
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"b": 3, "entries": REPEATED_TRIPLE}))
    code, out, err = run(capsys, "classify", str(path), "--field", "Fp:3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == \
        "form entry [2, 1, 3] repeats the triple [1, 2, 3]"


def test_verify_repeated_triple_exits_2(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "generate", "--page", "2", "--b", "3", "--field", "F7",
        "--seed", "1", "-o", path)
    doc = json.load(open(path))
    doc["form"]["entries"] = REPEATED_TRIPLE
    open(path, "w").write(json.dumps(doc))
    code, out, err = run(capsys, "verify", path)
    assert code == 2 and out == ""
    assert "repeats the triple [1, 2, 3]" in json.loads(err)["error"]


def test_betti_number_beyond_the_bound_exits_2(tmp_path, capsys):
    # the slices of a b = 401 form once took classify 10 s over F7, growing
    # as b^3; b is refused before any slice is built
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"b": 257,
                                "entries": [{"ijk": [1, 2, 3], "v": 1}]}))
    for argv in (["classify", str(path), "--field", "F7"],
                 ["generate", "--page", "2", "--b", "257"],
                 ["batch", "--page", "2", "--b", "257", "--count", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "exceeds 256" in json.loads(err)["error"]


def test_surplus_beyond_the_bound_exits_2(capsys):
    # surplus (0, 100, 100, 0) took generate 4 s in its homology check, and
    # the time grows steeply with it; the surplus is refused before any
    # complex is built
    code, out, err = run(capsys, "generate", "--page", "3", "--b", "2",
                         "--field", "F7", "--surplus", "0,100000,100000,0")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "surplus 100000 exceeds 64" in json.loads(err)["error"]


def _instance_with(tmp_path, capsys, key, value):
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--page", "3", "--b", "2", "--field", "F5",
        "--seed", "1", "-o", str(path))
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    return str(path)


def _document(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_invariant_factors_beyond_the_bound_exit_2(tmp_path, capsys):
    # 120 factors took generate 2.4 s over F5 and 128 over Q ran for minutes;
    # the factors are refused before any complex is built, in a command line
    # and in a homology document alike
    path = _instance_with(tmp_path, capsys, "homology",
                          {"b": 2, "torsion": [3] * 17})
    for argv in (["generate", "--page", "3", "--b", "2", "--field", "F5",
                  "--torsion", ",".join(["3"] * 17)],
                 ["verify", path]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == "17 invariant factors exceed 16"


def _pearl_doc(r):
    # zero matrices of the declared shapes, so that only the ranks are refused
    def zeros(m, n):
        return [["0"] * n for _ in range(m)]
    return {"v": 1, "kind": "pearl", "field": "Q", "ranks": r,
            "dM": [zeros(r[k], r[k + 1]) for k in range(3)],
            "d1": [zeros(r[k + 1], r[k]) for k in range(3)],
            "d2": zeros(r[3], r[0])}


@pytest.mark.parametrize("verb, doc, message", [
    (["torsion", "graded"], {"v": 1, "kind": "complex", "field": "Q",
                             "ranks": [MAX_RANK + 1], "boundaries": []},
     f"complex ranks must be between 0 and {MAX_RANK}, got {MAX_RANK + 1}"),
    (["torsion", "graded"], {"v": 1, "kind": "complex", "field": "Q",
                             "ranks": [2, -1], "boundaries": [[]]},
     f"complex ranks must be between 0 and {MAX_RANK}, got -1"),
    (["torsion", "graded"], {"v": 1, "kind": "complex", "field": "Q",
                             "ranks": [], "boundaries": []},
     "complex ranks must not be empty"),
    (["torsion", "quantum"], _pearl_doc([MAX_RANK + 1, 0, 0, 0]),
     f"pearl ranks must be between 0 and {MAX_RANK}, got {MAX_RANK + 1}"),
    (["torsion", "quantum"], _pearl_doc([0, -1, 0, 0]),
     f"pearl ranks must be between 0 and {MAX_RANK}, got -1"),
    (["torsion", "periodic"], {"v": 1, "kind": "periodic", "field": "Q",
                               "n_odd": MAX_RANK + 1, "n_even": 0,
                               "d_oe": [], "d_eo": [[]] * (MAX_RANK + 1)},
     f"n_odd must be between 0 and {MAX_RANK}, got {MAX_RANK + 1}"),
    (["torsion", "periodic"], {"v": 1, "kind": "periodic", "field": "Q",
                               "n_odd": 0, "n_even": -1,
                               "d_oe": [], "d_eo": []},
     f"n_even must be between 0 and {MAX_RANK}, got -1"),
], ids=["complex-above", "complex-negative", "complex-empty", "pearl-above",
        "pearl-negative", "periodic-above", "periodic-negative"])
def test_declared_ranks_beyond_the_bound_exit_2(tmp_path, capsys, monkeypatch,
                                                verb, doc, message):
    # a complex of rank 10^9 once allocated zero matrices until it was
    # killed; a rank is refused before any matrix is built
    built = []
    monkeypatch.setattr(Matrix, "_make", classmethod(
        lambda cls, *args: built.append(args)))
    code, out, err = run(capsys, *verb, _document(tmp_path, doc))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == message and built == []


def test_ranks_at_the_bound_are_read():
    # MAX_RANK admits realize_morse's largest ranks and their fold; a pearl
    # with zero-column matrices reaches it with no large document
    P = schemas.pearl_from_json(_pearl_doc([MAX_RANK, 0, 0, 0]))
    F = schemas.periodic_from_json(schemas.periodic_to_json(fold_periodic(P)))
    assert P.ranks == [MAX_RANK, 0, 0, 0] and F.n_even == MAX_RANK


@pytest.mark.parametrize("argv, message", [
    (lambda t, c: ["verify", _document(t, {"b": 3, "entries": []})],
     "expected a document of kind instance, got kind=None"),
    (lambda t, c: ["torsion", "quantum", _document(t, {"kind": "form"})],
     "expected a document of kind instance or pearl, got kind='form'"),
    (lambda t, c: ["generate", "--page", "2", "--b", "1",
                   "--surplus", "1,2,3"],
     "--surplus takes four integers s0,s1,s2,s3"),
    (lambda t, c: ["verify", _instance_with(t, c, "field", "F4")],
     "bad field spec in instance: 4 is not prime"),
    (lambda t, c: ["verify", "/nonexistent/x.json"],
     "cannot read /nonexistent/x.json: [Errno 2] No such file or directory: "
     "'/nonexistent/x.json'"),
    (lambda t, c: ["torsion", "periodic", _document(t, {
        "v": 1, "kind": "periodic", "field": "Q", "n_odd": 1, "n_even": 1,
        "d_oe": [["1"]], "d_eo": [["1"]]})],
     "periodic differentials do not compose to zero"),
    (lambda t, c: ["verify", _instance_with(t, c, "homology",
                                            {"b": 2, "torsion": [1]})],
     "invariant factors must exceed 1"),
], ids=["form-document", "torsion-of-a-form", "short-surplus", "field-F4",
        "missing-file", "periodic-d-squared", "invariant-factor-1"])
def test_outside_input_is_refused_with_exit_2(tmp_path, capsys, argv,
                                              message):
    code, out, err = run(capsys, *argv(tmp_path, capsys))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == message


@pytest.mark.parametrize("b, entries, field, cls, qualifier", [
    (3, [], "Q", "ZeroForm", "definitive"),
    # even b: no slice exists over any field
    (4, [{"ijk": [1, 2, 3], "v": 1}], "Q", "Incompatible", "definitive"),
    (4, [{"ijk": [1, 2, 3], "v": 1}], "Fp:3", "Incompatible", "definitive"),
    (5, [{"ijk": [1, 2, 3], "v": 1}], "Q", "Incompatible", "randomized"),
])
def test_classify_qualifier(tmp_path, capsys, b, entries, field, cls,
                            qualifier):
    # only an Incompatible answer from a search that did not enumerate every
    # line of F_p^b is randomized
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"b": b, "entries": entries}))
    code, out, _ = run(capsys, "classify", str(path), "--field", field)
    doc = json.loads(out)
    assert code == 0 and (doc["class"], doc["qualifier"]) == (cls, qualifier)


def test_potential_verbs(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"b": 1, "discs": [{"d": [1], "m0": 1},
                                                  {"d": [-1], "m0": 1}]}))
    code, out, _ = run(capsys, "potential", "eval", str(path), "--at", "1")
    assert code == 0 and json.loads(out)["value"] == "2"
    code, out, _ = run(capsys, "potential", "grad", str(path), "--at", "2")
    assert json.loads(out)["gradient"] == ["3/2"]
    code, out, _ = run(capsys, "potential", "disc", str(path), "--at", "-1")
    assert json.loads(out)["discriminant"] == "-2"


@pytest.mark.parametrize("flavor", ["eval", "grad", "disc"])
@pytest.mark.parametrize("discs, at", [
    ([{"d": [1], "m0": 1}, {"d": [-1], "m0": 1}], "2,3"),
    ([{"d": [1, 0], "m0": 1}, {"d": [0, -1], "m0": 1}], "3"),
    ([], "3"),
], ids=["b1-at-2", "b2-at-1", "b0-at-1"])
def test_potential_point_size_mismatch_exits_2(tmp_path, capsys, flavor,
                                               discs, at):
    path = tmp_path / "w.json"
    b = len(discs[0]["d"]) if discs else 0
    path.write_text(json.dumps({"b": b, "discs": discs}))
    code, out, err = run(capsys, "potential", flavor, str(path), "--at", at)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "representation size mismatch"


@pytest.mark.parametrize("flavor", ["eval", "grad", "disc"])
@pytest.mark.parametrize("at", ["1/0", "x", "", "0"])
def test_potential_malformed_point_exits_2(tmp_path, capsys, flavor, at):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"b": 1, "discs": [{"d": [1], "m0": 1},
                                                  {"d": [-1], "m0": 1}]}))
    code, out, err = run(capsys, "potential", flavor, str(path), "--at", at)
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("flavor", ["eval", "grad", "disc"])
@pytest.mark.parametrize("at", ["-1,1", "-1,-1", "-2/2,1"])
def test_potential_point_starting_with_minus(tmp_path, capsys, flavor, at):
    # argparse alone takes "-1,1" for an option, as it is not a plain
    # negative number; the point reads as with --at=.  W = z1 + 1/z1 +
    # z2 + 1/z2 is critical at each point, so disc evaluates too
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"b": 2, "discs": [
        {"d": d, "m0": 1} for d in ([1, 0], [-1, 0], [0, 1], [0, -1])]}))
    joined = run(capsys, "potential", flavor, str(path), f"--at={at}")
    assert joined[0] == 0 and joined[2] == ""
    assert run(capsys, "potential", flavor, str(path), "--at", at) == joined


@pytest.mark.parametrize("argv, where, message", [
    (["generate", "--page", "2"], "generate",
     "the following arguments are required: --b"),
    (["generate", "--page", "4", "--b", "3"], "generate",
     "argument --page: invalid choice: 4 (choose from 2, 3)"),
    (["generate", "--page", "2", "--b", "x"], "generate",
     "argument --b: invalid int value: 'x'"),
    (["generate", "--page", "2", "--b", "3", "--bogus", "1"], "qrtorsion",
     "unrecognized arguments: --bogus 1"),
    (["potential", "eval", "w.json", "--at"], "potential",
     "argument --at: expected one argument"),
    ([], "qrtorsion", "the following arguments are required: verb"),
    (["frobnicate"], "qrtorsion",
     "argument verb: invalid choice: 'frobnicate' (choose from 'torsion', "
     "'spectral', 'classify', 'generate', 'potential', 'verify', 'batch')"),
], ids=["missing-b", "bad-page", "non-int-b", "unknown-option", "missing-at",
        "no-verb", "unknown-verb"])
def test_usage_errors_are_one_json_line_with_exit_2(capsys, argv, where,
                                                    message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == json.dumps({"error": message, "where": where}) + "\n"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["generate", "-h"],
                                  ["potential", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: qrtorsion") and out.err == ""


def test_batch_deterministic_digest(capsys):
    argv = ["batch", "--page", "3", "--count", "5", "--seed", "7"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] == 5 and doc["failed"] == 0


def test_batch_empty(capsys):
    code, out, _ = run(capsys, "batch", "--page", "2", "--count", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 0 and doc["passed"] == 0


def test_batch_negative_count_exits_2(capsys):
    code, out, err = run(capsys, "batch", "--page", "2", "--count", "-1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "--count" in json.loads(err)["error"]


def test_batch_corrupt_skips_unmutatable(capsys):
    # instance 0 of this corpus has d2 = 0, so there is nothing to mutate
    code, out, _ = run(capsys, "batch", "--page", "2", "--count", "8",
                       "--seed", "78", "--field", "F5", "--corrupt")
    assert code == 0
    doc = json.loads(out)
    assert doc["unmutatable"] == 1
    assert doc["failed"] == doc["count"] - doc["passed"] - doc["unmutatable"]
    assert doc["detected"] == doc["failed"] > 0


def test_batch_corrupt_flags_everything(capsys):
    code, out, _ = run(capsys, "batch", "--page", "3", "--count", "8",
                       "--seed", "3", "--corrupt")
    assert code == 0
    doc = json.loads(out)
    assert doc["detected"] == 8
    assert sum(doc["failure_histogram"].values()) >= 8


@pytest.mark.parametrize("argv, digest", [
    (["--page", "2"],
     "627a65f1eed5e7a3573771da379a30b39248dbcba6874b6730e0b8704d368217"),
    (["--page", "3"],
     "c1feb019441288c0c6d526e30d29247dd1ca86f59adf91ba1d1bbadfc020fcbe"),
    (["--page", "2", "--corrupt"],
     "a290c0d38ea9f36640acaeb7a8d22fbe352ed2d5794e43ede140048029005d32"),
    (["--page", "3", "--corrupt"],
     "4747cc5c832771c20bc8b0c1deb3ed1c3a1a5160e49e428e1c429cf22c210196"),
    (["--page", "3", "--field", "Q", "--b", "4", "--count", "10"],
     "4637b8efa2dbf2c085bd2c2b0967d4a81dfd1b587471d0df23f1af4045c6ec46"),
], ids=["page2", "page3", "page2-corrupt", "page3-corrupt", "page3-Q-b4"])
def test_batch_digest_pinned(capsys, argv, digest):
    # a refactor that changes one of these changes behaviour
    code, out, _ = run(capsys, "batch", "--count", "20", "--field", "F5",
                       "--seed", "7", *argv)
    assert code == 0
    assert json.loads(out)["digest"] == digest


@pytest.mark.parametrize("field", ["Fp:3", "Fp:5", "Q"])
@pytest.mark.parametrize("b", range(6))
@pytest.mark.parametrize("page", [2, 3])
def test_generate_verify_exit_codes(tmp_path, capsys, page, b, field):
    # page 2 needs odd b and page 3 even b; any other b is bad input
    path = str(tmp_path / "inst.json")
    code, _, err = run(capsys, "generate", "--page", str(page), "--b", str(b),
                       "--field", field, "--seed", "5", "-o", path)
    if b % 2 == page % 2:
        assert code == 2 and err.count("\n") == 1
        assert "rank required" in json.loads(err)["error"]
        return
    assert code == 0, err
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert json.loads(out)["all_pass"] is True


@pytest.mark.parametrize("entries, message", [
    ([5], "form entry must be a JSON object"),
    ([[1, 2, 3]], "form entry must be a JSON object"),
    ([None], "form entry must be a JSON object"),
    ([{"v": 1}], "missing key 'ijk' in form entry"),
    ([{"ijk": [1, 2, 3]}], "missing key 'v' in form entry"),
    ([{"ijk": 5, "v": 1}], "form entry ijk must be a list"),
    ([{"ijk": "123", "v": 1}], "form entry ijk must be a list"),
    ([{"ijk": [1, 2], "v": 1}], "form entries index three generators"),
    ([{"ijk": [1, 2, 3, 1], "v": 1}], "form entries index three generators"),
    ([{"ijk": [True, 2, 3], "v": 1}],
     "form entry ijk must be an integer, got True"),
    ([{"ijk": [1, 2.0, 3], "v": 1}],
     "form entry ijk must be an integer, got 2.0"),
    ([{"ijk": [1, 2, "3"], "v": 1}],
     "form entry ijk must be an integer, got '3'"),
    # the index is read before v
    ([{"ijk": [1, "2", 3], "v": "x"}],
     "form entry ijk must be an integer, got '2'"),
    ([{"ijk": [1, 2, 3], "v": True}],
     "form entry v must be an integer, got True"),
    ([{"ijk": [1, 2, 3], "v": "1"}],
     "form entry v must be an integer, got '1'"),
    ([{"ijk": [1, 2, 3], "v": 1.0}],
     "form entry v must be an integer, got 1.0"),
    ([{"ijk": [1, 2, 4], "v": 1}], "index 4 out of range 1..3"),
    ([{"ijk": [0, 1, 2], "v": 1}], "index 0 out of range 1..3"),
    # the first index out of range is named
    ([{"ijk": [-1, 2, 5], "v": 2}], "index -1 out of range 1..3"),
    ([{"ijk": [1, 1, 2], "v": 1}], "repeated index in (1,1,2) forces 0"),
    (REPEATED_TRIPLE, "form entry [2, 1, 3] repeats the triple [1, 2, 3]"),
    # a repeated triple is named before its v is read
    ([{"ijk": [1, 2, 3], "v": 1}, {"ijk": [3, 2, 1], "v": "x"}],
     "form entry [3, 2, 1] repeats the triple [1, 2, 3]"),
])
def test_classify_malformed_form_entry_exits_2(tmp_path, capsys, entries,
                                               message):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"b": 3, "entries": entries}))
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": message, "where": "classify"}
