import json

import pytest

from qrtorsion.cli import main


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


@pytest.mark.parametrize("verb", [["verify"], ["spectral"], ["torsion", "quantum"],
                                  ["classify"], ["potential", "eval", "--at", "1"]],
                         ids=lambda v: v[0])
def test_non_object_json_exits_2(tmp_path, capsys, verb):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, *verb, str(path))
    assert code == 2 and out == ""
    assert "expected a JSON object" in json.loads(err)["error"]


def test_inadmissible_characteristic_exits_2(capsys):
    code, _, err = run(capsys, "generate", "--page", "2", "--b", "3",
                       "--field", "Fp:5", "--torsion", "5", "--seed", "1")
    assert code == 2
    assert "invariant factor 5" in json.loads(err)["error"]


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
    code, out, _ = run(capsys, "classify", str(path))
    assert json.loads(out)["qualifier"] == "randomized"


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
     "0956c5a399b5d89db3f8824f7c74480acfdc327fed34e5ba0a4b3ff046c83030"),
    (["--page", "2", "--corrupt"],
     "a290c0d38ea9f36640acaeb7a8d22fbe352ed2d5794e43ede140048029005d32"),
    (["--page", "3", "--corrupt"],
     "4747cc5c832771c20bc8b0c1deb3ed1c3a1a5160e49e428e1c429cf22c210196"),
    (["--page", "3", "--field", "Q", "--b", "4", "--count", "10"],
     "abb073752274249455e69d90851735e4f9b287fdd648266d32e14581bc3cd929"),
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
