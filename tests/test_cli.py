import hashlib
import json
import os
import subprocess
import sys

import pytest

import hopfcross.algebra
import hopfcross.comodule
import hopfcross.graded
from hopfcross.cli import main, parse_presentation
from hopfcross.errors import ParseError, ValidationError
from hopfcross.linalg import Matrix
from hopfcross.superalg import SuperPresentation

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "hopfcross", "corpus")


def corpus(name):
    return os.path.join(CORPUS, name)


def load(name):
    with open(corpus(name)) as fh:
        return json.load(fh)


def run_json(capsys, argv):
    capsys.readouterr()  # drop output buffered from earlier calls
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# parsing


ALL_CORPUS = sorted(f for f in os.listdir(CORPUS) if f.endswith(".json"))


def test_corpus_is_large_enough():
    assert len(ALL_CORPUS) >= 12


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_every_corpus_file_parses_and_checks(name, capsys):
    assert parse_presentation(corpus(name)).kind == load(name)["kind"]
    assert main(["check", corpus(name)]) == 0


def test_missing_block_is_an_input_error(tmp_path):
    doc = load("kz2.json")
    del doc["counit"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="counit"):
        parse_presentation(str(path))
    assert main(["check", str(path)]) == 2


def test_non_prime_modulus_rejected(tmp_path):
    doc = load("kz2.json")
    doc["field"] = {"kind": "Fp", "p": 4}
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2


def test_malformed_json_is_an_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_presentation(str(path))
    assert main(["check", str(path)]) == 2


def test_out_of_range_index_rejected(tmp_path):
    doc = load("kz2.json")
    doc["product"].append([7, 0, 0, 1])
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2


@pytest.mark.parametrize("name, scalar", [
    ("kz2.json", [1, 0]),     # zero denominator
    ("kz2.json", ["1"]),      # a string
    ("kz2.json", [1.0]),      # a float over Q
    ("kz3-f3.json", [1.0]),   # a float over F_3
    ("kz3-f3.json", [True]),  # a bool over F_3
])
@pytest.mark.parametrize("command", ["check", "antipode"])
def test_malformed_scalar_is_an_input_error(name, scalar, command, tmp_path, capsys):
    doc = load(name)
    doc["product"][1] = doc["product"][1][:3] + scalar
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name, mutate", [
    ("kz2.json", lambda d: [d]),
    ("kz2.json", lambda d: {**d, "basis": 3}),
    ("kz2.json", lambda d: {**d, "product": d["product"][:1] + [5] + d["product"][2:]}),
    ("kz2.json", lambda d: {**d, "unit": {"0": [1]}}),
    ("m2-z2-graded.json", lambda d: {**d, "group": {"table": d["group"]["table"]}}),
    ("m2-z2-graded.json", lambda d: {**d, "group": {**d["group"], "table": [[0, 1], [1]]}}),
    ("kz2.json", lambda d: {**d, "product": [["0"] + d["product"][0][1:]] + d["product"][1:]}),
    ("kz2.json", lambda d: {**d, "product": [[0.5] + d["product"][0][1:]] + d["product"][1:]}),
    ("kz2.json", lambda d: {**d, "coproduct": [[True] + d["coproduct"][0][1:]] + d["coproduct"][1:]}),
    ("kz2.json", lambda d: {**d, "product": d["product"] + [d["product"][0][:3] + [5]]}),
    ("kz2.json", lambda d: {**d, "counit": d["counit"] + d["counit"][:1]}),
    ("kz2.json", lambda d: {**d, "antipode": {**d["antipode"], "rows": "2"}}),
    ("kz2.json", lambda d: {**d, "antipode": {**d["antipode"], "cols": -1}}),
    ("lift-split.json", lambda d: {**d, "domain": [d["domain"]]}),
    ("f3z3-cleft.json", lambda d: {**d, "hopf": "basis"}),
    ("lambda3.json", lambda d: {**d, "parity": 3}),
    ("lambda3.json", lambda d: {**d, "parity": [str(x) for x in d["parity"]]}),
    ("m2-z2-graded.json", lambda d: {**d, "degree": [str(g) for g in d["degree"]]}),
    ("kx2-graded.json",
     lambda d: {**d, "group": {**d["group"], "elements": d["group"]["elements"][:1] + [-1]}}),
], ids=["top-level-list", "int-basis", "int-entry", "object-unit", "no-group-elements",
        "ragged-group-table", "string-index", "float-index", "bool-index",
        "duplicate-product-entry", "duplicate-counit-entry", "string-rows", "negative-cols",
        "list-domain", "string-hopf", "int-parity", "string-parity", "string-degree",
        "int-group-element"])
def test_malformed_document_is_an_input_error(name, mutate, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(mutate(load(name))))
    with pytest.raises((ParseError, ValidationError)):
        parse_presentation(str(path))
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate", corpus("kz2.json")])
    assert e.value.code == 2


def test_axiom_failure_is_a_verdict_not_an_input_error(tmp_path, capsys):
    # structurally fine, semantically broken: drop one coproduct term
    doc = load("kz2.json")
    doc["coproduct"] = [e for e in doc["coproduct"] if e[0] != 1]
    path = tmp_path / "broken-delta.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["check", str(path)])
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["witnesses"]["violations"]


def test_super_check_covers_the_counit_laws(tmp_path, capsys):
    # Lambda(1) with Delta(v) = 0 respects parity and is super-commutative,
    # but v fails both counit laws
    doc = {
        "format_version": 1, "kind": "super-hopf", "field": {"kind": "Q"},
        "basis": ["1", "v"], "parity": [0, 1],
        "product": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]],
        "unit": [[0, 1]], "counit": [[0, 1]],
        "coproduct": [[0, 0, 0, 1]],
        "antipode": {"rows": 2, "cols": 2, "entries": [[0, 0, 1]]},
    }
    path = tmp_path / "lambda1-zero-delta.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["check", str(path)])
    assert code == 1
    assert report["witnesses"]["violations"] == [["counit-left", [1]], ["counit-right", [1]]]
    code, report = run_json(capsys, ["super-decompose", str(path)])
    assert code == 2
    assert report["error"].startswith("super axiom violations")


# ---------------------------------------------------------------------------
# command verdicts over the corpus


def test_antipode_found_and_not_found(capsys):
    code, report = run_json(capsys, ["antipode", corpus("ks3.json"), "--certify"])
    assert code == 0
    assert report["certificates"]["antipode"]["rows"] == 6
    assert main(["antipode", corpus("monoid2.json")]) == 1


def test_failed_antipode_law_is_an_internal_error(monkeypatch):
    # the final law check repeats what convolution_invert has verified, so a
    # failure is a fault in the program (exit 2), never "no antipode" (exit 1)
    monkeypatch.setattr(hopfcross.algebra, "_antipode_laws",
                        lambda h: iter([("antipode-right", (0,))]))
    assert main(["antipode", corpus("ks3.json")]) == 2


def test_strongly_graded_verdicts(capsys):
    assert main(["strongly-graded", corpus("m2-z2-graded.json"), "--certify"]) == 0
    code, report = run_json(capsys, ["strongly-graded", corpus("kx2-graded.json")])
    assert code == 1
    assert report["witnesses"]["table"]["g,g"] is False


def test_find_section_negative_is_definitive(capsys):
    # Phi : B (x) H -> A is bijective at a colinear map with no convolution
    # inverse, which proves that nothing is cleft
    for command in ("find-section", "recognize-cleft"):
        code, report = run_json(capsys, [command, corpus("kx2-graded.json")])
        assert code == 1
        assert report["verdict"] == "not-found"
        assert report["definitive"] is True and report["budget_exhausted"] is False
    assert report["witnesses"]["galois_bijective"] is False


def test_recognize_crossed_and_cleft_agree_on_m2(capsys):
    assert main(["recognize-crossed", corpus("m2-z2-graded.json")]) == 0
    code, report = run_json(capsys, ["recognize-cleft", corpus("m2-z2-graded.json")])
    assert code == 0
    assert report["witnesses"]["galois_bijective"] is True
    assert "system" in report["certificates"]


def test_classify_split_lift_chain(capsys):
    code, report = run_json(capsys, ["classify-cleft", corpus("f3z3-cleft.json")])
    assert code == 0
    assert report["witnesses"]["hh2_dimension"] == 1
    assert report["witnesses"]["is_split"] is False
    code, report = run_json(capsys, ["split", corpus("f3z3-cleft.json")])
    assert code == 1
    assert any(any(part) for part in report["witnesses"]["obstruction"])
    assert main(["lift", corpus("lift-split.json"), "--certify"]) == 0
    code, report = run_json(capsys, ["lift", corpus("lift-obstructed.json")])
    assert code == 1
    assert report["witnesses"]["obstruction_step"] == 1


def test_hh2_reports_dimension_and_class(capsys):
    code, report = run_json(capsys, ["hh2", corpus("f3z3-hmodule.json")])
    assert code == 0
    assert report["witnesses"]["dimension"] == 1
    assert report["witnesses"]["class"] == [[1]]
    code, report = run_json(capsys, ["hh2", corpus("qz3-hmodule.json")])
    assert report["witnesses"]["dimension"] == 0


def test_super_decompose_scrambled(capsys):
    code, report = run_json(
        capsys, ["super-decompose", corpus("super-scrambled.json"), "--certify"]
    )
    assert code == 0
    assert report["witnesses"]["h_dimension"] == 2
    assert report["witnesses"]["w_dimension"] == 2
    assert report["certificates"]["alpha"]["rows"] == 8


def test_pairing_command(capsys):
    code, report = run_json(capsys, ["pairing", "--n", "2", "--certify"])
    assert code == 0
    assert report["witnesses"]["nondegenerate"] is True
    assert main(["pairing", "--n", "3", "--prime", "5"]) == 0


def test_coinvariants_and_galois(capsys):
    code, report = run_json(capsys, ["coinvariants", corpus("f3z3-cleft.json")])
    assert code == 0
    assert report["witnesses"]["dimension"] == 2
    assert main(["galois", corpus("f3z3-cleft.json"), "--certify"]) == 0
    assert main(["galois", corpus("kx2-graded.json")]) == 1


def test_crossed_product_and_smash(capsys):
    code, report = run_json(capsys, ["crossed-product", corpus("f3z3-crossed.json")])
    assert code == 0
    assert report["witnesses"]["presentation"]["kind"] == "comodule-algebra"
    assert main(["smash-coproduct", corpus("smash-example.json"), "--certify"]) == 0


def test_crossed_product_reports_the_laws_a_broken_cocycle_fails(tmp_path, capsys):
    doc = load("f3z3-crossed.json")
    doc["sigma"]["entries"][9] = [1, 4, 2]
    path = tmp_path / "bad-sigma.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["crossed-product", str(path)])
    assert code == 1
    assert report["witnesses"]["violations"] == [
        ["sigma-not-convolution-invertible", []],
        ["cocycle-law", [1, 1, 2]], ["cocycle-law", [1, 2, 2]],
        ["cocycle-law", [2, 1, 1]], ["cocycle-law", [2, 2, 1]],
    ]


def test_dual_roundtrip_through_files(tmp_path, capsys):
    code, report = run_json(capsys, ["dual", corpus("kz2.json"), "--certify"])
    assert code == 0
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(report["witnesses"]["presentation"]))
    assert main(["check", str(path)]) == 0


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("argv", [
    ["super-decompose", corpus("super-scrambled.json")],
    ["recognize-crossed", corpus("m2-z2-graded.json"), "--seed", "3"],
    ["find-section", corpus("f3z3-cleft.json"), "--seed", "3"],
    ["classify-cleft", corpus("f3z3-cleft.json")],
    ["hh2", corpus("f3z3-hmodule.json")],
])
def test_machine_reports_are_byte_identical(argv, capsys):
    main(argv + ["--json"])
    first = capsys.readouterr().out
    main(argv + ["--json"])
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # stays valid JSON


# SHA-256 of the --json report of commands that build subalgebras, quotients,
# their coactions and duals: a change to how they are built must leave every
# report byte-identical.
@pytest.mark.parametrize("argv, digest", [
    (["coinvariants", "f3z3-cleft.json"],
     "fc12aaaf659196fdb4444a4abd84526b23fd2491936b6d46f8ac86bdba4f17af"),
    (["recognize-cleft", "f3z3-cleft.json"],
     "b3acc0e3e7b3492876063bf2abe4f4810217c710138b1ffc67c239ff950b7350"),
    (["classify-cleft", "f3z3-cleft.json"],
     "5a91c5407fcc40b312adc7a711f1493826910c803c7c4ae8cf7f05e94e1ed37c"),
    (["split", "f3z3-cleft.json"],
     "7d12db4f5ae150f24beb4c8ee6eba10cdbbcff86dd8b068101a9dc8c3d009187"),
    (["lift", "lift-split.json"],
     "3a478fa8b9c720c9cc057d8e8e977fe84a6b0a98133ccd69fe3fef84c0ab5def"),
    (["lift", "lift-obstructed.json"],
     "df4a2b96f84bed3439092a900a123bdfea101ee6ada57188213590c4f333659f"),
    (["super-decompose", "lambda3.json"],
     "28ee540ea75d6e91f8fd7631bc143064991e317061d24c5e622d59406792fc26"),
    (["pairing", "--n", "3"],
     "7a2c514e0d46f3edf3c037564048e713e18db4588611cb22488a3c45194b1e5a"),
    (["recognize-crossed", "m2-z2-graded.json"],
     "9a51b165e8543ed759d279e8451254a66eec1a472201642c54b1576154017147"),
    (["crossed-product", "f3z3-crossed.json"],
     "a8446268ffe3e1ecf9f45be7234d583366c6773242b611da7389ff0c35b14239"),
    (["dual", "sweedler.json"],
     "cb7a7d4389b4241734f1d8757d27bce9dc9cc05cb2637041a858b90b74681ac1"),
    (["hh2", "f3z3-hmodule.json"],
     "8e05c6f34bf2b4981c4073c37227f61a33a4821c57609990e2b815395f755d01"),
    (["find-section", "f3z3-cleft.json"],
     "d89be0b38ae812794b88cdc68ae73b8e086ca7a44960d6072e2bd38c5fc162e3"),
    (["check", "super-scrambled.json"],
     "a20138e366a6b1c8e84ac3a8f78120c36ef72de1df549d34895f3718368533bd"),
    (["super-decompose", "super-scrambled.json"],
     "696984bc4df19ea097f4aa085f905f7f29bb681913d3add57bf13f9eaa9a5f26"),
])
def test_reports_match_their_recorded_digests(argv, digest, capsys):
    capsys.readouterr()
    main([corpus(a) if a.endswith(".json") else a for a in argv] + ["--json"])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# one verification per result


def count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name: rebind it on owner when owner is a
    class, else in every hopfcross module that holds the function."""
    fn = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, wrapper)
    else:
        for modname, mod in list(sys.modules.items()):
            if mod is not None and modname.split(".")[0] == "hopfcross":
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key, wrapper)
    return calls


@pytest.mark.parametrize("argv, owner, name, expected", [
    (["antipode", "ks3.json", "--certify"], hopfcross.algebra, "convolution_invert", 1),
    (["dual", "kz2.json", "--certify"], hopfcross.algebra, "check_axioms", 1),
    (["lift", "lift-split.json"], hopfcross.comodule, "section_to_crossed_system", 1),
    (["lift", "lift-split.json"], hopfcross.comodule, "check_crossed_system", 1),
    (["recognize-crossed", "m2-z2-graded.json"], hopfcross.graded,
     "check_group_crossed_system", 1),
    (["super-decompose", "lambda3.json"], SuperPresentation, "check_super_axioms", 2),
    (["crossed-product", "f3z3-crossed.json"], hopfcross.comodule, "check_crossed_system", 1),
])
def test_each_result_is_verified_once(argv, owner, name, expected, monkeypatch):
    calls = count_calls(monkeypatch, owner, name)
    assert main([argv[0], corpus(argv[1])] + argv[2:]) == 0
    assert len(calls) == expected


def test_lift_eliminates_each_matrix_once(monkeypatch):
    # solve_linear reads its kernel off the elimination it already made, and
    # each matrix solved for several right-hand sides is eliminated once
    calls = count_calls(monkeypatch, Matrix, "rref")
    assert main(["lift", corpus("lift-split.json")]) == 0
    assert len(calls) == 47


@pytest.mark.parametrize("argv", [
    ["antipode", corpus("ks3.json")],
    ["antipode", corpus("monoid2.json")],
    ["dual", corpus("kz2.json")],
    ["galois", corpus("f3z3-cleft.json")],
    ["galois", corpus("kx2-graded.json")],
    ["find-section", corpus("f3z3-cleft.json")],
    ["split", corpus("f3z3-cleft.json")],
    ["lift", corpus("lift-split.json")],
    ["smash-coproduct", corpus("smash-example.json")],
    ["super-decompose", corpus("lambda3.json")],
    ["pairing", "--n", "2"],
])
def test_certify_leaves_the_report_unchanged(argv, capsys):
    capsys.readouterr()
    plain_code = main(argv + ["--json"])
    plain = capsys.readouterr().out
    certified_code = main(argv + ["--json", "--certify"])
    assert certified_code == plain_code
    assert capsys.readouterr().out == plain


# ---------------------------------------------------------------------------
# argv handling and the module entry point


@pytest.mark.parametrize("argv, rejected", [
    (["check", "--kind", "hopf", "kz2.json"], False),  # options may precede the file
    (["antipode", "kz2.json", "--kind", "hopf"], True),  # --kind is for check only
    (["antipode", "kz2.json", "--n", "3"], True),  # --n is for pairing only
    (["pairing", "kz2.json", "--n", "3"], True),  # pairing takes no file
    (["pairing"], True),  # pairing needs --n
    (["check"], True),  # every other command needs a file
])
def test_argv_handling(argv, rejected, capsys):
    argv = [corpus(a) if a.endswith(".json") else a for a in argv]
    if rejected:
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
    else:
        assert main(argv) == 0


@pytest.mark.parametrize("argv", [
    ["pairing", "--n", "2", "--json"],
    ["check", corpus("kz2.json"), "--json"],
])
def test_module_entry_point_matches_main(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out
    # the child inherits this environment, PYTHONPATH included
    proc = subprocess.run([sys.executable, "-m", "hopfcross.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
