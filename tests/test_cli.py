import argparse
import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcross.algebra
import hopfcross.cli
import hopfcross.cohomology
import hopfcross.comodule
import hopfcross.graded
import hopfcross.superalg
from hopfcross.algebra import (
    FAlgebra,
    FBialgebra,
    FCoalgebra,
    FHopf,
    dual_structure,
    group_hopf_algebra,
    induced_algebra,
    induced_coproduct,
    smash_coproduct,
)
from hopfcross.cli import (
    COMMANDS,
    _field_to_json,
    _matrix,
    _matrix_block,
    encode_comodule_algebra,
    encode_super_hopf,
    main,
    parse_presentation,
)
from hopfcross.cohomology import (
    augmentation_violations,
    crossed_system_from_cocycle,
    differential,
)
from hopfcross.comodule import ComoduleAlgebra, crossed_product
from hopfcross.errors import HopfcrossError, ParseError, ValidationError
from hopfcross.groups import GroupTable
from hopfcross.linalg import (
    FpElement,
    Matrix,
    PrimeField,
    Rationals,
    basis_vec,
    row_space_basis,
)
from hopfcross.search import SearchOutcome
from hopfcross.superalg import ExteriorHopf, SuperPresentation, even_quotient, super_tensor_product
from tests.oracles import dense_tensor, regular_comodule
from tests.test_cohomology import cochain1, eps_on_crossed_product, trivial_setup

Q = Rationals()
F3 = PrimeField(3)
CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "hopfcross", "corpus")


def corpus(name):
    return os.path.join(CORPUS, name)


def load(name):
    with open(corpus(name)) as fh:
        return json.load(fh)


def bump_coaction(doc):
    """Add one to the scalar of coaction entry 1 (mod p over F_p): the
    coaction then breaks the comodule and algebra-map laws."""
    entry = doc["coaction"]["entries"][1]
    p = doc["field"].get("p")
    entry[-1] = (entry[-1] + 1) % p if p else entry[-1] + 1
    return doc


def bump_lift_part(part):
    doc = load("lift-split.json")
    bump_coaction(doc[part])
    return doc


# documents made from the corpus by one corruption
DERIVED = {
    "f3z3-cleft-bad-coaction.json": lambda: bump_coaction(load("f3z3-cleft.json")),
    "lift-bad-domain.json": lambda: bump_lift_part("domain"),
    "lift-bad-target.json": lambda: bump_lift_part("target"),
}


def input_path(name, tmp_path):
    """The corpus file `name`, or the derived document `name` written to tmp_path."""
    if name not in DERIVED:
        return corpus(name)
    path = tmp_path / name
    path.write_text(json.dumps(DERIVED[name]()))
    return str(path)


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


@pytest.mark.parametrize("p, message", [
    (2 ** 64, "p = %d is too large: a prime modulus must be below 2^64" % 2 ** 64),
    (3825123056546413051, "p = 3825123056546413051 is not prime"),
])
def test_a_large_modulus_is_decided_at_once(p, message, tmp_path, capsys):
    # the field block is read before any kind check; a modulus of 2^64 or
    # more is refused, and primality below it does not take trial division
    doc = load("kz2.json")
    doc["field"] = {"kind": "Fp", "p": p}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert time.monotonic() - start < 1.0


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
    ("lift-split.json", lambda d: {**d, "target": {**d["target"], "kind": "algebra"}}),
    ("f3z3-hmodule.json", lambda d: {**d, "cochain": {"rows": 3, "cols": 3,
                                                      "entries": [[0, 1, 1]]}}),
    ("f3z3-hmodule.json", lambda d: {**d, "cochain": {**d["cochain"], "cols": 8}}),
    # a coaction that fails the laws must not hide a malformed augmentation
    ("f3z3-cleft.json", lambda d: {**d, "augmentation": "bad", "coaction": {
        **d["coaction"], "entries": [d["coaction"]["entries"][0][:2] + [2]]
        + d["coaction"]["entries"][1:]}}),
    # one entry with two faults: the index is named before the scalar, the
    # repeat before the scalar, and the first bad index of an entry first
    ("kz2.json", lambda d: {**d, "product": d["product"] + [[7, 0, 0, "x"]]}),
    ("kz3-f3.json", lambda d: {**d, "coproduct": d["coproduct"] + [[0, 0, 9, 1, 2]]}),
    ("kz2.json", lambda d: {**d, "product": d["product"] + [d["product"][0][:3] + [1.5]]}),
    ("kz2.json", lambda d: {**d, "product": [["a", 99, 0, 1]] + d["product"]}),
    ("kz2.json", lambda d: {**d, "product": [[0, 0, True, 1]] + d["product"]}),
    ("kz2.json", lambda d: {**d, "unit": [[5, "x"]]}),
    # a zero entry is still an entry, which a repeat of its indices repeats
    ("kz2.json", lambda d: {**d, "product": [d["product"][0][:3] + [0]] + d["product"]}),
    ("kz3-f3.json", lambda d: {**d, "coproduct": d["coproduct"] + [d["coproduct"][0][:3] + [3]]}),
    ("kz2.json", lambda d: {**d, "counit": [[0, 0]] + d["counit"]}),
    # scalars that only the full reader reads
    ("kz3-f3.json", lambda d: {**d, "product": d["product"][:1] + [d["product"][1][:3] + [1, 2]]
                               + d["product"][2:]}),
    ("kz2.json", lambda d: {**d, "coproduct": [d["coproduct"][0][:3] + [1, 0]]
                            + d["coproduct"][1:]}),
    ("kz2.json", lambda d: {**d, "product": [d["product"][0][:3] + [1, 2, 3]] + d["product"][1:]}),
], ids=["top-level-list", "int-basis", "int-entry", "object-unit", "no-group-elements",
        "ragged-group-table", "string-index", "float-index", "bool-index",
        "duplicate-product-entry", "duplicate-counit-entry", "string-rows", "negative-cols",
        "list-domain", "string-hopf", "int-parity", "string-parity", "string-degree",
        "int-group-element", "algebra-target", "square-cochain", "short-cochain",
        "string-augmentation-on-a-bumped-coaction", "range-index-and-string-scalar",
        "range-index-and-fp-denominator", "duplicate-and-float-scalar",
        "string-index-before-range-index", "bool-third-index", "range-unit-and-string-scalar",
        "zero-product-entry-repeated", "zero-coproduct-entry-repeated",
        "zero-counit-entry-repeated", "fp-denominator", "zero-denominator-in-coproduct",
        "three-part-scalar"])
def test_malformed_document_is_an_input_error(name, mutate, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(mutate(load(name))))
    with pytest.raises((ParseError, ValidationError)):
        parse_presentation(str(path))
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# every kind the parser reads; no corpus file is a bare algebra or coalgebra
KINDS = sorted({load(name)["kind"] for name in ALL_CORPUS} | {"algebra", "coalgebra"})
# every command but check reads super-scrambled.json in well under a second
# (check takes seconds), so the fuzz leaves that one file out
FUZZ_CORPUS = [name for name in ALL_CORPUS if name != "super-scrambled.json"]


def json_nodes(node, path=()):
    """Every (path, node) of a JSON document, depth first."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from json_nodes(child, path + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_command_survives_a_mutated_document(data):
    # one mutation of a corpus document: drop a key, change a scalar, swap a
    # presentation's kind, duplicate a list entry, or bump one product or
    # coproduct constant (the shape stays valid, so the laws run); every
    # command must give a verdict or an input error, never a traceback
    doc = load(data.draw(st.sampled_from(FUZZ_CORPUS)))
    nodes = list(json_nodes(doc))
    mutation = data.draw(st.sampled_from(["drop", "scalar", "kind", "duplicate", "bump"]))
    if mutation == "drop":
        path, key = data.draw(st.sampled_from(
            [(p, k) for p, n in nodes if isinstance(n, dict) for k in n]))
        del node_at(doc, path)[key]
    elif mutation == "scalar":
        path = data.draw(st.sampled_from([p for p, n in nodes if p and type(n) is int]))
        node_at(doc, path[:-1])[path[-1]] = data.draw(
            st.one_of(st.integers(-3, 9), st.sampled_from([0.5, "1", None, True])))
    elif mutation == "kind":
        path = data.draw(st.sampled_from(
            [p for p, n in nodes if isinstance(n, dict) and n.get("kind") in KINDS]))
        node_at(doc, path)["kind"] = data.draw(st.sampled_from(KINDS))
    elif mutation == "duplicate":
        path = data.draw(st.sampled_from([p for p, n in nodes if isinstance(n, list) and n]))
        entries = node_at(doc, path)
        entries.append(copy.deepcopy(data.draw(st.sampled_from(entries))))
    else:
        path = data.draw(st.sampled_from(
            [p for p, n in nodes if len(p) > 1 and p[-2] in ("product", "coproduct")]))
        node_at(doc, path)[3] += data.draw(st.integers(1, 4))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command in COMMANDS:
            if command != "pairing":
                assert main([command, path]) in (0, 1, 2)


@pytest.mark.parametrize("as_json", [False, True])
def test_an_internal_fault_exits_3(as_json, monkeypatch, capsys):
    # a fault in the program is neither a verdict (0, 1) nor an input error (2)
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setitem(COMMANDS, "check", (broken,) + COMMANDS["check"][1:])
    capsys.readouterr()
    assert main(["check", corpus("kz2.json")] + (["--json"] if as_json else [])) == 3
    out = capsys.readouterr()
    assert out.err.startswith("internal error: 'lost'\nTraceback")
    if as_json:
        assert json.loads(out.out) == {"command": "check", "verdict": "error",
                                       "exit_code": 3, "error": "'lost'"}
    else:
        assert out.out == ""


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


def test_strongly_graded_verdicts(capsys):
    assert main(["strongly-graded", corpus("m2-z2-graded.json"), "--certify"]) == 0
    code, report = run_json(capsys, ["strongly-graded", corpus("kx2-graded.json")])
    assert code == 1
    assert report["witnesses"]["table"]["g,g"] is False


def test_a_wrong_strong_grading_verdict_is_caught(monkeypatch, capsys):
    # k[x]/(x^2) graded by Z/2 is not strongly graded, and A/A_e is not
    # k[Z/2]-Galois, so a positive verdict on it must not be reported
    decide = hopfcross.cli.is_strongly_graded
    monkeypatch.setattr(hopfcross.cli, "is_strongly_graded", lambda ga: (True, decide(ga)[1]))
    capsys.readouterr()
    assert main(["strongly-graded", corpus("kx2-graded.json"), "--json"]) == 2
    out = capsys.readouterr()
    assert out.err == "error: strong-grading verdicts disagree\n"
    assert json.loads(out.out)["error"] == "strong-grading verdicts disagree"


def test_find_section_negative_is_definitive(capsys):
    # Phi : B (x) H -> A is bijective at a colinear map with no convolution
    # inverse, which proves that nothing is cleft
    for command in ("find-section", "recognize-cleft"):
        code, report = run_json(capsys, [command, corpus("kx2-graded.json")])
        assert code == 1
        assert report["verdict"] == "not-found"
        assert report["definitive"] is True and report["budget_exhausted"] is False
    assert report["witnesses"]["galois_bijective"] is False


@pytest.mark.parametrize("command, name, module", [
    ("find-section", "f3z3-cleft.json", hopfcross.comodule),
    ("recognize-cleft", "f3z3-cleft.json", hopfcross.comodule),
    ("recognize-crossed", "m2-z2-graded.json", hopfcross.graded),
])
def test_a_search_out_of_budget_is_a_non_definitive_negative(command, name, module,
                                                             monkeypatch, capsys):
    # a search that ends without a witness and without proving that none
    # exists is a negative that says so: exit 1, definitive false
    monkeypatch.setattr(module, "find_invertible_combination",
                        lambda field, mats, budget: SearchOutcome(None, False, 1))
    code, report = run_json(capsys, [command, corpus(name)])
    assert (code, report["verdict"]) == (1, "not-found")
    assert report["definitive"] is False and report["budget_exhausted"] is True


@pytest.mark.parametrize("name,code,tried", [
    ("f3z3-cleft.json", 0, 6),
    ("m2-z2-graded.json", 0, 4),
    ("kx2-graded.json", 1, 2),
])
def test_find_section_searches_each_block_on_its_own(name, code, tried, monkeypatch, capsys):
    # over k[G] the normal-basis family splits into one block per group
    # element; searched whole, these took 230, 31 and 5 determinants
    outcomes = []
    search = hopfcross.comodule.find_invertible_combination

    def recorded(*args):
        outcomes.append(search(*args))
        return outcomes[-1]

    monkeypatch.setattr(hopfcross.comodule, "find_invertible_combination", recorded)
    assert run_json(capsys, ["find-section", corpus(name)])[0] == code
    assert [outcome.tried for outcome in outcomes] == [tried]


def test_recognize_crossed_and_cleft_agree_on_m2(capsys):
    assert main(["recognize-crossed", corpus("m2-z2-graded.json")]) == 0
    code, report = run_json(capsys, ["recognize-cleft", corpus("m2-z2-graded.json")])
    assert code == 0
    assert report["witnesses"]["galois_bijective"] is True
    assert "system" in report["certificates"]


def sign_graded_matrix_doc(signs):
    """M_n(Q) on the basis e_ij, graded by Z/2 with deg e_ij = s_i + s_j.
    For a sign vector s with p zeros and q ones, A_e = M_p x M_q and
    A_g A_g = A_e, so A is strongly graded and hence k[Z/2]-Galois
    (Ulbrich); when p != q, dim A_g = 2pq != dim A_e, so A is not a crossed
    product and not cleft."""
    n = len(signs)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    at = {ij: t for t, ij in enumerate(pairs)}
    return {"format_version": 1, "kind": "graded-algebra", "field": {"kind": "Q"},
            "basis": ["e%d%d" % (i + 1, j + 1) for i, j in pairs],
            "degree": [(signs[i] + signs[j]) % 2 for i, j in pairs],
            "group": {"elements": ["1", "g"], "table": [[0, 1], [1, 0]]},
            "product": [[at[i, j], at[j, l], at[i, l], 1] for i, j in pairs for l in range(n)],
            "unit": [[at[i, i], 1] for i in range(n)]}


@pytest.mark.parametrize("signs", [(0, 0, 1), (0, 1, 1), (0, 0, 0, 1)])
def test_galois_but_not_cleft_is_a_negative_answer(signs, tmp_path, capsys):
    # cleft => Galois, but not conversely: without the normal basis property
    # a Galois extension is not cleft, and recognize-cleft says so with exit 1
    path = tmp_path / "sign-graded.json"
    path.write_text(json.dumps(sign_graded_matrix_doc(signs)))
    n, q = len(signs), sum(signs)
    reports = {}
    for command in ("check", "strongly-graded", "galois", "coinvariants", "find-section",
                    "recognize-crossed", "recognize-cleft"):
        code, report = run_json(capsys, [command, str(path)])
        reports[command] = report
        assert code == report["exit_code"], command
    assert {command: (r["exit_code"], r["verdict"]) for command, r in reports.items()} == {
        "check": (0, "pass"), "strongly-graded": (0, "pass"), "galois": (0, "pass"),
        "coinvariants": (0, "pass"), "find-section": (1, "not-found"),
        "recognize-crossed": (1, "not-found"), "recognize-cleft": (1, "not-found")}
    assert all(reports["strongly-graded"]["witnesses"]["table"].values())
    assert reports["galois"]["witnesses"] == {"bijective": True, "rank": 2 * n * n}
    assert reports["coinvariants"]["witnesses"]["dimension"] == (n - q) ** 2 + q ** 2
    for command in ("find-section", "recognize-crossed", "recognize-cleft"):
        assert reports[command]["definitive"] is True, command
    assert reports["recognize-cleft"]["witnesses"] == {"galois_bijective": True}


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


def test_split_finds_the_splitting_of_a_coboundary(tmp_path, capsys):
    # B #_sigma F3[Z/3] for sigma = d(t), t(g^a) = 0, 1, 1: the class is zero
    # but the cocycle is not, so the splitting comes from solving for t
    h, _, aug, act = trivial_setup(F3)
    s = differential(cochain1(F3, [F3.zero, F3.one, F3.one]), act)
    assert not s.matrix.is_zero()
    cp = crossed_product(crossed_system_from_cocycle(act, s))
    eps = eps_on_crossed_product(aug, h)
    path = tmp_path / "coboundary.json"
    path.write_text(json.dumps(encode_comodule_algebra(cp, augmentation=eps)))
    code, report = run_json(capsys, ["split", str(path)])
    assert (code, report["verdict"]) == (0, "found")
    psi = _matrix(F3, _matrix_block(F3, report["certificates"]["splitting"], "splitting"))
    # an augmented comodule-algebra map on the group-like basis g of Z/3:
    # psi(1) = 1, psi(g) psi(g') = psi(gg'), rho(psi(g)) = psi(g) (x) g and
    # eps(psi(g)) = 1
    a, cols = cp.algebra, [psi.col(g) for g in range(3)]
    assert cols[0] == a.one()
    for g in range(3):
        assert cp.coaction.apply(cols[g]) == dense_tensor(cols[g], basis_vec(F3, 3, g))
        assert sum((e * c for e, c in zip(eps, cols[g])), F3.zero) == F3.one
        for t in range(3):
            assert a.mult(cols[g], cols[t]) == cols[(g + t) % 3]


def test_hh2_reports_dimension_and_class(capsys):
    code, report = run_json(capsys, ["hh2", corpus("f3z3-hmodule.json")])
    assert code == 0
    assert report["witnesses"]["dimension"] == 1
    assert report["witnesses"]["class"] == [[1]]
    code, report = run_json(capsys, ["hh2", corpus("qz3-hmodule.json")])
    assert report["witnesses"]["dimension"] == 0


def test_hh2_over_the_ground_field_is_zero(tmp_path, capsys):
    # B = k has B+ = 0, so no cochain is nonzero: HH^2 = 0, and the class of
    # the one 0 x (dim H)^2 cochain has no coordinates
    doc = load("qz3-hmodule.json")
    doc.update(base={**doc["base"], "basis": ["1"], "product": [[0, 0, 0, 1]]},
               augmentation=[[0, 1]], action={"rows": 0, "cols": 0, "entries": []})
    path = tmp_path / "ground.json"
    for cochain, witnesses in ((None, {"dimension": 0}),
                               ({"rows": 0, "cols": 9, "entries": []},
                                {"dimension": 0, "class": []})):
        if cochain is not None:
            doc["cochain"] = cochain
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, ["hh2", str(path)])
        assert code == 0
        assert (report["witnesses"], report["certificates"]) == (
            witnesses, {"representatives": []})


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
def test_a_hopf_algebra_over_itself_is_split(field, tmp_path, capsys):
    # H = k[Z/3] over itself through Delta has B = k: HH^2 = 0, and with the
    # augmentation eps the identity of H is the splitting
    h = group_hopf_algebra(GroupTable.cyclic(3), field)
    path = tmp_path / "regular.json"
    path.write_text(json.dumps(encode_comodule_algebra(regular_comodule(h),
                                                       augmentation=h.counit)))
    code, report = run_json(capsys, ["classify-cleft", str(path)])
    assert code == 0
    assert report["witnesses"] == {"hh2_dimension": 0, "class": [], "is_split": True}
    code, report = run_json(capsys, ["split", str(path)])
    assert (code, report["verdict"]) == (0, "found")
    assert report["certificates"]["splitting"] == {
        "rows": 3, "cols": 3, "entries": [[g, g, 1] for g in range(3)]}


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
    # invalid comodule algebras: the first ten witnesses, and a wrong --kind
    (["check", "f3z3-cleft-bad-coaction.json"],
     "ad6a08e6837b29a127ce27560a16641ef99c7acd469f958d95a5966ce57fe850"),
    (["check", "lift-bad-domain.json"],
     "0ca3200fbd414733cdebb535b2561c71b83075676b563c1c93837da364766d7a"),
    (["check", "lift-bad-target.json"],
     "884409d2ee33e5eda09744b195583f83e49171c68e60768762ad49f9f33b6dbd"),
    (["check", "--kind", "hopf", "f3z3-cleft-bad-coaction.json"],
     "7515fcbf718375569056a4e0b35b2c351c01383a9d4c0c4bfbed534a5040836d"),
    # one file of a kind the command does not read, for each error message
    (["antipode", "f3z3-cleft.json"],
     "853c378748a6d307d7149834554f3b88e30dea11f3af23bc73c638418c71d096"),
    (["dual", "monoid2.json"],
     "bf0c15523d3e080e31371a9962f86265f89a37cf4f630fdd0e2b41d345e28468"),
    (["coinvariants", "kz2.json"],
     "544067e0378a5919203c99cd470e1996a4e93cc11aef5871a935f7d9187cfad3"),
    (["strongly-graded", "f3z3-cleft.json"],
     "f7dc062c1567cb8274a3d9fa03e77ce03f01397c05d64b929c1623dfffe12b3d"),
    (["recognize-crossed", "kz2.json"],
     "c20549935d370c3568cb1f00797e8ed52108630a8201a2196a4894f824b831a4"),
    (["crossed-product", "kz2.json"],
     "14a0bcb58f7e8b067118015097e46dd733b3d09bef413b59dcd747911db99ea0"),
    (["classify-cleft", "m2-z2-graded.json"],
     "ccff767d4acca67db851cd18c1f9c04b581b1a2656a91ba68446995b087acb77"),
    (["hh2", "kz2.json"],
     "d8772a5cd3d28856ab95fe9a26cfaf3e2eb7c301ce3b81a7f7c167aed68a836a"),
    (["lift", "kz2.json"],
     "1db45e44e3e68b08784809de07355adb74dc1db16d92d4393edf31f0cfa42b8a"),
    (["smash-coproduct", "kz2.json"],
     "7d429d6349fa5910fbd4d2876b28ea177972ccc986ed024cad0efcda03be92db"),
    (["super-decompose", "kz2.json"],
     "35765dec022efd67d9970e72f38b6daabc4383ef7ebb69a1a3183c1a0f80c327"),
    # a negative recognize-crossed: A_g of k[x]/(x^2) holds no unit
    (["recognize-crossed", "kx2-graded.json"],
     "d681a48890c1bfebd228df01f7caecc1c57751cf45c2ac5cbfdaade11f44b1de"),
    # the pairings of the dense-kernel benchmark's canonical round
    (["pairing", "--n", "5"],
     "77abae38ee53e2f75921724cfa0a7c80fd1e4fba8bc7f23f78a8266eeab8f17f"),
    (["pairing", "--n", "6", "--prime", "7"],
     "2788524e51d9b43fa1d6a96e6eadd57d5ec79902edf3af3f2479a31ec04140bf"),
])
def test_reports_match_their_recorded_digests(argv, digest, tmp_path, capsys):
    capsys.readouterr()
    main([input_path(a, tmp_path) if a.endswith(".json") else a for a in argv] + ["--json"])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("block, grow, witness", [
    ("surjection", "cols", ["surjection-shape", [2, 5]]),
    ("map", "rows", ["map-shape", [3, 2]]),
])
def test_lift_problem_maps_of_the_wrong_shape(block, grow, witness, tmp_path, capsys):
    # check reports the shape; lift rejects it before lifting (an extra
    # surjection column used to end in an IndexError)
    doc = load("lift-split.json")
    doc[block][grow] += 1
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["check", str(path)])
    assert code == 1 and report["witnesses"]["violations"] == [witness]
    code, report = run_json(capsys, ["lift", str(path)])
    assert code == 2 and report["error"].startswith("not a lift problem")


def double_map_at_g(doc):
    """psi(g) = 2g: still colinear, but psi(g) psi(g) = 4 != psi(g g)."""
    doc["map"]["entries"][1][-1] = 2
    return doc


def trivialize_domain_coaction(doc):
    """rho_C(c) = c (x) 1, so the unchanged surjection C -> D, which sends
    1 (x) g to g, is an algebra map that is not colinear.  (For the bundled
    coactions every surjective algebra map C -> D is colinear.)"""
    dh = len(doc["domain"]["hopf"]["basis"])
    doc["domain"]["coaction"]["entries"] = [[i * dh, i, 1] for i in range(4)]
    return doc


@pytest.mark.parametrize("edit, message", [
    (double_map_at_g,
     "map H -> A is not a comodule algebra map: ('multiplicative', (1, 1))"),
    (trivialize_domain_coaction,
     "map C -> D is not a comodule algebra map: ('colinear', (1,))"),
], ids=["map-not-multiplicative", "surjection-not-colinear"])
def test_lift_rejects_maps_that_are_not_comodule_algebra_maps(edit, message, tmp_path, capsys):
    # bad input, so exit 2 with the first witness, in these exact words
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(edit(load("lift-split.json"))))
    capsys.readouterr()
    assert main(["lift", str(path)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: %s\n" % message)
    code, report = run_json(capsys, ["lift", str(path)])
    assert code == 2 and report["error"] == message


def relabel_lift_target_hopf(doc):
    """The target's H = k[Z/2] on the basis (g, 1): its tables, the target's
    coaction and the map psi : H -> D read in that basis, so that the target
    is a valid comodule algebra and psi a comodule algebra map over it."""
    swap = (1, 0)
    hopf = doc["target"]["hopf"]
    hopf["basis"] = hopf["basis"][::-1]
    for key in ("product", "coproduct"):
        hopf[key] = sorted([swap[i], swap[j], swap[k]] + c for i, j, k, *c in hopf[key])
    for key in ("unit", "counit"):
        hopf[key] = sorted([swap[i]] + c for i, *c in hopf[key])
    hopf["antipode"]["entries"] = sorted([swap[i], swap[j]] + c
                                         for i, j, *c in hopf["antipode"]["entries"])
    # the coaction's row index is ti(x, t, 2) = 2 x + t
    coaction = doc["target"]["coaction"]
    coaction["entries"] = sorted([r - r % 2 + swap[r % 2], j] + c
                                 for r, j, *c in coaction["entries"])
    doc["map"]["entries"] = sorted([i, swap[j]] + c for i, j, *c in doc["map"]["entries"])
    return doc


def lift_target_over_kz3(doc):
    """The target D = k[Z/3] with the coaction Delta, and a surjection and a
    map of D's shape."""
    h = group_algebra_block(3)
    doc["target"] = {key: h[key] for key in ("format_version", "field", "basis", "product",
                                              "unit")}
    doc["target"].update(kind="comodule-algebra", hopf=h,
                         coaction={"rows": 9, "cols": 3,
                                   "entries": [[4 * i, i, 1] for i in range(3)]})
    doc["surjection"] = {"rows": 3, "cols": 4, "entries": [[0, 0, 1], [1, 1, 1]]}
    doc["map"] = {"rows": 3, "cols": 3, "entries": identity_entries(3)}
    return doc


@pytest.mark.parametrize("edit", [lift_target_over_kz3, relabel_lift_target_hopf],
                         ids=["dimension", "relabelled"])
def test_a_lift_problem_is_over_one_hopf_algebra(edit, tmp_path, capsys):
    # each block is valid on its own, but the target is over another H (of
    # another dimension, or the same H on another basis), which lift would
    # read against the domain's indices: exit 2, naming the blocks
    doc = edit(load("lift-split.json"))
    assert parse_presentation(doc["target"]).kind == "comodule-algebra"
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(doc))
    message = "the 'domain' and 'target' blocks of a lift-problem are over different Hopf algebras"
    for command in ("check", "lift"):
        code, report = run_json(capsys, [command, str(path)])
        assert code == 2 and report["error"] == message, command


NESTED_BLOCKS = [
    ("f3z3-cleft.json", ("hopf",), "comodule-algebra"),
    ("smash-example.json", ("hopf",), "comodule-coalgebra"),
    ("lift-split.json", ("domain",), "lift-problem"),
    ("lift-split.json", ("target",), "lift-problem"),
    ("lift-split.json", ("domain", "hopf"), "comodule-algebra"),
    ("lift-split.json", ("target", "hopf"), "comodule-algebra"),
    ("f3z3-crossed.json", ("hopf",), "crossed-system"),
    ("f3z3-crossed.json", ("base",), "crossed-system"),
    ("f3z3-hmodule.json", ("hopf",), "hmodule"),
    ("f3z3-hmodule.json", ("base",), "hmodule"),
]


@pytest.mark.parametrize("document, block, names", [
    ({"kind": "Fp", "p": 5}, {"kind": "Q"}, ("Q", "F5")),
    ({"kind": "Q"}, {"kind": "Fp", "p": 5}, ("F5", "Q")),
], ids=["block-over-Q", "block-over-F5"])
@pytest.mark.parametrize("name, path, kind", NESTED_BLOCKS,
                         ids=["%s:%s" % (n, ".".join(p)) for n, p, _ in NESTED_BLOCKS])
def test_a_nested_block_is_over_the_documents_field(name, path, kind, document, block, names,
                                                     monkeypatch, tmp_path, capsys):
    # a nested block's tables are read over the document's field, so one
    # over another field exits 2, naming the block, before any table is
    # read (over F5 a lift map entry 6 would read as 1); a hopf or base
    # block with no field key is read over the document's
    read = []
    real = hopfcross.cli._table_from_json
    monkeypatch.setattr(hopfcross.cli, "_table_from_json",
                        lambda *args: read.append(args) or real(*args))
    doc = part = swap_field(load(name), document)
    for key in path:
        part = part[key]
    part["field"] = block
    (tmp_path / "nested.json").write_text(json.dumps(doc))
    code, report = run_json(capsys, ["check", str(tmp_path / "nested.json")])
    assert code == 2 and read == []
    assert report["error"] == ("the %r block of a %s is over %s, the document over %s"
                               % ((path[-1], kind) + names))
    if kind != "lift-problem":  # a lift problem's parts are documents with a field
        del part["field"]
        assert parse_presentation(doc) and read


def test_a_graded_algebra_with_a_non_associative_group_table_exits_2(capsys, tmp_path):
    # identity 0 and unique inverses, but (1 * 2) * 1 = 1 != 0 = 1 * (2 * 1)
    doc = {**load("kx2-graded.json"), "group": {"elements": ["e", "a", "b"],
                                                "table": [[0, 1, 2], [1, 0, 2], [2, 1, 0]]}}
    (tmp_path / "loop.json").write_text(json.dumps(doc))
    code, report = run_json(capsys, ["check", str(tmp_path / "loop.json")])
    assert (code, report["error"]) == (2, "group table is invalid: associativity fails at "
                                          "(1, 2, 1)")


def test_a_lift_problem_parses_and_checks_its_hopf_algebra_once(monkeypatch):
    checked = []
    real = hopfcross.cli.check_axioms

    def spy(kind, obj):
        checked.append(kind)
        return real(kind, obj)

    monkeypatch.setattr(hopfcross.cli, "check_axioms", spy)
    c, d, _, _ = parse_presentation(corpus("lift-split.json")).payload
    assert c.hopf is d.hopf and checked.count("hopf") == 1


def claim_3000_square(doc, path):
    """doc with the matrix block at path (a list of keys) claiming to be
    3000 x 3000, its entries unchanged."""
    block = doc
    for key in path:
        block = block[key]
    block.update(rows=3000, cols=3000)
    return doc


def append_coaction_entry(doc):
    doc["coaction"]["entries"].append([3000, 0, 1])


def malformed_augmentation(doc):
    doc["augmentation"] = "bad"


@pytest.mark.parametrize("name, path, edit, error", [
    ("f3z3-cleft.json", ["coaction"], None, "coaction matrix shape mismatch"),
    ("f3z3-cleft.json", ["hopf", "antipode"], None, "antipode matrix shape mismatch"),
    ("ks3.json", ["antipode"], None, "antipode matrix shape mismatch"),
    ("f3z3-crossed.json", ["measuring"], None, "measuring matrix shape mismatch"),
    ("f3z3-crossed.json", ["sigma_inv"], None, "sigma matrix shape mismatch"),
    ("f3z3-hmodule.json", ["action"], None, "action matrix shape mismatch"),
    ("f3z3-hmodule.json", ["cochain"], None, "cochain must be a 1 x 9 matrix"),
    ("smash-example.json", ["coaction"], None, "coaction matrix shape mismatch"),
    ("lift-split.json", ["target", "coaction"], None, "coaction matrix shape mismatch"),
    # an input error met first while parsing still comes first: in the
    # claimed matrix's own entries, and in a block parsed after it
    ("f3z3-cleft.json", ["coaction"], append_coaction_entry,
     "index 3000 is not an int in range(3000) in coaction"),
    ("f3z3-cleft.json", ["coaction"], malformed_augmentation,
     "augmentation must be a list of [index, ..., scalar] lists"),
    # the shape of a lift problem's map is a witness of check
    ("lift-split.json", ["surjection"], None, None),
])
def test_a_matrix_block_allocates_nothing_for_a_shape_it_does_not_have(name, path, edit, error,
                                                                        tmp_path, capsys):
    # a 3000 x 3000 claim in a file of a few KB: rows of that shape would
    # take over 70 MB before the shape check
    doc = claim_3000_square(load(name), path)
    if edit is not None:
        edit(doc)
    tracemalloc.start()
    try:
        with pytest.raises(HopfcrossError) as e:
            parse_presentation(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    file = tmp_path / name
    file.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["check", str(file)])
    if error is None:
        assert code == 1 and report["witnesses"]["violations"] == [["surjection-shape",
                                                                     [3000, 3000]]]
    else:
        assert str(e.value) == error and (code, report["error"]) == (2, error)


def test_coinvariants_rejects_an_invalid_coaction(tmp_path, capsys):
    code, report = run_json(capsys, ["coinvariants",
                                     input_path("f3z3-cleft-bad-coaction.json", tmp_path)])
    assert code == 2
    assert report["error"].startswith("not a comodule algebra")


def set_antipode(doc, path, entries):
    """doc with the antipode of the hopf block at path (a list of keys)
    replaced by the matrix of the given [i, j, scalar] entries."""
    block = doc
    for key in path:
        block = block[key]
    block["antipode"]["entries"] = entries
    return doc


IDENTITY_3 = [[0, 0, 1], [1, 1, 1], [2, 2, 1]]


@pytest.mark.parametrize("name, path, entries, commands", [
    # S = id is not the antipode of F3[Z/3]
    ("f3z3-cleft.json", ["hopf"], IDENTITY_3,
     ["coinvariants", "galois", "find-section", "recognize-cleft", "classify-cleft", "split"]),
    ("f3z3-crossed.json", ["hopf"], IDENTITY_3, ["crossed-product"]),
    ("f3z3-hmodule.json", ["hopf"], IDENTITY_3, ["hh2"]),
    # over k[Z/2] S = id is right, S = 0 is not
    ("smash-example.json", ["hopf"], [], ["smash-coproduct"]),
    ("lift-split.json", ["domain", "hopf"], [], ["lift"]),
    ("lift-split.json", ["target", "hopf"], [], ["lift"]),
], ids=["comodule-algebra", "crossed-system", "hmodule", "comodule-coalgebra",
        "lift-domain", "lift-target"])
def test_a_nested_hopf_block_is_checked(name, path, entries, commands, tmp_path, capsys):
    file = tmp_path / name
    file.write_text(json.dumps(set_antipode(load(name), path, entries)))
    prefix = "-".join(path) + "-antipode-"  # hopf-..., or domain-hopf-... in a lift problem
    code, report = run_json(capsys, ["check", str(file)])
    assert code == 1 and report["verdict"] == "fail"
    names = [v[0] for v in report["witnesses"]["violations"]]
    assert names and all(n.startswith(prefix) for n in names)
    for command in commands:
        capsys.readouterr()
        assert main([command, str(file)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: not a ")
        assert prefix in out.err and out.err.count("\n") == 1  # no traceback


def test_a_malformed_file_exits_2_before_its_hopf_block_is_checked(tmp_path, capsys):
    doc = set_antipode(load("f3z3-cleft.json"), ["hopf"], IDENTITY_3)
    doc["coaction"]["rows"] += 1
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: coaction matrix shape mismatch\n"


# B = span(1, a, b) with a a = b, b a = a and a b = b b = 0 is not
# associative: (a a) a = a but a (a a) = 0.  Each reproducer embeds B where
# no other law reads its associativity.

def unital_rows(dim):
    """The products by 1 = e_0 on a basis of dim elements, as file entries."""
    return [[0, 0, 0, 1]] + [entry for j in range(1, dim) for entry in ([0, j, j, 1], [j, 0, j, 1])]


def nonassociative_algebra(extra=()):
    """B, or B + span(extra) with every product of an extra element by a
    non-unit zero, as an algebra block over Q."""
    basis = ["1", "a", "b"] + list(extra)
    return {"format_version": 1, "kind": "algebra", "field": {"kind": "Q"}, "basis": basis,
            "product": unital_rows(len(basis)) + [[1, 1, 2, 1], [2, 1, 1, 1]],
            "unit": [[0, 1]]}


def identity_entries(dim):
    return [[i, i, 1] for i in range(dim)]


def group_algebra_block(n):
    """k[Z/n] over Q as a hopf block, g_i g_j = g_{i+j}."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return {"format_version": 1, "kind": "hopf", "field": {"kind": "Q"},
            "basis": ["g%d" % i for i in range(n)],
            "product": [[i, j, (i + j) % n, 1] for i, j in pairs],
            "unit": [[0, 1]], "coproduct": [[i, i, i, 1] for i in range(n)],
            "counit": [[i, 1] for i in range(n)],
            "antipode": {"rows": n, "cols": n, "entries": [[-i % n, i, 1] for i in range(n)]}}


def nonassociative_graded():
    """B + kx over Z/2, with x of degree g and x x = 0."""
    doc = nonassociative_algebra(["x"])
    doc.update(kind="graded-algebra", degree=[0, 0, 0, 1],
               group={"elements": ["1", "g"], "table": [[0, 1], [1, 0]]})
    return doc


def nonassociative_comodule_algebra():
    """The graded reproducer as a k[Z/2]-comodule algebra, rho(e_i) =
    e_i (x) g^deg(i), with the augmentation that kills a, b and x."""
    doc = nonassociative_algebra(["x"])
    doc.update(kind="comodule-algebra", hopf=group_algebra_block(2), augmentation=[[0, 1]],
               coaction={"rows": 8, "cols": 4,
                         "entries": [[2 * i + deg, i, 1] for i, deg in enumerate((0, 0, 0, 1))]})
    return doc


def nonassociative_base(kind):
    """B as the base of a crossed system over k = k[Z/1] that measures by
    the identity with sigma = sigma^-1 = 1, or of a k-module algebra with
    eps(a) = eps(b) = 0 and the trivial action on B^+."""
    doc = {"format_version": 1, "kind": kind, "field": {"kind": "Q"},
           "hopf": group_algebra_block(1), "base": nonassociative_algebra()}
    if kind == "crossed-system":
        one = {"rows": 3, "cols": 1, "entries": [[0, 0, 1]]}
        doc.update(measuring={"rows": 3, "cols": 3, "entries": identity_entries(3)},
                   sigma=one, sigma_inv=one)
    else:
        doc.update(augmentation=[[0, 1]],
                   action={"rows": 2, "cols": 2, "entries": identity_entries(2)})
    return doc


def nonassociative_lift_problem():
    """The comodule-algebra reproducer as both the domain and the target of
    a lift problem along the identity, with psi : g^i -> x^i, which is not an
    algebra map (x x = 0) and which lift checks only once the file parsed."""
    part = nonassociative_comodule_algebra()
    return {"format_version": 1, "kind": "lift-problem", "field": {"kind": "Q"},
            "domain": part, "target": copy.deepcopy(part),
            "surjection": {"rows": 4, "cols": 4, "entries": identity_entries(4)},
            "map": {"rows": 4, "cols": 2, "entries": [[0, 0, 1], [3, 1, 1]]}}


@pytest.mark.parametrize("make, prefixes, commands", [
    (nonassociative_graded, ["algebra-"],
     ["coinvariants", "galois", "strongly-graded", "recognize-crossed", "find-section",
      "recognize-cleft"]),
    (nonassociative_comodule_algebra, ["algebra-"],
     ["coinvariants", "galois", "find-section", "recognize-cleft", "classify-cleft", "split"]),
    (lambda: nonassociative_base("crossed-system"), ["base-"], ["crossed-product"]),
    (lambda: nonassociative_base("hmodule"), ["base-"], ["hh2"]),
    (nonassociative_lift_problem, ["domain-algebra-", "target-algebra-"], ["lift"]),
], ids=["graded-algebra", "comodule-algebra", "crossed-system", "hmodule", "lift-problem"])
def test_an_algebra_block_is_checked(make, prefixes, commands, tmp_path, capsys):
    path = tmp_path / "nonassociative.json"
    path.write_text(json.dumps(make()))
    code, report = run_json(capsys, ["check", str(path)])
    assert code == 1 and report["verdict"] == "fail"
    names = [v[0] for v in report["witnesses"]["violations"]]
    for prefix in prefixes:
        assert prefix + "associativity" in names
    assert all(n.startswith(tuple(prefixes)) for n in names)
    for command in commands:
        capsys.readouterr()
        assert main([command, str(path)]) == 2, command
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: not a")
        assert prefixes[0] + "associativity" in out.err and out.err.count("\n") == 1


def test_the_algebra_block_check_reports_what_check_axioms_reports(tmp_path):
    # the block check names check_axioms' own witnesses, in its order and cap
    doc = nonassociative_comodule_algebra()
    with pytest.raises(ValidationError) as e:
        parse_presentation(doc)
    alg = parse_presentation(nonassociative_algebra(["x"])).payload
    expected = hopfcross.algebra.check_axioms("algebra", alg).violations
    assert expected and e.value.violations == [("algebra-" + n, w) for n, w in expected]


def test_an_augmentation_block_is_checked_to_be_an_algebra_map(tmp_path, capsys):
    # eps = (1, 2, 2, 0, 0, 0) on F3[x]/(x^2) #_sigma F3[Z/3] sends 1 to 1
    # but g1 g1 = g2 to 2, not to 2 * 2 = 1
    doc = load("f3z3-cleft.json")
    doc["augmentation"] = [[0, 1], [1, 2], [2, 2]]
    path = tmp_path / "bad-augmentation.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["check", str(path)])
    assert code == 1 and report["verdict"] == "fail"
    names = [v[0] for v in report["witnesses"]["violations"]]
    assert "augmentation-multiplicative" in names
    assert all(n.startswith("augmentation-") for n in names)
    for command in ("classify-cleft", "split", "coinvariants", "find-section"):
        capsys.readouterr()
        assert main([command, str(path)]) == 2, command
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: not an augmentation: ")
        assert "augmentation-multiplicative" in out.err and out.err.count("\n") == 1
    # eps(1) = 0 fails the unit law first
    doc["augmentation"] = [[1, 1]]
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["check", str(path)])
    assert code == 1 and report["witnesses"]["violations"][0] == ["augmentation-unit", []]


def test_every_graded_command_words_a_bad_grading_alike(tmp_path, capsys):
    # e12 e21 = e11 leaves the components once e12 has degree 1 and e21 degree g
    doc = load("m2-z2-graded.json")
    doc["degree"] = [0, 0, 0, 1]
    path = tmp_path / "bad-grading.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["check", str(path)])
    assert code == 1 and report["verdict"] == "fail"
    message = "input is not a graded algebra: %r" % (
        hopfcross.graded.check_grading(parse_presentation(str(path)).payload),)
    for command in ("coinvariants", "galois", "strongly-graded", "recognize-crossed",
                    "find-section", "recognize-cleft"):
        capsys.readouterr()
        assert main([command, str(path)]) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)


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
    (["recognize-crossed", "m2-z2-graded.json"], hopfcross.comodule,
     "check_crossed_system", 1),
    (["super-decompose", "lambda3.json"], SuperPresentation, "check_super_axioms", 2),
    (["crossed-product", "f3z3-crossed.json"], hopfcross.comodule, "check_crossed_system", 1),
    # the constructor checks each parsed comodule algebra; a derived one is
    # certified by the map its deriving call checks instead: the crossed
    # product B x|_sigma H by alpha : B x| H -> A, super-decompose's A by
    # alpha : A -> Lambda(W) (x) H, and a subcomodule subalgebra (a pull-back,
    # A_0) by its valid ambient; or by a theorem, as lift's quotients C/J^e
    # (of which lift-split builds none).
    # A row whose count moved keeps its id, which names the count first
    # pinned there
    pytest.param(["recognize-cleft", "f3z3-cleft.json"], ComoduleAlgebra, "validate", 1,
                 id="argv7-ComoduleAlgebra-validate-2"),
    pytest.param(["classify-cleft", "f3z3-cleft.json"], ComoduleAlgebra, "validate", 1,
                 id="argv8-ComoduleAlgebra-validate-2"),
    pytest.param(["split", "f3z3-cleft.json"], ComoduleAlgebra, "validate", 1,
                 id="argv9-ComoduleAlgebra-validate-2"),
    pytest.param(["lift", "lift-split.json"], ComoduleAlgebra, "validate", 2,
                 id="argv10-ComoduleAlgebra-validate-4"),
    pytest.param(["super-decompose", "lambda3.json"], ComoduleAlgebra, "validate", 0,
                 id="argv11-ComoduleAlgebra-validate-2"),
    (["coinvariants", "f3z3-cleft.json"], ComoduleAlgebra, "validate", 1),
    # B of the input, computed once on it; alpha certifies that B (x) k1 is
    # the B of the crossed product, which is not computed
    pytest.param(["classify-cleft", "f3z3-cleft.json"], hopfcross.comodule, "coinvariants", 1,
                 id="argv13-hopfcross.comodule-coinvariants-2"),
    pytest.param(["split", "f3z3-cleft.json"], hopfcross.comodule, "coinvariants", 1,
                 id="argv14-hopfcross.comodule-coinvariants-2"),
    # recognize-cleft: B of the input, read again by the Galois map;
    # super-decompose: none, since alpha maps B onto Lambda(W) (x) 1
    pytest.param(["recognize-cleft", "f3z3-cleft.json"], hopfcross.comodule, "coinvariants", 1,
                 id="argv15-hopfcross.comodule-coinvariants-2"),
    pytest.param(["super-decompose", "lambda3.json"], hopfcross.comodule, "coinvariants", 0,
                 id="argv16-hopfcross.comodule-coinvariants-1"),
    # the colinear maps H -> A are spanned once, by the section search
    (["find-section", "f3z3-cleft.json"], hopfcross.comodule, "colinear_map_space", 1),
    (["recognize-cleft", "f3z3-cleft.json"], hopfcross.comodule, "colinear_map_space", 1),
    (["recognize-cleft", "m2-z2-graded.json"], hopfcross.comodule, "colinear_map_space", 1),
    (["classify-cleft", "f3z3-cleft.json"], hopfcross.comodule, "colinear_map_space", 1),
    (["split", "f3z3-cleft.json"], hopfcross.comodule, "colinear_map_space", 1),
    (["lift", "lift-split.json"], hopfcross.comodule, "colinear_map_space", 0),
    (["galois", "f3z3-cleft.json"], hopfcross.comodule, "colinear_map_space", 0),
    (["super-decompose", "lambda3.json"], hopfcross.comodule, "colinear_map_space", 0),
    # recognize-crossed certifies A as a k[Gamma]-comodule algebra by its
    # grading, which check_grading decides; alpha certifies the crossed
    # product B #_sigma k[Gamma]
    pytest.param(["recognize-crossed", "m2-z2-graded.json"], ComoduleAlgebra, "validate", 0,
                 id="argv25-ComoduleAlgebra-validate-2"),
    # cleft implies Galois (Doi-Takeuchi), so a positive recognize-cleft
    # reports galois_bijective from its verified section and builds no Galois
    # map; a negative one reads it as its witness
    pytest.param(["recognize-cleft", "f3z3-cleft.json"], hopfcross.comodule, "galois_map", 0,
                 id="argv26-hopfcross.comodule-galois_map-1"),
    pytest.param(["recognize-cleft", "m2-z2-graded.json"], hopfcross.comodule, "galois_map", 0,
                 id="argv27-hopfcross.comodule-galois_map-1"),
    # the antipode laws id * S = eta eps = S * id are checked by
    # convolution_invert alone
    (["antipode", "ks3.json"], hopfcross.algebra, "_convolution_failures", 1),
    # a strong grading is re-checked through one Galois map, with or
    # without --certify; a negative verdict builds none (last row)
    (["strongly-graded", "m2-z2-graded.json"], hopfcross.comodule, "galois_map", 1),
    # the grading is checked once, by check_grading, which certifies the
    # comodule algebra built from it
    pytest.param(["strongly-graded", "m2-z2-graded.json"], hopfcross.graded, "check_grading", 1,
                 id="argv30-hopfcross.graded-check_grading-0"),
    # lift checks psi and the returned lift H -> C once, here unless the last
    # pull-back is all of C, whose splitting split_extension certifies:
    # lift-split's one step (see also the algebra_map_violations row)
    pytest.param(["lift", "lift-split.json"], hopfcross.cohomology,
                 "_check_comodule_algebra_map", 1,
                 id="argv31-hopfcross.cohomology-_check_comodule_algebra_map-2"),
    # ... and so is recognize-crossed's
    pytest.param(["recognize-crossed", "m2-z2-graded.json"], hopfcross.graded, "check_grading", 1,
                 id="argv32-hopfcross.graded-check_grading-0"),
    (["strongly-graded", "kx2-graded.json"], hopfcross.comodule, "galois_map", 0),
    # B of a graded input is read off its grading, and alpha certifies the
    # B of the crossed product: recognize-cleft eliminates for neither
    (["galois", "m2-z2-graded.json"], hopfcross.comodule, "coinvariants", 0),
    pytest.param(["recognize-cleft", "m2-z2-graded.json"], hopfcross.comodule, "coinvariants", 0,
                 id="argv35-hopfcross.comodule-coinvariants-1"),
    # a section's inverse is solved for once: the normalized section and the
    # re-augmented one take theirs in closed form from phi^-1
    (["find-section", "f3z3-cleft.json"], hopfcross.algebra, "convolution_invert", 1),
    (["classify-cleft", "f3z3-cleft.json"], hopfcross.algebra, "convolution_invert", 1),
    (["split", "f3z3-cleft.json"], hopfcross.algebra, "convolution_invert", 1),
    (["lift", "lift-split.json"], hopfcross.algebra, "convolution_invert", 1),
    # ... and the two solved pairs (phi, phi^-1) pass the two-sided identity:
    # the section's and its normalization's; the re-augmented pair is
    # certified by theorem
    pytest.param(["classify-cleft", "f3z3-cleft.json"], hopfcross.algebra,
                 "require_convolution_inverse", 2,
                 id="argv40-hopfcross.algebra-require_convolution_inverse-3"),
    # lift-split's one step pulls back the whole of C, which is not rebuilt
    (["lift", "lift-split.json"], hopfcross.cohomology, "sub_comodule_algebra", 0),
    # ... nor is the splitting of that stage checked again after
    # split_extension certified it, nor the crossed product's coaction
    # after alpha certified it
    pytest.param(["lift", "lift-split.json"], hopfcross.algebra, "algebra_map_violations", 7,
                 id="argv42-hopfcross.algebra-algebra_map_violations-11"),
    # Lambda(4) is certified by its super tensor structure over Lambda(1),
    # the one structure the super axiom check runs on
    (["pairing", "--n", "4"], SuperPresentation, "check_super_axioms", 1),
    # the negative path of lift checks what lift-split's does up to its
    # obstruction at the one step: the parsed C and D, psi and varpi, the
    # pull-back's section and its normalization, and no lift
    (["lift", "lift-obstructed.json"], ComoduleAlgebra, "validate", 2),
    (["lift", "lift-obstructed.json"], hopfcross.cohomology, "_check_comodule_algebra_map", 1),
    (["lift", "lift-obstructed.json"], hopfcross.algebra, "algebra_map_violations", 6),
    (["lift", "lift-obstructed.json"], hopfcross.algebra, "require_convolution_inverse", 2),
])
def test_each_result_is_verified_once(argv, owner, name, expected, monkeypatch):
    calls = count_calls(monkeypatch, owner, name)
    # the class of f3z3-cleft.json is nonzero, so split reports the
    # obstruction; kx2-graded.json is not strongly graded
    negative = (argv[0] == "split" or argv[:2] == ["strongly-graded", "kx2-graded.json"]
                or argv[:2] == ["lift", "lift-obstructed.json"])
    argv = [corpus(a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == (1 if negative else 0)
    assert len(calls) == expected


SRC = os.path.dirname(os.path.abspath(hopfcross.__file__))
STRUCTURE_CLASSES = (FAlgebra, FCoalgebra, FBialgebra, FHopf)


def test_no_structure_is_converted_from_field_scalars(monkeypatch, capsys):
    # the public constructors take field-scalar tables and convert them; the
    # parser and every structure derived inside the package enter on native
    # tables, so over every command on every corpus file none of them runs
    # from a caller in src/hopfcross (156 did while the tables were field
    # scalars: 78 in the parser and 78 in the builders)
    converted = {}

    def spy(cls):
        init = cls.__init__

        def counted(self, *args):
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):  # a comprehension in the caller
                caller = caller.f_back
            if type(self) is cls and os.path.abspath(caller.f_code.co_filename).startswith(SRC):
                name = caller.f_code.co_name
                converted[name] = converted.get(name, 0) + 1
            init(self, *args)

        return counted

    for cls in STRUCTURE_CLASSES:
        monkeypatch.setattr(cls, "__init__", spy(cls))
    for command in COMMANDS:
        if command != "pairing":
            for name in ALL_CORPUS:
                main([command, corpus(name)])
    capsys.readouterr()
    assert converted == {}


def reached(obj, seen=None):
    """obj and every object it reaches through dicts, lists, tuples and
    the attributes of objects, each once; a field and what it holds (its
    own zero and one) aside."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (PrimeField, Rationals)):
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, dict):
        parts = list(obj) + list(obj.values())
    elif isinstance(obj, (list, tuple)):
        parts = obj
    elif hasattr(obj, "__dict__"):
        parts = vars(obj).values()
    else:
        parts = [getattr(obj, name, None) for name in getattr(obj, "__slots__", ())]
    for x in parts:
        yield from reached(x, seen)


def field_scalars(obj):
    return sum(isinstance(x, FpElement) for x in reached(obj))


def rebuilt(s):
    """s through its public constructor, from its field-scalar views."""
    tables = ((s.product, s.unit) if isinstance(s, (FAlgebra, FBialgebra)) else ()) + (
        (s.coproduct, s.counit) if isinstance(s, (FCoalgebra, FBialgebra)) else ())
    tables += (s.antipode,) if isinstance(s, FHopf) else ()
    return type(s)(s.field, s.basis, *tables)


def swap_field(doc, field):
    """doc, and every presentation nested in it at any depth, over field."""
    doc = copy.deepcopy(doc)
    doc["field"] = field
    for key, part in doc.items():
        if isinstance(part, dict) and "field" in part:
            doc[key] = swap_field(part, field)
    return doc


def parsed_structures():
    """(what, structure) for the structures of every corpus file as parsed,
    over its own field and, where the file still parses, over the other
    one, and of a Hopf corpus file read as a bare algebra and coalgebra."""
    docs = []
    for name in ALL_CORPUS:
        doc = load(name)
        other = {"kind": "Q"} if doc["field"]["kind"] == "Fp" else {"kind": "Fp", "p": 5}
        docs += [(name, doc), (name + " over " + other["kind"], swap_field(doc, other))]
    for name in ("kz2.json", "kz3-f3.json"):
        docs += [(name + " as " + kind, {**load(name), "kind": kind})
                 for kind in ("algebra", "coalgebra")]
    for what, doc in docs:
        try:
            payload = parse_presentation(doc).payload
        except HopfcrossError:
            continue  # the laws of a swapped file fail over the other field
        yield from ((what, s) for s in reached(payload) if isinstance(s, STRUCTURE_CLASSES))


def derived_structures(field):
    """(what, structure or table) for every builder that derives one, over
    field."""
    h = group_hopf_algebra(GroupTable.cyclic(3), field)
    yield "group_hopf_algebra", h
    yield "dual_structure", dual_structure(h)
    rows = [{i: 1 if field.characteristic else field.one} for i in range(h.dim)]
    yield "induced_algebra", induced_algebra(h, rows, dict, h.basis)
    yield "induced_coproduct", induced_coproduct(h, rows, dict)
    ext = ExteriorHopf(2, field)
    yield "ExteriorHopf", ext.hopf
    sp = super_tensor_product(ext.presentation, SuperPresentation(h, (0, 0, 0)))
    yield "super_tensor_product", sp.hopf
    yield "even_quotient", even_quotient(sp)[0]
    _, _, aug, act = trivial_setup(field)
    s = differential(cochain1(field, [field.zero, field.one, field.one]), act)
    yield "_crossed_product", crossed_product(crossed_system_from_cocycle(act, s)).algebra
    data = parse_presentation(swap_field(load("smash-example.json"), _field_to_json(field)))
    yield "smash_coproduct", smash_coproduct(data.payload).coalgebra
    grounds = []  # the ground field k that an augmentation maps into
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hopfcross.cohomology, "algebra_map_violations",
                   lambda a, dst, *rest: grounds.append(dst))
        augmentation_violations(h, h.native_counit)
    yield "augmentation_violations", grounds[0]


def test_a_structure_stores_its_constants_once_as_native_tables():
    # the parser and every builder keep a structure's constants as native
    # tables only; the field-scalar tables are views, derived on their
    # first read, and the public constructor rebuilds the structure from them
    seen = set()
    for what, s in chain(parsed_structures(), derived_structures(Rationals()),
                         derived_structures(PrimeField(5))):
        assert field_scalars(s) == 0, what
        if not isinstance(s, STRUCTURE_CLASSES):  # induced_coproduct's table
            continue
        assert not {"product", "unit", "coproduct", "counit"} & set(vars(s)), what
        assert rebuilt(s).canonical_constants() == s.canonical_constants(), what
        if s.field.characteristic and s.dim:
            assert field_scalars(s), what  # now the views hold them
        seen.add((type(s), bool(s.field.characteristic)))
    assert seen == {(cls, fp) for cls in STRUCTURE_CLASSES for fp in (False, True)}


def bump_product_constant(algebra, hopf, coaction):
    """The crossed product with e_0 e_0 = 2 e_0 in place of e_0: 1 (x) 1
    squares to 2 (1 (x) 1)."""
    f = algebra.field
    product = dict(algebra.product)
    product[0, 0] = {k: c + c for k, c in product[0, 0].items()}
    return FAlgebra(f, algebra.basis, product, algebra.unit), hopf, coaction


def bump_coaction_constant(algebra, hopf, coaction):
    """The coaction with the nonzero entry in column 1 of its first nonzero
    row doubled."""
    rows = [dict(row) for row in coaction._native_rows()]
    row = next(r for r in rows if 1 in r)
    row[1] = 2 * row[1]
    if algebra.field.characteristic:
        row[1] %= algebra.field.characteristic
    return algebra, hopf, Matrix.from_sparse_rows(algebra.field, rows, coaction.cols)


@pytest.mark.parametrize("corrupt", [bump_product_constant, bump_coaction_constant],
                         ids=["product", "coaction"])
def test_alpha_catches_a_broken_crossed_product(corrupt, monkeypatch, capsys):
    # the B x|_sigma H that section_to_crossed_system builds is not checked
    # on its own: the isomorphism alpha onto A certifies it, and catches one
    # wrong constant of its product or its coaction
    real = hopfcross.comodule._crossed_product

    def corrupted(system, build):
        return real(system, lambda *tables: build(*corrupt(*tables)))

    monkeypatch.setattr(hopfcross.comodule, "_crossed_product", corrupted)
    code, report = run_json(capsys, ["classify-cleft", corpus("f3z3-cleft.json")])
    assert code == 2
    assert report["error"].startswith("candidate isomorphism B x|_sigma H -> A: "), report


def test_alpha_catches_a_broken_decomposition_coaction(monkeypatch, capsys):
    # decompose's A with the coaction (id (x) pi) Delta is certified by
    # alpha : A -> Lambda(W) (x) H, checked before anything is derived from A
    class Corrupted(ComoduleAlgebra):
        @classmethod
        def _certified(cls, *tables):
            return ComoduleAlgebra._certified(*bump_coaction_constant(*tables))

    monkeypatch.setattr(hopfcross.superalg, "ComoduleAlgebra", Corrupted)
    code, report = run_json(capsys, ["super-decompose", corpus("lambda3.json")])
    assert code == 2
    assert report["error"].startswith("alpha : A -> Lambda(W) (x) H fails an invariant: ")


def exterior_times(h):
    """Lambda(1) (x) h over Q, h purely even, as a super-hopf document."""
    sp = super_tensor_product(ExteriorHopf(1, Q).presentation,
                              SuperPresentation(h, (0,) * h.dim))
    return encode_super_hopf(sp)


def drop_first_odd(basis):
    """I less the basis row at the first odd index of Lambda(3), v1: the
    Hopf ideal (v2, v3), whose quotient Lambda(1) keeps an odd coordinate."""
    return basis[1:]


def add_three_cycles(basis):
    """I plus the deltas of the two 3-cycles of S3 (basis indices 3 and 4)
    in Lambda(1) (x) k^S3: an ideal in ker eps, stable under S, but not a
    coideal."""
    return basis + [{3: Q.one}, {4: Q.one}]


def add_group_minus_one(basis):
    """I + k(g - 1) + k(g^2 - 1) in Lambda(1) (x) k[Z/3]: the augmentation
    ideal, a Hopf ideal that is not nilpotent."""
    return basis + [{0: -Q.one, 1: Q.one}, {0: -Q.one, 2: Q.one}]


@pytest.mark.parametrize("doc, corrupt, caught_by", [
    (lambda: load("lambda3.json"), drop_first_odd, "even quotient is not a Hopf algebra: "),
    (lambda: exterior_times(dual_structure(group_hopf_algebra(GroupTable.symmetric(3), Q))),
     add_three_cycles, "even quotient is not a Hopf algebra: "),
    (lambda: exterior_times(group_hopf_algebra(GroupTable.cyclic(3), Q)),
     add_group_minus_one, "alpha : A -> Lambda(W) (x) H fails an invariant: ('bijective', ())"),
], ids=["odd-coordinate", "not-a-coideal", "not-nilpotent"])
def test_a_corrupted_even_quotient_ideal_is_caught(doc, corrupt, caught_by, monkeypatch,
                                                   tmp_path, capsys):
    # even_quotient does not check that I = A_1 A is a nilpotent Hopf ideal
    # with no odd quotient coordinate, since a theorem gives each; an ideal
    # corrupted to break one of them (its first echelon basis, in
    # even_quotient) is caught by the Hopf laws of A/I or by alpha
    calls = []

    def corrupted(f, vectors, n):
        calls.append(n)
        basis = row_space_basis(f, vectors, n)
        return row_space_basis(f, corrupt(basis), n) if len(calls) == 1 else basis

    path = tmp_path / "super.json"
    path.write_text(json.dumps(doc()))
    assert run_json(capsys, ["super-decompose", str(path)])[0] == 0
    monkeypatch.setattr(hopfcross.superalg, "row_space_basis", corrupted)
    code, report = run_json(capsys, ["super-decompose", str(path)])
    assert code == 2 and calls
    assert report["error"].startswith(caught_by)


def test_lift_eliminates_each_matrix_once(monkeypatch):
    # solve_linear reads its kernel off the elimination it already made, and
    # each matrix solved for several right-hand sides is eliminated once.
    # convolution_invert eliminates once per component of the coalgebra: 2
    # in its one call over k[Z/2], for phi^-1 of the splitting; the
    # normalized and the re-augmented section take their inverses in closed
    # form, and sigma^-1 is read off phi^-1, not inverted over k[Z/2] (x)
    # k[Z/2].  Coordinates against an echelon basis (the kernel K of a
    # splitting step) are read off its pivots, a pull-back that spans its
    # whole stage is that stage, each step's pull-back of the image of psi
    # and its map onto H come off one elimination of [psi | step map], and
    # a span of zero vectors (the last power of each nilpotent kernel) is
    # not eliminated.  The iso C/J -> D and each step's
    # Hopf-module theorem map K^{co H} (x) H -> K are eliminated once, by
    # the inverse that also proves them bijective; that iso and each step
    # map C/J^{2^i} -> C/J^{2^{i-1}} are read off complement lifts, as is
    # each splitting step's section, with no elimination.  varpi gives its
    # rank and kernel by one elimination, each step's pi its rank, kernel
    # and lambda by one of [pi | 1], every span of nonzero vectors is
    # eliminated once, even when it already is in reduced echelon form, a
    # QuotientSpace takes its RREF basis as it is, the plus basis of B
    # and its coordinates are read off eps, and the coinvariants of the
    # crossed product, which alpha certifies, are not eliminated.  hh2
    # eliminates d2 only stacked on the normalization and never d1: the full
    # complex is a test oracle (test_native_laws.py), not a guard
    calls = count_calls(monkeypatch, Matrix, "rref")
    assert main(["lift", corpus("lift-split.json")]) == 0
    assert len(calls) == 18


@pytest.mark.parametrize("command, name", [
    ("classify-cleft", "f3z3-cleft.json"), ("split", "f3z3-cleft.json"),
    ("hh2", "f3z3-hmodule.json"), ("lift", "lift-split.json"), ("lift", "lift-obstructed.json"),
])
def test_each_command_builds_the_degree_2_differential_once(command, name, monkeypatch):
    # HH2Result.decide tests a cochain against the rows of d2 and of the
    # normalization that hh2 built, and builds neither again
    degrees = []
    real = hopfcross.cohomology._differential_rows
    monkeypatch.setattr(hopfcross.cohomology, "_differential_rows",
                        lambda act, degree: degrees.append(degree) or real(act, degree))
    assert main([command, corpus(name)]) in (0, 1)
    assert degrees.count(2) == 1


def test_super_decompose_eliminates_each_span_once(monkeypatch):
    # nine eliminations: the ideal A_1 A, the odd primitives, the rank of
    # alpha, pi_0 (its rank, kernel and lambda by one, of [pi_0 | 1]), the
    # ideal I = ker pi_0, the splitting step's kernel K and its
    # coinvariants, the Hopf-module theorem map on K (by its inverse) and
    # the one convolution_invert of the splitting.  The quotients by A_1 A
    # and by I and the subalgebra A_0, on the even unit vectors, take their
    # RREF bases as they are, the step lifts each class by its complement
    # index, spans of zero vectors are not eliminated, A_0 and K read
    # coordinates off their pivots, the
    # normalized section takes its inverse in closed form,
    # the duality pairing and its iso, the identity, are neither inverted
    # nor checked (Lambda(W) is certified self-dual), even_quotient builds
    # no power chain of A_1 A, which a theorem makes nilpotent, and neither
    # W = A_1/A_0^+A_1 nor the coinvariants B of A are computed: alpha
    # implies what they were checked for
    calls = count_calls(monkeypatch, Matrix, "rref")
    assert main(["super-decompose", corpus("lambda3.json")]) == 0
    assert len(calls) == 9


def accepts(command, name):
    """Whether command reads the corpus file name: check reads every kind,
    AUGMENTED is a comodule-algebra file with an augmentation block."""
    kinds = hopfcross.cli.COMMANDS[command][1]
    doc = load(name)
    return kinds is None or doc["kind"] in kinds or (
        hopfcross.cli.AUGMENTED in kinds and doc["kind"] == "comodule-algebra"
        and "augmentation" in doc)


@pytest.mark.parametrize("command", [c for c in hopfcross.cli.COMMANDS if c != "pairing"])
def test_the_section_search_derives_no_dense_view(command, monkeypatch):
    # the normal-basis maps are built from sparse products and the search
    # walks their rows, and every other kernel reads sparse native rows too:
    # from parsing to the report no command derives a dense view on any
    # corpus file it reads, nor builds a matrix from dense rows outside the
    # parser, nor converts a dense vector at all: the parser reads every
    # structure's tables, its unit and counit too, as native ones
    derived, built, parsing, converted = [], [], [], []
    data, init, parse = Matrix.data, Matrix.__init__, hopfcross.cli.parse_presentation
    native = hopfcross.linalg._native
    converters = {init.__code__}

    def spy_native(vec, field):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension in the caller
            caller = caller.f_back
        if caller.f_code not in converters:
            converted.append(caller.f_code.co_name)
        return native(vec, field)

    def spy(self):
        if self._data is None:
            derived.append((self.rows, self.cols))
        return data.fget(self)

    def spy_init(self, *args):
        init(self, *args)
        if not parsing:
            built.append((self.rows, self.cols))

    def spy_parse(*args):
        parsing.append(args)
        try:
            return parse(*args)
        finally:
            parsing.pop()

    monkeypatch.setattr(Matrix, "data", property(spy))
    monkeypatch.setattr(Matrix, "__init__", spy_init)
    monkeypatch.setattr(hopfcross.cli, "parse_presentation", spy_parse)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("hopfcross.") and hasattr(module, "_native"):
            monkeypatch.setattr(module, "_native", spy_native)
    names = [name for name in ALL_CORPUS if accepts(command, name)]
    assert names
    for name in names:
        assert main([command, corpus(name)]) in (0, 1)
    assert derived == [] and built == [] and converted == []


def test_super_decompose_lowers_each_product_table_once(monkeypatch):
    # a bialgebra gives one view of itself as an algebra, so the comodule
    # algebra A and the ideal A_1 A of its even quotient read one native
    # lowering of A's products; every table is lowered from its native rows,
    # which the product kernel reads, once per scale the law kernels read
    # it at.  One of the five is Lambda(1)'s, the checked base that Lambda(3)
    # is certified over (see superalg.exterior_hopf); the coinvariants B are
    # not built, and the dual of Lambda(3) is compared with it table for
    # table, not read by a law kernel, so neither table is lowered
    calls = count_calls(monkeypatch, hopfcross.algebra, "_product_rows")
    assert main(["super-decompose", corpus("lambda3.json")]) == 0
    assert len(calls) == 5


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
    ["strongly-graded", corpus("m2-z2-graded.json")],
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
    # a modulus that is not prime, and a negative n, are input errors
    (["pairing", "--n", "2", "--prime", "4"], "p = 4 is not prime"),
    (["pairing", "--n", "2", "--prime", "1"], "p = 1 is not prime"),
    (["pairing", "--n", "2", "--prime", "-7"], "p = -7 is not prime"),
    (["pairing", "--n", "-1"], "Lambda(V) needs dim V = n >= 0, got n = -1"),
    (["pairing", "--n", "0"], False),  # Lambda(0) = k
    # Lambda(n) has dimension 2^n: n above the bound is rejected before it
    # is built, also over F_p and before a bad modulus is read
    (["pairing", "--n", "8"], False),
    (["pairing", "--n", "9"], "pairing takes n <= 8, got n = 9"),
    (["pairing", "--n", "30"], "pairing takes n <= 8, got n = 30"),
    (["pairing", "--n", "9", "--prime", "7"], "pairing takes n <= 8, got n = 9"),
    (["pairing", "--n", "30", "--prime", "4"], "pairing takes n <= 8, got n = 30"),
    # a large modulus is decided at once, and refused from 2^64 on
    (["pairing", "--n", "1", "--prime", "1000000000000000003"], False),
    (["pairing", "--n", "1", "--prime", "18446744073709551557"], False),  # 2^64 - 59
    (["pairing", "--n", "1", "--prime", "18446744073709551616"],
     "p = 18446744073709551616 is too large: a prime modulus must be below 2^64"),
])
def test_argv_handling(argv, rejected, capsys):
    # rejected: True for a usage error (SystemExit), or the message of the
    # error that main reports with exit 2
    argv = [corpus(a) if a.endswith(".json") else a for a in argv]
    if rejected is True:
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
    elif rejected:
        capsys.readouterr()
        assert main(argv + ["--json"]) == 2
        out = capsys.readouterr()
        assert out.err == "error: %s\n" % rejected
        assert json.loads(out.out) == {"command": argv[0], "verdict": "error",
                                       "exit_code": 2, "error": rejected}
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


# ---------------------------------------------------------------------------
# the parser is built once per process


def call(argv):
    """The exit code of main(argv), also when argparse exits by SystemExit."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def test_main_builds_no_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    mixed = [
        ["check", corpus("kz2.json"), "--json"],
        ["pairing", "--n", "2"],
        ["pairing"],
        ["hh2", corpus("kz2.json")],  # a kind rejection: exit 2 without SystemExit
        ["find-section", corpus("f3z3-cleft.json"), "--seed", "x"],
    ]
    codes = [call(mixed[k % len(mixed)]) for k in range(50)]
    assert codes == [0, 0, 2, 2, 2] * 10
    assert built == []


# every rejected argv of test_argv_handling, an unknown command, help, an
# extra positional and a bad int
REJECTED = [
    ["antipode", "kz2.json", "--kind", "hopf"],
    ["antipode", "kz2.json", "--n", "3"],
    ["pairing", "kz2.json", "--n", "3"],
    ["pairing"],
    ["check"],
    ["frobnicate", "kz2.json"],
    ["-h"],
    ["check", "kz2.json", "kz3-f3.json"],
    ["find-section", "f3z3-cleft.json", "--seed", "x"],
]


def with_corpus(argv):
    return [corpus(a) if a.endswith(".json") else a for a in argv]


@pytest.mark.parametrize("argv", REJECTED)
def test_a_repeated_call_gives_the_same_bytes(argv, capsys):
    argv = with_corpus(argv)
    capsys.readouterr()
    first = call(argv), capsys.readouterr()
    again = call(argv), capsys.readouterr()
    assert first[0] == (0 if argv == ["-h"] else 2)
    assert again == first
    assert (first[1].out != "") == (argv == ["-h"])


# the plain reader of main, beside the argparse parser it stands in for

ARGV_TOKENS = list(COMMANDS) + [
    "--json", "--seed", "--budget", "--certify", "--kind", "--n", "--prime",
    # near misses: an abbreviation, the --opt=value form, the end of options,
    # help, a negative number, a hex int, an empty token, an option-like
    # value, a spaced int, and files and values
    "--js", "--cert", "--seed=3", "--", "-h", "-", "-1", "0x1", "", "-x", " 5",
    "kz2.json", "other.json", "3", "07", "hopf",
]


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))
def test_the_plain_reader_agrees_with_argparse(argv):
    args = hopfcross.cli._read_plain(argv)
    if args is not None:
        try:
            expected = hopfcross.cli.PARSER.parse_intermixed_args(argv)
        except SystemExit:
            pytest.fail("argparse rejects %r, which the plain reader accepts" % (argv,))
        assert vars(args) == vars(expected)


def test_a_plain_argv_does_not_reach_argparse(monkeypatch, capsys):
    def refuse(argv):
        raise AssertionError("parse_intermixed_args(%r)" % (argv,))

    monkeypatch.setattr(hopfcross.cli.PARSER, "parse_intermixed_args", refuse)
    capsys.readouterr()
    assert main(["check", corpus("kz2.json"), "--json"]) == 0
    assert main(["hh2", corpus("kz2.json"), "--json"]) == 2  # a kind rejection
    assert main(["pairing", "--n", "2", "--json"]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["verdict"] for r in reports] == ["pass", "error", "pass"]


PAIRING_USAGE_ERROR = """\
usage: hopfcross [-h] [--json] [--seed SEED] [--budget BUDGET] [--certify]
                 [--kind KIND] [--n N] [--prime PRIME]
                 {check,antipode,dual,coinvariants,galois,strongly-graded,\
recognize-crossed,crossed-product,find-section,recognize-cleft,classify-cleft,\
hh2,split,lift,smash-coproduct,super-decompose,pairing}
                 [file]
hopfcross: error: pairing needs --n and takes no file
"""


def test_pairing_without_n_prints_the_usage_block(monkeypatch, capsys):
    # the usage line is laid out when the parser is built, at the terminal
    # width of that moment: pin 80 columns and build it again under them
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(hopfcross.cli, "PARSER", hopfcross.cli.build_parser())
    capsys.readouterr()
    for _ in range(2):
        assert call(["pairing"]) == 2
        assert capsys.readouterr() == ("", PAIRING_USAGE_ERROR)


def parser_state():
    parser = hopfcross.cli.PARSER
    return parser.usage, [(a.dest, a.nargs, a.default, a.required) for a in parser._actions]


def test_a_rejected_call_leaves_nothing_for_the_next(capsys):
    argv = ["check", corpus("kz2.json"), "--json"]
    # the report of the call alone, in a process of its own
    alone = subprocess.run([sys.executable, "-m", "hopfcross.cli"] + argv,
                           capture_output=True, text=True)
    assert alone.returncode == 0, alone.stderr
    state = parser_state()
    for rejected in REJECTED + [["check", "kz2.json", "--kind"], []]:
        call(with_corpus(rejected))
        assert parser_state() == state
        capsys.readouterr()
        assert call(argv) == 0
        assert capsys.readouterr() == (alone.stdout, "")
