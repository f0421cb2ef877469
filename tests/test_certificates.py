"""One table of the checks that left the library because a certificate that
still runs implies them.

Each row names the shortcut and the function that takes it, the theorem
that makes the dropped check redundant and its source, the dropped check
(by the message it raised), one corruption that reached that check before
it was dropped, and the kept certificate that now catches the corruption.
The one test runs every row: the intact input passes, and the corrupted run
exits 2 with the kept certificate's message.

Rows exist only where a corruption reached the dropped check.  In
`superalg.decompose` the coinvariants B, gamma = delta|_B, the homogeneity of
B's basis and the Step 1 claims were checked after alpha, so a corruption of
what they shared with alpha was caught by alpha first; in
`cohomology.colinear_splitting_nilpotent`, "A/I does not have the dimension
of H" could not fire, since rank pi = dim H is checked just before it; and
the parity loop of the pairing iso check ("candidate map does not preserve
parity") could not fire, since Lambda(V)* was given Lambda(V)'s own parity,
which the checks of Lambda(V) read first.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

import hopfcross.cli
import hopfcross.cohomology
import hopfcross.superalg
from hopfcross.linalg import Matrix
from tests.test_cli import corpus, run_json
from tests.test_cohomology import bumped

ALPHA = ("the colinear algebra isomorphism alpha : A -> Lambda(W) (x) H carries "
         "A_1/A_0^+A_1 onto W (Masuoka; superalg.decompose's docstring)")
SECTION = ("the definition: a colinear, unital, convolution-invertible phi (a "
           "cleaving map, Montgomery ch. 7) with pi phi = id splits pi, whatever "
           "steps built it; comodule._normalized_section and "
           "colinear_splitting_nilpotent check it on what is returned")
SPLITTING = "cohomology.colinear_splitting_nilpotent: the returned section, not each step"


@dataclass
class Row:
    shortcut: str       # what is no longer checked, and the function that took it
    theorem: str        # why a kept certificate implies it, and the source
    dropped: str        # the dropped check, by the start of its message
    argv: list          # a command that reaches it; a .json argument is a corpus file
    corrupt: Callable   # corrupt(monkeypatch): one corruption
    caught_by: str      # the start of the kept certificate's message


def in_splitting(monkeypatch, owner, name, corrupt):
    """owner.name with corrupt(n, result) applied to the result of its n-th
    call (from 1) made while colinear_splitting_nilpotent runs."""
    state = {"depth": 0, "calls": 0}
    split, real = hopfcross.cohomology.colinear_splitting_nilpotent, getattr(owner, name)

    def splitting(*args):
        state["depth"] += 1
        try:
            return split(*args)
        finally:
            state["depth"] -= 1

    def spy(*args):
        out = real(*args)
        if not state["depth"]:
            return out
        state["calls"] += 1
        return corrupt(state["calls"], out)

    for module in (hopfcross.cohomology, hopfcross.superalg):
        monkeypatch.setattr(module, "colinear_splitting_nilpotent", splitting)
    monkeypatch.setattr(owner, name, spy)


def drop_last_odd_primitive(monkeypatch):
    real = hopfcross.superalg.odd_primitives
    monkeypatch.setattr(hopfcross.superalg, "odd_primitives", lambda sp: real(sp)[:-1])


def move_lambda(t):
    """lambda(h_t), the preimage of h_t under pi that the K-action reads,
    moved by the first basis vector e_0 of A: the K-action of h_t changes,
    and pi lambda(h_t) = h_t + pi(e_0)."""
    def corrupt(monkeypatch):
        real = hopfcross.cohomology.column_coordinates

        def coordinates(m, *elimination):
            solve = real(m, *elimination)
            if not elimination:  # the preimages of a step, not of pi
                return solve

            def moved(v):
                out = dict(solve(v))
                if list(v) == [t]:
                    one = 1 if m.field.characteristic else m.field.one
                    out[0] = out.get(0, 0) + one
                return {i: c for i, c in out.items() if c}
            return moved

        monkeypatch.setattr(hopfcross.cohomology, "column_coordinates", coordinates)
    return corrupt


def bump_coaction(call, row, col):
    """One entry of the coaction a splitting step builds: call 1 is X's,
    call 2 that of its kernel K."""
    return lambda monkeypatch: in_splitting(
        monkeypatch, hopfcross.cohomology, "induced_coaction",
        lambda n, m: bumped(m, row, col) if n == call else m)


def bump_theorem_inverse(monkeypatch):
    """One entry of the inverse of the first step's theorem map
    K^{co H} (x) H -> K."""
    in_splitting(monkeypatch, Matrix, "inverse",
                 lambda n, m: bumped(m, 1, 0) if n == 1 else m)


def double_step_preimage(monkeypatch):
    """The preimage in X of the first basis vector of Y, doubled, in the
    first step (call 1 solves for lambda, call 2 for the step's preimages)."""
    def corrupt(n, solve):
        if n != 2:
            return solve
        return lambda v: {i: c + c for i, c in solve(v).items()} if list(v) == [0] else solve(v)

    in_splitting(monkeypatch, hopfcross.cohomology, "column_coordinates", corrupt)


def corrupt_lambda3(builder, table, edit):
    """superalg.<builder> (ExteriorHopf or dual_structure) with the table of
    what it builds for Lambda(3) replaced by edit(table), never changed in
    place (Lambda's unit and counit are one dict); Lambda(1), the base that
    Lambda(3) is certified over, stays intact."""
    def corrupt(monkeypatch):
        real = getattr(hopfcross.superalg, builder)

        def built(*args):
            out = real(*args)
            h = getattr(out, "hopf", out)
            if h.dim == 8:
                setattr(h, table, edit(getattr(h, table)))
            return out

        monkeypatch.setattr(hopfcross.superalg, builder, built)
    return corrupt


def move_degree(monkeypatch):
    """m2-z2-graded.json with e12 moved into the neutral component, which
    e12 e21 = e11 then leaves."""
    real = hopfcross.cli.GradedAlgebra
    monkeypatch.setattr(hopfcross.cli, "GradedAlgebra",
                        lambda alg, group, degree: real(alg, group, degree[:2] + (0,) + degree[3:]))


def negated(terms):
    return {k: -c for k, c in terms.items()}


LEMMA = ("a Koszul-signed A (x) B of self-dual A and B is self-dual, so an algebra iso "
         "Lambda([k]) ~ Lambda([k-1]) (x) Lambda(1) is a coalgebra iso (superalg."
         "_super_tensor_violations)")
IDENTITY = ("the identity between equal presentations is an isomorphism: exterior_hopf "
            "checks Lambda(V) equal to its dual (superalg.duality_pairing)")
TENSOR = "superalg._super_tensor_violations: the product, antipode and parity only"
PAIRING = "superalg.duality_pairing: no check of the pairing iso, the identity"
ISO = "candidate map is not a bijective, comultiplicative, counital algebra map"
BROKE = "exterior construction broke an axiom: ["
NOW = BROKE + "('dual-"
N3 = ["pairing", "--n", "3"]
DECOMPOSE = "superalg.decompose: W as the dual of the odd primitives, no second description"
NOT_COLINEAR = "normalized section is not colinear: "
GRADING = ("e_i |-> e_i (x) g_(deg i) is coassociative and counital for any degree map, "
           "and a unital algebra map exactly when 1 is in A_e and A_g A_h lies in A_gh "
           "(graded.graded_bridge)")
ROWS = {
    "odd-primitive-count": Row(
        DECOMPOSE, ALPHA, "odd primitive count disagrees with the odd cotangent",
        ["super-decompose", "lambda3.json"], drop_last_odd_primitive,
        "alpha : A -> Lambda(W) (x) H fails an invariant: ('bijective', ())"),
    "module-laws-unit": Row(
        SPLITTING, SECTION, "not a Hopf module: [('module-not-unital'",
        ["lift", "lift-split.json"], move_lambda(0), "computed splitting does not split pi"),
    "module-laws-group-like": Row(
        SPLITTING, SECTION, "not a Hopf module: [('module-not-associative'",
        ["lift", "lift-split.json"], move_lambda(1), "left convolution by f is not surjective"),
    "module-laws-scrambled": Row(
        SPLITTING, SECTION, "not a Hopf module: [('module-not-unital'",
        ["super-decompose", "super-scrambled.json"], move_lambda(0), NOT_COLINEAR),
    "comodule-laws": Row(
        SPLITTING, SECTION, "not a Hopf module: [('coaction-not-counital'",
        ["super-decompose", "lambda3.json"], bump_coaction(2, 0, 0),
        "the Hopf-module decomposition map is not bijective"),
    "retraction-by-inverse": Row(
        SPLITTING, SECTION, "colinear retraction is not the identity on the kernel",
        ["super-decompose", "super-scrambled.json"], bump_theorem_inverse, NOT_COLINEAR),
    "retraction-by-coaction": Row(
        SPLITTING, SECTION, "colinear retraction is not the identity on the kernel",
        ["super-decompose", "super-scrambled.json"], bump_coaction(1, 0, 0), NOT_COLINEAR),
    "step-section": Row(
        SPLITTING, SECTION, "colinear section fails to split the quotient step",
        ["super-decompose", "super-scrambled.json"], double_step_preimage, NOT_COLINEAR),
    "colinear-before-normalization": Row(
        SPLITTING, SECTION, "computed splitting is not colinear",
        ["lift", "lift-split.json"], bump_coaction(1, 5, 0), NOT_COLINEAR),
    "tensor-coproduct": Row(TENSOR, LEMMA, BROKE + "('coproduct', (1,))", N3, corrupt_lambda3(
        "ExteriorHopf", "native_coproduct", lambda c: {**c, 1: negated(c[1])}), NOW + "product'"),
    "tensor-counit": Row(TENSOR, LEMMA, BROKE + "('counit', (1,))", ["super-decompose",
                         "lambda3.json"], corrupt_lambda3(
        "ExteriorHopf", "native_counit", lambda c: {**c, 1: c[0]}), NOW + "unit'"),
    "ground-coproduct": Row(TENSOR, LEMMA, BROKE + "('ground', ())", N3, corrupt_lambda3(
        "ExteriorHopf", "native_coproduct", lambda c: {**c, 0: negated(c[0])}), NOW + "product'"),
    "ground-counit": Row(TENSOR, LEMMA, BROKE + "('ground', ())", N3, corrupt_lambda3(
        "ExteriorHopf", "native_counit", negated), NOW + "unit'"),
    "pairing-iso-product": Row(PAIRING, IDENTITY, ISO, N3, corrupt_lambda3(
        "dual_structure", "native_rows", lambda r: {**r, 1: {**r[1], 2: negated(r[1][2])}}),
        NOW + "product'"),
    "pairing-iso-counit": Row(PAIRING, IDENTITY, ISO, N3, corrupt_lambda3(
        "dual_structure", "native_counit", lambda c: {**c, 1: c[0]}), NOW + "counit'"),
    "pairing-iso-antipode": Row(
        PAIRING, IDENTITY, "candidate map does not commute with the antipode", N3,
        corrupt_lambda3("dual_structure", "antipode", lambda s: -s), NOW + "antipode'"),
    "graded-bridge": Row(
        "graded.graded_bridge: check_grading alone, no comodule-algebra laws", GRADING,
        "not a comodule algebra: [('coaction-not-multiplicative'",
        ["recognize-crossed", "m2-z2-graded.json"], move_degree,
        "input is not a graded algebra: GradingReport([('product-leaves-component'"),
}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_a_kept_certificate_catches_what_a_dropped_check_caught(row, monkeypatch, capsys):
    argv = [corpus(a) if a.endswith(".json") else a for a in row.argv]
    assert run_json(capsys, argv)[0] == 0
    row.corrupt(monkeypatch)
    code, report = run_json(capsys, argv)
    assert code == 2, report
    assert report["error"].startswith(row.caught_by), report["error"]
