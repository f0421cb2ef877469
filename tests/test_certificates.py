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
what they shared with alpha was caught by alpha first; and in
`cohomology.colinear_splitting_nilpotent`, "A/I does not have the dimension
of H" could not fire, since rank pi = dim H is checked just before it.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

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
    argv: list          # a command that reaches it, on corpus files
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


DECOMPOSE = "superalg.decompose: W as the dual of the odd primitives, no second description"
NOT_COLINEAR = "normalized section is not colinear: "
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
}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_a_kept_certificate_catches_what_a_dropped_check_caught(row, monkeypatch, capsys):
    argv = [row.argv[0], corpus(row.argv[1])]
    assert run_json(capsys, argv)[0] == 0
    row.corrupt(monkeypatch)
    code, report = run_json(capsys, argv)
    assert code == 2, report
    assert report["error"].startswith(row.caught_by), report["error"]
