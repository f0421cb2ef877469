"""One table of the checks that left the library because a certificate that
still runs implies them.

Each row names the shortcut and the function that takes it, the theorem
that makes the dropped check redundant and its source, the dropped check
(by the message it raised), one corruption that reached that check before
it was dropped, and the kept certificate that now catches the corruption.
The one test runs every row: the intact input passes, and the corrupted run
exits 2 with the kept certificate's message.  Every docstring in the library
that cites a theorem in place of a check carries the marker
"Certified by theorem: [row, ...]" naming its rows (tests/test_source.py).
A second test runs the dropped checks of the cleft layer as oracles beside
the shortcuts, on every input that reaches them, so the theorems' premises
are seen to hold on real inputs.

Rows exist only where a corruption reached the dropped check.  In
`superalg.decompose` the coinvariants B, gamma = delta|_B, the homogeneity of
B's basis and the Step 1 claims were checked after alpha, so a corruption of
what they shared with alpha was caught by alpha first; in
`cohomology.colinear_splitting_nilpotent`, "A/I does not have the dimension
of H" could not fire, since rank pi = dim H is checked just before it; and
the parity loop of the pairing iso check ("candidate map does not preserve
parity") could not fire, since Lambda(V)* was given Lambda(V)'s own parity,
which the checks of Lambda(V) read first.  `lift` checked the comodule
algebra C/J with its constructor; C/J is no longer built (only its classes
are), so nothing can corrupt it, and the row `first-step-map` corrupts the
map into it that the dropped check read.
"""

import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import pytest

import hopfcross.cli
import hopfcross.cohomology
import hopfcross.superalg
from hopfcross.algebra import (
    FAlgebra,
    group_hopf_algebra,
    require_convolution_inverse,
    require_morphism,
)
from hopfcross.cli import encode_lift_problem, main
from hopfcross.cohomology import (
    AugmentedAlgebra,
    _check_comodule_algebra_map,
    ideal_power_chain,
    quotient_comodule_algebra,
)
from hopfcross.comodule import ComoduleAlgebra, CrossedSystem, Section, crossed_product
from hopfcross.errors import HopfcrossError
from hopfcross.groups import GroupTable
from hopfcross.linalg import Matrix, PrimeField, QuotientSpace, Rationals, basis_vec
from tests.oracles import counit_times_identity, regular_comodule, trivial_sigma
from tests.test_cli import ALL_CORPUS, corpus, run_json
from tests.test_cohomology import bumped, cleft_family

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


LIBRARY = (hopfcross.cli, hopfcross.cohomology, hopfcross.superalg)
SPLITTER = "colinear_splitting_nilpotent"
SPLIT = (SPLITTER, "split_extension")


def rebind(monkeypatch, name, wrap):
    """hopfcross.cohomology.<name> replaced by wrap(it) in every module of
    the library that reads it."""
    real = getattr(hopfcross.cohomology, name)
    for module in LIBRARY:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, wrap(real))


def tracked(depth, name):
    """A wrap for rebind that counts in depth[name] the calls under way."""
    def wrap(real):
        def run(*args):
            depth[name] += 1
            try:
                return real(*args)
            finally:
                depth[name] -= 1
        return run
    return wrap


def during(monkeypatch, fn, owner, name, corrupt, outside=()):
    """owner.name with corrupt(n, result) applied to the result of its n-th
    call (from 1) made while the cohomology function fn runs and none of
    the functions named in outside does."""
    depth = dict.fromkeys((fn,) + outside, 0)
    for key in depth:
        rebind(monkeypatch, key, tracked(depth, key))
    real, calls = getattr(owner, name), [0]

    def spy(*args):
        out = real(*args)
        if not depth[fn] or any(depth[key] for key in outside):
            return out
        calls[0] += 1
        return corrupt(calls[0], out)

    monkeypatch.setattr(owner, name, spy)


def drop_last_odd_primitive(monkeypatch):
    real = hopfcross.superalg.odd_primitives
    monkeypatch.setattr(hopfcross.superalg, "odd_primitives", lambda sp: real(sp)[:-1])


def move_lambda(t):
    """lambda(h_t), the preimage of h_t under pi that the K-action reads,
    moved by the first basis vector e_0 of A: the K-action of h_t changes,
    and pi lambda(h_t) = h_t + pi(e_0).  lambda is read off the elimination
    of [pi | 1], the one solve_columns call of each splitting."""
    def moved(n, out):
        lam, (r, pivots) = out
        p = r.field.characteristic
        x = dict(lam[t])
        x[0] = (x.get(0, 0) + 1) % p if p else x.get(0, 0) + r.field.one
        lam = lam[:t] + [{i: c for i, c in x.items() if c}] + lam[t + 1:]
        return lam, (r, pivots)

    return lambda monkeypatch: during(monkeypatch, SPLITTER, hopfcross.cohomology,
                                      "solve_columns", moved)


def bump_coaction(call, row, col):
    """One entry of the coaction a splitting step builds: call 1 is X's,
    call 2 that of its kernel K."""
    return lambda monkeypatch: during(
        monkeypatch, SPLITTER, hopfcross.cohomology, "induced_coaction",
        lambda n, m: bumped(m, row, col) if n == call else m)


def bump_theorem_inverse(monkeypatch):
    """One entry of the inverse of the first step's theorem map
    K^{co H} (x) H -> K."""
    during(monkeypatch, SPLITTER, Matrix, "inverse",
           lambda n, m: bumped(m, 1, 0) if n == 1 else m)


def double_step_section(monkeypatch):
    """s(y) = x - K r(x) for the first basis vector y of Y, doubled, in the
    first step: x, the class in X of y's complement lift, is changed in
    place to s(y) by the first _subtract call of the splitting."""
    real = hopfcross.cohomology._subtract

    def subtract(row, *args):
        real(row, *args)
        return row

    def doubled(n, row):
        if n == 1:
            row.update({j: c + c for j, c in row.items()})
        return row

    monkeypatch.setattr(hopfcross.cohomology, "_subtract", subtract)
    during(monkeypatch, SPLITTER, hopfcross.cohomology, "_subtract", doubled)


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


Q = Rationals()


def truncated_lift_doc(n):
    """Lift id_H through eps (x) id : B (x) H -> H for B = Q[x]/(x^n) and
    H = Q[Z/2] acting trivially.  J = x C has J^(n-1) != 0, so lift passes
    through C/J^e for e = 1, 2, 4, ... below n, and (n >= 5) pulls back a
    proper subalgebra at a step before the last."""
    h = group_hopf_algebra(GroupTable.cyclic(2), Q)
    b = FAlgebra(Q, tuple("x%d" % i for i in range(n)),
                 {(i, j): {i + j: Q.one} for i in range(n) for j in range(n) if i + j < n},
                 basis_vec(Q, n, 0))
    aug = AugmentedAlgebra(b, basis_vec(Q, n, 0))
    meas = Matrix.from_cols(Q, [tuple(h.counit[g] * c for c in basis_vec(Q, n, i))
                                for g in range(2) for i in range(n)])
    cp = crossed_product(CrossedSystem(h, b, meas, trivial_sigma(h, b), trivial_sigma(h, b)))
    return encode_lift_problem(cp, regular_comodule(h), counit_times_identity(aug, h),
                               Matrix.identity(Q, 2))


# inputs that are not in the corpus, by the name a row's argv gives them
GENERATED = {"truncated-x3.json": lambda: truncated_lift_doc(3),
             "truncated-x5.json": lambda: truncated_lift_doc(5)}


def bump_section_inverse(monkeypatch):
    """phi^-1 of the section that classify_cleft_extension finds, with e_0
    added at g1, so the closed-form inverse of the re-augmented section is
    off there."""
    real = hopfcross.cohomology.find_section

    def found(ca):
        sec = real(ca)
        return Section(sec.phi, bumped(sec.phi_inv, 0, 1), ca)

    monkeypatch.setattr(hopfcross.cohomology, "find_section", found)


def negate_reaugmented(monkeypatch):
    """chi * phi and its closed-form inverse, both negated: still inverse
    to each other, but eps_A o (-(chi * phi)) = -eps."""
    during(monkeypatch, "reaugment_section", Matrix, "from_sparse_cols",
           lambda n, m: m.scale(m.field.from_int(-1)))


def bump_iso_inverse(monkeypatch):
    """The inverse of lift's iso C/J -> D, the first matrix lift inverts,
    bumped at (1, 1), so psi_0 = iso^-1 psi is off."""
    during(monkeypatch, "lift_comodule_algebra_map", Matrix, "inverse",
           lambda n, m: bumped(m, 1, 1) if n == 1 else m, SPLIT)


def bump_step_surjection(monkeypatch):
    """lift's first elimination of [psi_0 | step map] with row 0 bumped at
    column dim H + 1 = 3, so pi : C -> H, read off it, is off at (0, 1)."""
    during(monkeypatch, "lift_comodule_algebra_map", hopfcross.cohomology, "solve_columns",
           lambda n, out: (out[0], (bumped(out[1][0], 0, 3), out[1][1])) if n == 1 else out,
           SPLIT)


def bump_even_surjection(monkeypatch):
    """pi_0 : A_0 -> H, which decompose splits, with pi_0(1) doubled."""
    real = hopfcross.superalg.colinear_splitting_nilpotent
    monkeypatch.setattr(hopfcross.superalg, "colinear_splitting_nilpotent",
                        lambda ca, pi: real(ca, bumped(pi, 0, 0)))


def bump_quotient_coaction(monkeypatch):
    """The coaction of the stage C/J^2 (dimension 4) of truncated-x3.json,
    bumped at (0, 0)."""
    during(monkeypatch, "quotient_comodule_algebra", hopfcross.cohomology, "induced_coaction",
           lambda n, m: bumped(m, 0, 0) if m.cols == 4 else m)


def bump_later_step_map(monkeypatch):
    """psi_2 : H -> C/J^4 of truncated-x5.json (8 x 2), the inclusion of the
    proper pull-back times its splitting, bumped at (0, 0)."""
    during(monkeypatch, "lift_comodule_algebra_map", Matrix, "__mul__",
           lambda n, m: bumped(m, 0, 0) if (m.rows, m.cols) == (8, 2) else m, SPLIT)


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
CLEFT = ("comodule._normalized_section certifies (phi, phi^-1), and the parser checks "
         "eps_A to be an algebra map, so chi = eps_A o phi^-1 inverts eps_A o phi and the "
         "closed forms are inverse, with eps_A o (chi * phi) = eps "
         "(cohomology.reaugment_section)")
REAUGMENT = "cohomology.reaugment_section: no check of the closed-form pair"
LIFT = "cohomology.lift_comodule_algebra_map: no check of an intermediate"
STAGES = ("J = ker varpi for a checked comodule algebra map varpi, so each J^e is an "
          "ideal and a subcomodule, and C/J ~ D is induced by varpi; each later step map "
          "is an inclusion times a certified splitting "
          "(cohomology.lift_comodule_algebra_map)")
INPUT = "cohomology.colinear_splitting_nilpotent: no check of its input pi"
EVEN = ("pi is the quotient by the Hopf ideal A_1 A (superalg.even_quotient), so "
        "pi_0 = pi on A_0 is a colinear algebra map")
COMPOSITE = ("pi = psi_{s-1}^-1 o (step map) on the pull-back is a composite of comodule "
             "algebra maps (cohomology.lift_comodule_algebra_map)")
NOT_MAP = "map H -> A is not a comodule algebra map"
INPUT_MAP = "map onto the Hopf algebra is not a colinear algebra map"
ALPHA_FAILS = "candidate isomorphism B x|_sigma H -> A: "
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
    # column 2 of X's coaction is the complement lift of Y's first class,
    # which K's first basis vector also reads
    "retraction-by-coaction": Row(
        SPLITTING, SECTION, "colinear retraction is not the identity on the kernel",
        ["super-decompose", "super-scrambled.json"], bump_coaction(1, 0, 2), NOT_COLINEAR),
    "step-section": Row(
        SPLITTING, SECTION, "colinear section fails to split the quotient step",
        ["super-decompose", "super-scrambled.json"], double_step_section, NOT_COLINEAR),
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
    "reaugment-inverse": Row(
        REAUGMENT, CLEFT, "candidate inverse fails the two-sided identity",
        ["classify-cleft", "f3z3-cleft.json"], bump_section_inverse,
        "vector does not lie in the coinvariant subalgebra"),
    "reaugment-augmentation": Row(
        REAUGMENT, CLEFT, "re-augmented section fails the augmentation identity",
        ["classify-cleft", "f3z3-cleft.json"], negate_reaugmented, ALPHA_FAILS + "('unit', ())"),
    "quotient-stage": Row(
        LIFT, STAGES, "not a comodule algebra: [('coaction-not-counital', (0,))",
        ["lift", "truncated-x3.json"], bump_quotient_coaction,
        NOT_COLINEAR + "('colinear', (0,))"),
    "first-step-map": Row(
        LIFT, STAGES, NOT_MAP + ": ('multiplicative', (1, 1))", ["lift", "lift-split.json"],
        bump_iso_inverse, ALPHA_FAILS + "('multiplicative', (0, 1))"),
    "later-step-map": Row(
        LIFT, STAGES, NOT_MAP + ": ('unit', ())", ["lift", "truncated-x5.json"],
        bump_later_step_map, "computed splitting does not split pi"),
    "splitting-input-decompose": Row(
        INPUT, EVEN, INPUT_MAP + ": ('unit', ())", ["super-decompose", "lambda3.json"],
        bump_even_surjection, "computed splitting does not split pi"),
    "splitting-input-lift": Row(
        INPUT, COMPOSITE, INPUT_MAP + ": ('multiplicative', (1, 1))",
        ["lift", "lift-split.json"], bump_step_surjection,
        "left convolution by f is not surjective"),
}


def argument(a, tmp_path):
    """A command-line argument of a row: a generated input is written to
    tmp_path, any other .json name is a corpus file."""
    if a in GENERATED:
        path = tmp_path / a
        path.write_text(json.dumps(GENERATED[a]()))
        return str(path)
    return corpus(a) if a.endswith(".json") else a


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_a_kept_certificate_catches_what_a_dropped_check_caught(row, monkeypatch, capsys,
                                                                 tmp_path):
    argv = [argument(a, tmp_path) for a in row.argv]
    assert run_json(capsys, argv)[0] == 0
    row.corrupt(monkeypatch)
    code, report = run_json(capsys, argv)
    assert code == 2, report
    assert report["error"].startswith(row.caught_by), report["error"]


def test_each_dropped_cleft_check_holds_on_every_input_that_reaches_it(monkeypatch, capsys,
                                                                       tmp_path):
    """The checks that left the cleft layer, run through spies as oracles
    beside the shortcuts, pass on every input that reaches them: every
    command that reaches them on every corpus file, the CleftFamily members
    over F3, F5 and Q, and the truncated lift problems, the only inputs with
    J^2 != 0."""
    ran, failed, stages, lifting = Counter(), [], {}, []
    depth = dict.fromkeys(SPLIT, 0)

    def oracle(row, check):
        ran[row] += 1
        try:
            check()
        except HopfcrossError as exc:
            failed.append((row, str(exc)))

    def valid_stage(ca):
        """ca checked by the validating constructor."""
        stage = ComoduleAlgebra(ca.algebra, ca.hopf, ca.coaction)
        stages[ca.algebra.dim] = stage
        return stage

    def reaugment(real):
        def run(ext, sec):
            out = real(ext, sec)
            h, a = out.comodule_algebra.hopf, out.comodule_algebra.algebra
            oracle("reaugment-inverse",
                   lambda: require_convolution_inverse(h, a, out.phi, out.phi_inv))
            oracle("reaugment-augmentation", lambda: require_morphism(
                out.phi, "augmentation", counit=(h.native_counit, ext.eps_row)))
            return out
        return run

    def splitting(real):
        def run(ca, pi):
            oracle("splitting-input-lift" if lifting else "splitting-input-decompose",
                   lambda: require_morphism(pi, "input", algebra=(ca.algebra, ca.hopf),
                                            rho=(ca.rho_basis, ca.hopf.rho_basis)))
            return tracked(depth, "colinear_splitting_nilpotent")(real)(ca, pi)
        return run

    def quotient(real):
        def run(ca, quot):
            out = real(ca, quot)
            oracle("quotient-stage", lambda: valid_stage(out))
            return out
        return run

    def lift(real):
        def run(c_ca, d_ca, varpi, psi):
            lifting.append({"ca": c_ca, "varpi": varpi, "steps": 0})
            stages.clear()
            try:
                return real(c_ca, d_ca, varpi, psi)
            finally:
                lifting.pop()
        return run

    solve = hopfcross.cohomology.solve_columns

    def step(current, cols):
        # psi_{s-1}, the map into the lower stage, in lift's own elimination
        if lifting and not any(depth.values()):
            entry = lifting[-1]
            entry["steps"] += 1
            c_ca = entry["ca"]
            if entry["steps"] == 1:  # into C/J, which lift builds no structure for
                chain = ideal_power_chain(c_ca.algebra, entry["varpi"].kernel_rows())
                cj = QuotientSpace(c_ca.field, c_ca.algebra.dim, chain[0])
                oracle("quotient-stage",
                       lambda: valid_stage(quotient_comodule_algebra(c_ca, cj)))
                oracle("first-step-map", lambda: _check_comodule_algebra_map(
                    c_ca.hopf, stages[current.rows], current))
            else:
                oracle("later-step-map", lambda: _check_comodule_algebra_map(
                    c_ca.hopf, stages[current.rows], current))
        return solve(current, cols)

    rebind(monkeypatch, "reaugment_section", reaugment)
    rebind(monkeypatch, "colinear_splitting_nilpotent", splitting)
    rebind(monkeypatch, "quotient_comodule_algebra", quotient)
    rebind(monkeypatch, "lift_comodule_algebra_map", lift)
    rebind(monkeypatch, "split_extension", tracked(depth, "split_extension"))
    monkeypatch.setattr(hopfcross.cohomology, "solve_columns", step)
    runs = [[command, corpus(name)] for command in ("classify-cleft", "split", "lift",
                                                   "super-decompose") for name in ALL_CORPUS]
    family = cleft_family()
    for field in (PrimeField(3), PrimeField(5), Q):
        members = family(field, 3)
        for c in (0, 1, 2):
            for command, make in (("classify-cleft", members.cleft_doc),
                                  ("split", members.cleft_doc), ("lift", members.lift_doc)):
                path = tmp_path / ("%s-%d-%d.json" % (command, field.characteristic, c))
                path.write_text(json.dumps(make(random.Random(c), c)[0]))
                runs.append([command, str(path)])
    runs += [["lift", argument(name, tmp_path)] for name in GENERATED]
    for argv in runs:
        before = sum(ran.values())
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1) or sum(ran.values()) == before, argv
    assert failed == []
    # the re-augmented pair of classify-cleft and split on f3z3-cleft.json and
    # the 18 family members, and of each lift step (11 lifts of one step,
    # truncated-x3's two and truncated-x5's three); C/J of the 13 lifts and
    # the later stages C/J^2 and C/J^4 of the truncated ones; the splitting
    # inputs of lambda3.json and super-scrambled.json
    assert ran == {"reaugment-inverse": 36, "reaugment-augmentation": 36, "quotient-stage": 16,
                   "first-step-map": 13, "later-step-map": 3, "splitting-input-lift": 16,
                   "splitting-input-decompose": 2}
