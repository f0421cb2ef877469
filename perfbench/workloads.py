"""The benchmark's workloads: seeded job lists with the answers expected of them.

A job is one CLI call.  A workload builds its job list one round at a time;
round r draws its inputs from its own generator, so no input repeats within
a run.  Round 0 is the canonical round: its inputs come from the default
seed (or the bundled corpus) whatever seed the run was given, and its
reports are compared against digests recorded at the benchmark's creation.

Every expected answer is derived from how the input was built, never from a
run of the program.
"""

import os
import random

import hopfcross
from hopfcross.groups import GroupTable
from inputs import CleftFamily, SuperSlot, exterior_doc, field_of, group_doc, small_corpus_docs

DEFAULT_SEED = 0

COMMANDS = (
    "check", "antipode", "dual", "coinvariants", "galois", "strongly-graded",
    "recognize-crossed", "crossed-product", "find-section", "recognize-cleft",
    "classify-cleft", "hh2", "split", "lift", "smash-coproduct", "super-decompose",
)

# the presentation kinds each command accepts; any other kind exits 2
COMODULE_KINDS = {"comodule-algebra", "augmented-comodule-algebra", "graded-algebra"}
ACCEPTS = {
    "antipode": {"bialgebra", "hopf"},
    "dual": {"hopf"},
    "coinvariants": COMODULE_KINDS,
    "galois": COMODULE_KINDS,
    "find-section": COMODULE_KINDS,
    "recognize-cleft": COMODULE_KINDS,
    "strongly-graded": {"graded-algebra"},
    "recognize-crossed": {"graded-algebra"},
    "crossed-product": {"crossed-system"},
    "classify-cleft": {"augmented-comodule-algebra"},
    "split": {"augmented-comodule-algebra"},
    "hh2": {"hmodule"},
    "lift": {"lift-problem"},
    "smash-coproduct": {"comodule-coalgebra"},
    "super-decompose": {"super-hopf"},
}

# primes for the seeded F_p pairings (canonical rounds use 5 and 7); a run
# walks this list from a seeded offset, so its rounds never share a prime
PRIMES = tuple(p for p in range(11, 2000) if all(p % d for d in range(2, int(p ** 0.5) + 1)))


class Job:
    """One CLI call: argv (the input file goes after the command), the key of
    its input document (None for `pairing`), the expected exit code and the
    expected report fields (a value, or a predicate on the value).

    Jobs of one slot in different rounds run the same command on inputs of
    the same construction and cost; the id is "r<round>/<slot>".
    """

    def __init__(self, r, slot, argv, doc_key, exit_code, fields=None):
        self.id = "r%d/%s" % (r, slot)
        self.argv = list(argv)
        self.doc_key = doc_key
        self.exit_code = exit_code
        self.fields = fields or {}


class Round:
    def __init__(self):
        self.docs = {}
        self.jobs = []

    def add_doc(self, key, doc):
        self.docs[key] = doc

    def add(self, r, slot, argv, doc_key, exit_code, fields=None):
        self.jobs.append(Job(r, slot, argv, doc_key, exit_code, fields))


def round_rng(workload, seed, r):
    return random.Random("%s:%d:%d" % (workload, seed, r))


def _nonzero_class(expected):
    return lambda coords: any(c != [0] for c in coords) == expected


def profile_expectation(cmd, profile):
    """(exit code, fields) for `cmd` on an input with the given profile.

    A profile holds the input's kind, the exit codes that differ from 0 and
    the basis-free answers known from its construction.
    """
    kind = profile["kind"]
    if cmd != "check" and kind not in ACCEPTS[cmd]:
        return 2, {}
    fields = {}
    if cmd == "check":
        fields["verdict"] = "pass"
    if cmd == "super-decompose":
        fields["witnesses.h_dimension"] = profile["h_dimension"]
        fields["witnesses.w_dimension"] = profile["w_dimension"]
    if cmd == "coinvariants" and "coinvariants" in profile:
        fields["witnesses.dimension"] = profile["coinvariants"]
    if cmd == "hh2":
        fields["witnesses.dimension"] = profile["hh2_dimension"]
        if "nonzero_class" in profile:
            fields["witnesses.class"] = _nonzero_class(profile["nonzero_class"])
    if cmd == "classify-cleft":
        fields["witnesses.hh2_dimension"] = profile["hh2_dimension"]
        fields["witnesses.is_split"] = not profile["nonzero_class"]
    if cmd == "galois":
        fields["witnesses.bijective"] = profile["exits"].get("galois", 0) == 0
    nonzero = profile.get("nonzero_class", False)
    if cmd in ("split", "lift"):
        return (1 if nonzero else 0), fields
    return profile["exits"].get(cmd, 0), fields


def _profile(kind, expected=None, **exits):
    out = {"kind": kind, "exits": {k.replace("_", "-"): v for k, v in exits.items()}}
    out.update(expected or {})
    return out


def corpus_profiles():
    """Answers for the bundled corpus, from how tools/make_corpus.py builds it."""
    return {
        "f3z3-cleft.json": _profile("augmented-comodule-algebra", {
            "hh2_dimension": 1, "nonzero_class": True, "coinvariants": 2}),
        "f3z3-crossed.json": _profile("crossed-system"),
        "f3z3-hmodule.json": _profile("hmodule", {"hh2_dimension": 1, "nonzero_class": True}),
        "qz3-hmodule.json": _profile("hmodule", {"hh2_dimension": 0}),
        "ks3.json": _profile("hopf"),
        "kz2.json": _profile("hopf"),
        "kz3-f3.json": _profile("hopf"),
        "sweedler.json": _profile("hopf"),
        # the monoid {1, e} with e idempotent is not a group: no antipode
        "monoid2.json": _profile("bialgebra", antipode=1),
        # M_2(k) graded by Z/2 is strongly graded with units in both degrees
        "m2-z2-graded.json": _profile("graded-algebra", {"coinvariants": 2}),
        # k[x]/(x^2) with x odd: A_1 A_1 = 0, so not strongly graded or cleft
        "kx2-graded.json": _profile(
            "graded-algebra", {"coinvariants": 1}, find_section=1, galois=1,
            recognize_cleft=1, recognize_crossed=1, strongly_graded=1),
        "lift-split.json": _profile("lift-problem", {"nonzero_class": False}),
        "lift-obstructed.json": _profile("lift-problem", {"nonzero_class": True}),
        "smash-example.json": _profile("comodule-coalgebra"),
        "lambda3.json": _profile("super-hopf", {"h_dimension": 1, "w_dimension": 3}),
        "super-scrambled.json": _profile("super-hopf", {"h_dimension": 2, "w_dimension": 2}),
    }


class Workload:
    name = None
    round_seconds = None  # nominal length of one round on the reference machine
    min_rounds = 1
    must_fire = ()  # spans the traced run must see

    def rounds(self, seconds):
        return max(self.min_rounds, int(round(seconds / self.round_seconds)))

    def build(self, seed, r):
        """The jobs and documents of round r (round 0 is canonical)."""
        seed = DEFAULT_SEED if r == 0 else seed
        rd = Round()
        self.fill(rd, round_rng(self.name, seed, r), r, seed)
        return rd

    def fill(self, rd, rng, r, seed):
        raise NotImplementedError

    def prime(self, seed, k):
        """The k-th seeded prime of a run: distinct for distinct k."""
        offset = random.Random("%s:%d:primes" % (self.name, seed)).randrange(len(PRIMES))
        return PRIMES[(offset + k) % len(PRIMES)]


class SuperAxioms(Workload):
    """check and super-decompose --certify on scrambled Lambda(m) (x) k[Z/n].

    The scramble makes the structure constants dense, so the super axiom
    checker does most of the work; there is no search.
    """

    name = "super-axioms"
    round_seconds = 8.0
    min_rounds = 2
    must_fire = ("superalg.check_super_axioms", "superalg.decompose", "superalg.even_quotient",
                 "superalg.duality_pairing", "linalg.rref.Q", "cli.parse_presentation",
                 "cli.to_json")
    # (slot, m, n, share of off-diagonal entries kept in the fixed dense part);
    # dimensions 4, 4, 6, 6, 8 and 8
    SLOTS = (("l1z2", 1, 2, 1.0), ("l2", 2, 1, 1.0), ("l1z3", 1, 3, 1.0),
             ("l1z3-b", 1, 3, 0.6), ("l2z2", 2, 2, 0.6), ("l3", 3, 1, 0.6))

    def __init__(self):
        self._slots = {}

    def fill(self, rd, rng, r, seed):
        for slot, m, n, density in self.SLOTS:
            if slot not in self._slots:
                self._slots[slot] = SuperSlot(self.name + "/" + slot, m, n, density)
            doc, expected = self._slots[slot].doc(rng)
            rd.add_doc(slot, doc)
            profile = _profile("super-hopf", expected)
            for argv in (["check"], ["super-decompose", "--certify"]):
                code, fields = profile_expectation(argv[0], profile)
                rd.add(r, "%s/%s" % (slot, argv[0]), argv, slot, code, fields)


class DenseKernel(Workload):
    """antipode and dual of k[S4] and k[Z/12] over Q and F5, exterior
    pairings and Lambda(4) decompositions: large exact eliminations over
    both fields, no search."""

    name = "dense-kernel"
    round_seconds = 12.5
    min_rounds = 2
    must_fire = ("linalg.rref.Q", "linalg.rref.Fp", "algebra.convolution_invert",
                 "algebra.compute_antipode", "algebra.dual_hopf", "algebra.check_axioms",
                 "superalg.duality_pairing", "superalg.decompose")

    def fill(self, rd, rng, r, seed):
        # k[S4]: the antipode over one field and the dual over the other,
        # swapped on odd rounds, so each pair of rounds covers both fields
        s4 = GroupTable.symmetric(4)
        z12 = GroupTable.cyclic(12)
        fields = ("Q", "F5") if r % 2 == 0 else ("F5", "Q")
        plan = [("s4-antipode", s4, fields[0], "antipode"), ("s4-dual", s4, fields[1], "dual")]
        # k[Z/12]: many cheap jobs, weighted so that the median job is a Q antipode
        for fname, cmd, count in (("Q", "antipode", 4), ("Q", "dual", 2),
                                  ("F5", "antipode", 2), ("F5", "dual", 2)):
            for i in range(count):
                plan.append(("z12-%s-%s-%d" % (cmd, fname, i), z12, fname, cmd))
        for slot, table, fname, cmd in plan:
            kind = "bialgebra" if cmd == "antipode" else "hopf"
            doc, expected = group_doc(table, field_of(fname), rng, kind)
            rd.add_doc(slot, doc)
            fields = {"certificates.antipode": expected["antipode"]} if cmd == "antipode" else {
                "witnesses.presentation." + part: value
                for part, value in expected["dual"].items()
            }
            rd.add(r, slot, [cmd, "--certify"], slot, 0, fields)
        # pairings need no input file; the canonical round pairs over Q and
        # F7, later rounds over seeded distinct primes
        if r == 0:
            pairings = [["--n", "5"], ["--n", "6", "--prime", "7"]]
        else:
            pairings = [["--n", "5", "--prime", str(self.prime(seed, 2 * r))],
                        ["--n", "6", "--prime", str(self.prime(seed, 2 * r + 1))]]
        for argv in pairings:
            n = int(argv[1])
            identity = [[i, i, 1] for i in range(2 ** n)]
            rd.add(r, "pairing-%d" % n, ["pairing", "--certify"] + argv, None, 0,
                   {"witnesses.nondegenerate": True, "certificates.pairing.entries": identity})
        # three, so that the 11th-slowest job (the tail) falls among them
        for i in range(3):
            slot = "lambda4-%d" % i
            doc, expected = exterior_doc(4, rng)
            rd.add_doc(slot, doc)
            code, fields = profile_expectation("super-decompose", _profile("super-hopf", expected))
            rd.add(r, slot, ["super-decompose"], slot, code, fields)


class CleftSearch(Workload):
    """find-section, recognize-cleft, classify-cleft and split, with lift and
    hh2, on crossed products from sigma + dt over F3[Z/3] (the search
    enumerates) and Q[Z/3] (the search climbs its ladder)."""

    name = "cleft-search"
    round_seconds = 8.0
    min_rounds = 2
    # the class multiple c of each slot's cocycle c * carry + d(t) is fixed, so
    # every seed asks for the same work; the seed draws t
    CLASS = {"find-section": 1, "recognize-cleft": 2, "classify-cleft": 1, "split": 0,
             "lift": 1, "hh2": 2}
    must_fire = ("search.find_invertible_combination", "linalg.det.Q", "linalg.det.Fp",
                 "comodule.find_section", "comodule.colinear_map_space",
                 "cohomology.classify_cleft_extension", "cohomology.split_extension",
                 "cohomology.lift_comodule_algebra_map", "cohomology.hh2")

    def __init__(self):
        self._families = {}

    def fill(self, rd, rng, r, seed):
        for fname in ("F3", "Q"):
            if fname not in self._families:
                self._families[fname] = CleftFamily(field_of(fname), 3)
            fam = self._families[fname]
            for cmd in ("find-section", "recognize-cleft", "classify-cleft", "split"):
                key = "%s-%s" % (fname, cmd)
                doc, expected = fam.cleft_doc(rng, self.CLASS[cmd])
                rd.add_doc(key, doc)
                code, fields = profile_expectation(
                    cmd, _profile("augmented-comodule-algebra", expected))
                rd.add(r, key, [cmd, "--certify"], key, code, fields)
            for cmd, make, kind in (("lift", fam.lift_doc, "lift-problem"),
                                    ("hh2", fam.hmodule_doc, "hmodule")):
                key = "%s-%s" % (fname, cmd)
                doc, expected = make(rng, self.CLASS[cmd])
                rd.add_doc(key, doc)
                code, fields = profile_expectation(cmd, _profile(kind, expected))
                rd.add(r, key, [cmd, "--certify"], key, code, fields)


class CorpusSweep(Workload):
    """Every command on every bundled corpus file, then on seeded variants.

    Jobs take milliseconds, so parsing, validation and report encoding are a
    visible share; the many jobs give a real tail.
    """

    name = "corpus-sweep"
    round_seconds = 4.2
    min_rounds = 2
    must_fire = ("cli.parse_presentation", "cli.to_json", "comodule.validate",
                 "comodule.check_crossed_system", "comodule.coinvariants", "comodule.galois_map",
                 "graded.check_grading", "graded.is_strongly_graded",
                 "graded.recognize_group_crossed_product", "algebra.check_axioms")
    # the scrambled dimension-8 file takes seconds here; super-axioms covers it
    SLOW = {("super-scrambled.json", "check"), ("super-scrambled.json", "super-decompose")}

    def __init__(self):
        self._families = {}

    def fill(self, rd, rng, r, seed):
        if r == 0:
            self._fill_corpus(rd)
        else:
            self._fill_variants(rd, rng, r, seed)

    def _sweep(self, rd, r, key, profile):
        for cmd in COMMANDS:
            code, fields = profile_expectation(cmd, profile)
            rd.add(r, "%s/%s" % (key, cmd), [cmd, "--certify"], key, code, fields)

    def _fill_corpus(self, rd):
        corpus = os.path.join(os.path.dirname(hopfcross.__file__), "corpus")
        profiles = corpus_profiles()
        names = sorted(n for n in os.listdir(corpus) if n.endswith(".json"))
        if sorted(profiles) != names:
            raise RuntimeError("the bundled corpus changed: %r" % (names,))
        for name in names:
            rd.add_doc(name, os.path.join(corpus, name))
            for cmd in COMMANDS:
                if (name, cmd) in self.SLOW:
                    continue
                code, fields = profile_expectation(cmd, profiles[name])
                rd.add(0, "%s/%s" % (name, cmd), [cmd, "--certify"], name, code, fields)
        for argv in (["--n", "2"], ["--n", "3"], ["--n", "3", "--prime", "5"]):
            rd.add(0, "pairing-%s" % "-".join(argv[1::2]), ["pairing", "--certify"] + argv,
                   None, 0, {"witnesses.nondegenerate": True})

    def _fill_variants(self, rd, rng, r, seed):
        profiles = corpus_profiles()
        for key, (doc, corpus_name) in sorted(small_corpus_docs(rng).items()):
            rd.add_doc(key, doc)
            self._sweep(rd, r, key, profiles[corpus_name])
        for fname in ("F3", "Q"):
            if fname not in self._families:
                self._families[fname] = CleftFamily(field_of(fname), 3)
            fam = self._families[fname]
            makers = [("hmodule", fam.hmodule_doc, "hmodule"),
                      ("lift", fam.lift_doc, "lift-problem")]
            if fname == "F3":
                makers += [("cleft", fam.cleft_doc, "augmented-comodule-algebra"),
                           ("crossed", fam.crossed_system_doc, "crossed-system")]
            for label, make, kind in makers:
                key = "%s-%s" % (fname, label)
                # the class multiple follows the round, not the seed
                doc, expected = make(rng, r % 3)
                rd.add_doc(key, doc)
                self._sweep(rd, r, key, _profile(kind, expected))
        rd.add(r, "pairing-3", ["pairing", "--certify", "--n", "3", "--prime",
                                str(self.prime(seed, r))],
               None, 0, {"witnesses.nondegenerate": True})


WORKLOADS = {w.name: w for w in (SuperAxioms, DenseKernel, CleftSearch, CorpusSweep)}
