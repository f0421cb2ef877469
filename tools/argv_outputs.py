"""Print the exit code, stdout and stderr of `hopfcross.cli.main` on a fixed
list of argument vectors, each run twice in one process, as one JSON document.

Run from the root of a checkout, under any CPython the project supports:

    python tools/argv_outputs.py > outputs.json

Two such files, from two interpreters or from two trees, can then be compared
byte for byte.  It needs nothing beyond the standard library.  File arguments
are corpus names and the calls run in the corpus directory, so the output does
not depend on where the checkout lives; COLUMNS is fixed at 80, so the usage
and help text do not depend on the terminal.
"""

import contextlib
import io
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

CASES = [
    # rejected by argparse or by main's own checks (exit 2 through SystemExit)
    ["antipode", "kz2.json", "--kind", "hopf"],
    ["antipode", "kz2.json", "--n", "3"],
    ["pairing", "kz2.json", "--n", "3"],
    ["pairing"],
    ["check"],
    ["frobnicate", "kz2.json"],
    [],
    ["check", "kz2.json", "--kind"],
    ["dual", "kz2.json", "--prime", "5"],
    ["check", "kz2.json", "--budget", "many"],
    # help, an abbreviated option, a bad int and an extra positional
    ["-h"],
    ["antipode", "ks3.json", "--cert", "--json"],
    ["find-section", "f3z3-cleft.json", "--seed", "x"],
    ["check", "kz2.json", "kz3-f3.json"],
    # accepted
    ["check", "--kind", "hopf", "kz2.json", "--json"],
    ["pairing", "--n", "2", "--json"],
    # the exterior construction on bitmasks, over F_p and inside a decomposition
    ["pairing", "--n", "4", "--prime", "7", "--json"],
    ["super-decompose", "lambda3.json", "--json"],
    # a strong grading, re-checked through the Galois map without --certify
    ["strongly-graded", "m2-z2-graded.json", "--json"],
    # a bialgebra whose identity has no convolution inverse
    ["antipode", "monoid2.json", "--json"],
    # the structure-map checks of sections, splittings and lifts
    ["recognize-cleft", "f3z3-cleft.json", "--json"],
    ["classify-cleft", "f3z3-cleft.json", "--json"],
    ["lift", "lift-split.json", "--json"],
    ["lift", "lift-obstructed.json", "--json"],
    # the Galois map out of A (x)_B A, bijective and not
    ["galois", "f3z3-cleft.json", "--json"],
    ["galois", "kx2-graded.json", "--json"],
    # on each side of the plain argv that main reads without argparse: an
    # option first (plain), then a repeated option, the --opt=value form, a
    # negative value and the end of options (each read by argparse)
    ["--json", "check", "kz2.json"],
    ["check", "kz2.json", "--json", "--json"],
    ["find-section", "f3z3-cleft.json", "--seed=3", "--json"],
    ["find-section", "f3z3-cleft.json", "--seed", "-1", "--json"],
    ["check", "--", "kz2.json"],
    # input errors of pairing: a modulus that is not prime, a negative n
    ["pairing", "--n", "2", "--prime", "4", "--json"],
    ["pairing", "--n", "-1", "--json"],
    # a grading that is not strong, which gets no Galois check
    ["strongly-graded", "kx2-graded.json", "--json"],
    # the first n above the bound of pairing, rejected before Lambda(n) is built
    ["pairing", "--n", "9", "--json"],
    # a decomposition whose certificates hold rationals with a denominator
    ["super-decompose", "super-scrambled.json", "--json"],
    # the coinvariants of a grading, read off its neutral component
    ["coinvariants", "m2-z2-graded.json", "--json"],
    ["galois", "m2-z2-graded.json", "--json"],
    ["find-section", "m2-z2-graded.json", "--json"],
    # k^{S3} has no generating set of its own, so its Hopf laws are decided
    # on its dual
    ["dual", "ks3.json", "--json"],
    # the unit and counit as native rows: the unit search of a grading, a
    # splitting and an HH^2 class read off augmentation blocks, and a smash
    # coproduct's counit
    ["recognize-crossed", "m2-z2-graded.json", "--json"],
    ["recognize-crossed", "kx2-graded.json", "--json"],
    ["split", "f3z3-cleft.json", "--json"],
    ["hh2", "f3z3-hmodule.json", "--json"],
    ["smash-coproduct", "smash-example.json", "--json"],
    # the Hopf superalgebra laws through check, on a dense basis and on the
    # monomial basis, where the generating set is chosen by its weight
    ["check", "super-scrambled.json", "--json"],
    ["check", "lambda3.json", "--json"],
    # the pairing at every size whose certificate is self-duality alone:
    # Lambda(0) and Lambda(1) beside their super axiom check, the bound and
    # the sizes on each side of it
    ["pairing", "--n", "0", "--json"],
    ["pairing", "--n", "1", "--json"],
    ["pairing", "--n", "7", "--json"],
    ["pairing", "--n", "8", "--json"],
    ["pairing", "--n", "6", "--prime", "3", "--json"],
]


def run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = "SystemExit(%r)" % (e.code,)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def outputs():
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hopfcross.cli import main

    os.chdir(os.path.join(ROOT, "src", "hopfcross", "corpus"))
    return [run(main, argv) for _ in range(2) for argv in CASES]


if __name__ == "__main__":
    json.dump(outputs(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
