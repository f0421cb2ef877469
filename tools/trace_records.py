"""Print, as Markdown, the record tables of the short traced perfbench passes:
the cleft-layer spans, the search counters, the eliminations, the
super-axioms spans and the dense-kernel spans.

Run each workload's short traced pass first, with its output in
DIR/trace-<workload>.out (the last line of each is its JSON result), then:

    python perfbench/run.py --workload cleft-search --seed 0 --seconds 1 --trace 1 \
        > DIR/trace-cleft-search.out    # and so for the other three workloads
    python tools/trace_records.py DIR

The tables are records, not gates: a missing counter reads "n/a" and nothing
is compared.  It needs nothing beyond the standard library.
"""

import json
import os
import sys

PASS = "--seed 0 --seconds 1 --trace 1"


def span_table(title, metrics, names):
    """Calls and self time of each span, one row each."""
    lines = ["### %s\n" % title, "| span | calls | self_s |", "|---|---|---|"]
    lines += ["| `%s` | %d | %.4f |" % (name, metrics[name + ".calls"]["value"],
                                        metrics[name + ".self_s"]["value"]) for name in names]
    return lines


def workload_table(title, runs, names, prefix=""):
    """One row per workload of runs, one column per metric prefix + name."""
    lines = ["### %s\n" % title, "| workload | %s |" % " | ".join(names),
             "|%s" % ("---|" * (len(names) + 1))]
    for workload, metrics in runs.items():
        values = [metrics.get(prefix + name, {}).get("value", "n/a") for name in names]
        lines.append("| %s | %s |" % (workload, " | ".join(
            "%.4g" % v if isinstance(v, float) else str(v) for v in values)))
    return lines


def records(folder):
    def metrics(workload):
        with open(os.path.join(folder, "trace-%s.out" % workload)) as fh:
            return json.loads(fh.read().splitlines()[-1])["metrics"]

    cleft, sweep = metrics("cleft-search"), metrics("corpus-sweep")
    both = {"cleft-search": cleft, "corpus-sweep": sweep}
    axioms, dense = metrics("super-axioms"), metrics("dense-kernel")
    return [
        span_table("Cleft-layer spans, cleft-search %s" % PASS, cleft,
                   ("comodule.check_crossed_system", "comodule.validate",
                    "comodule.galois_map", "cohomology.hh2")),
        workload_table("Search counters, %s" % PASS, both,
                       ["find_invertible_combination.calls", "tried", "det_calls",
                        "found_per_tried"], prefix="search."),
        workload_table("Eliminations, %s" % PASS, both,
                       ["linalg.rref.Q.calls", "linalg.rref.Fp.calls"]),
        span_table("Super-axioms spans, super-axioms %s" % PASS, axioms,
                   ("superalg.decompose", "superalg.even_quotient",
                    "superalg.duality_pairing"))
        + ["", "`linalg.rref.Q.calls`: %d" % axioms["linalg.rref.Q.calls"]["value"]],
        span_table("Dense-kernel spans, dense-kernel %s" % PASS, dense,
                   ("superalg.duality_pairing", "superalg.decompose", "algebra.check_axioms")),
    ]


def main(argv):
    print("\n\n".join("\n".join(table) for table in records(argv[0])))


if __name__ == "__main__":
    main(sys.argv[1:])
