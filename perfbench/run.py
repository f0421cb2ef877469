"""hopfcross benchmark: seeded CLI job lists, checked answers, timed verdicts.

Run from the root of a hopfcross checkout:

    python3 perfbench/run.py --workload cleft-search --seed 3 --seconds 25 --trace 0

One process, one thread, one closed-loop client: each job is a call of
`hopfcross.cli.main([...,"--json"])` on a generated input file, and the
next job starts when it returns.  Times are wall times scaled to the
machine's reference speed (clock.py).  The last line of standard output is
the JSON result; the line before it is a summary with the job count, the
percentile behind verdict_s.tail, the unscaled wall times and the first
few failures.  WORKLOADS.md describes the workloads and metrics.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the job list
twice more on fresh inputs, first plain and then with spans around every
public entry point in `spans.TARGETS`, and prints the per-layer metrics.
--record-digests runs the canonical round and rewrites digests.json.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import spans
from clock import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile
OWN_MODULES = ("inputs", "workloads")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def doc_bytes(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# set-up


def fresh_import():
    """Import hopfcross and the generators from scratch."""
    for name in list(sys.modules):
        if name == "hopfcross" or name.startswith("hopfcross.") or name in OWN_MODULES:
            del sys.modules[name]
    import workloads  # noqa: imports hopfcross and inputs

    return workloads


class Materialized:
    """A round whose documents are on disk: {doc key: (path, input digest)}."""

    def __init__(self, rd, directory):
        os.makedirs(directory, exist_ok=True)
        self.jobs = rd.jobs
        self.files = {}
        for key, doc in rd.docs.items():
            if isinstance(doc, str):  # a bundled corpus file, used in place
                with open(doc, "rb") as fh:
                    self.files[key] = (doc, sha256(fh.read()))
                continue
            data = doc_bytes(doc)
            path = os.path.join(directory, key.replace("/", "_") + ".json")
            with open(path, "wb") as fh:
                fh.write(data)
            self.files[key] = (path, sha256(data))


def setup(workload_name, seed, workdir, src, clock):
    """Import the program from scratch and write round 0.

    Returns (hopfcross.cli, workload, round 0, (scaled, wall) seconds taken).
    """
    before = clock.sample()
    start = time.perf_counter()
    wl_mod = fresh_import()
    if workload_name not in wl_mod.WORKLOADS:
        raise BenchError("unknown workload %r; choose one of %s"
                         % (workload_name, ", ".join(sorted(wl_mod.WORKLOADS))))
    workload = wl_mod.WORKLOADS[workload_name]()
    first = Materialized(workload.build(seed, 0), os.path.join(workdir, "r0"))
    seconds = time.perf_counter() - start
    clock.sample()
    cli = sys.modules["hopfcross.cli"]
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise BenchError("imported hopfcross from %s, not from %s" % (cli.__file__, src))
    return cli, workload, first, (seconds * clock.factor(before), seconds)


# ---------------------------------------------------------------------------
# jobs


MISSING = object()


def lookup(report, path):
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return MISSING
        node = node[part]
    return node


class Outcome:
    def __init__(self, job, seconds, exit_code, report_bytes, faults):
        self.job = job
        self.seconds = seconds  # wall time
        self.scaled = None      # wall time at the reference speed (clock.py)
        self.exit_code = exit_code
        self.report_bytes = report_bytes
        self.faults = faults


def run_job(cli, job, path, tracer=None):
    argv = job.argv[:1] + ([path] if path else []) + job.argv[1:] + ["--json"]
    out, err = io.StringIO(), io.StringIO()
    faults = []
    code = None
    if tracer is not None:
        tracer.job = job.id
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejects its arguments this way
        faults.append("exit through SystemExit(%r)" % (e.code,))
    except Exception as e:  # a crash is a fault of this job, not of the run
        faults.append("exception %s: %s" % (type(e).__name__, e))
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.job = None
    data = out.getvalue().encode()
    if code is not None and code != job.exit_code:
        faults.append("exit code %r, expected %r (%s)"
                      % (code, job.exit_code, err.getvalue().strip()[:200]))
    if code is not None:
        try:
            report = json.loads(data.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            faults.append("report is not JSON")
            report = {}
        for path_, want in job.fields.items():
            got = lookup(report, path_)
            ok = got is not MISSING and (want(got) if callable(want) else got == want)
            if not ok:
                faults.append("%s = %s" % (path_, "missing" if got is MISSING
                                           else json.dumps(got)[:120]))
    return Outcome(job, seconds, code, data, faults)


def run_round(cli, mat, clock, tracer=None):
    """Run a round's jobs, sampling the clock between them, and scale their times."""
    outcomes, before = [], []
    for job in mat.jobs:
        if clock.due():
            clock.sample()
        path = mat.files[job.doc_key][0] if job.doc_key is not None else None
        before.append(len(clock.samples) - 1)
        outcomes.append(run_job(cli, job, path, tracer))
        if clock.due():
            clock.sample()
    clock.sample()
    for o, b in zip(outcomes, before):
        o.scaled = o.seconds * clock.factor(b)
    return outcomes


def run_rounds(cli, workload, seed, numbers, workdir, clock, tracer=None):
    """Run the given rounds; inputs are generated before each round, untimed."""
    outcomes = []
    for r in numbers:
        directory = os.path.join(workdir, "r%d" % r)
        mat = Materialized(workload.build(seed, r), directory)
        outcomes += run_round(cli, mat, clock, tracer)
        shutil.rmtree(directory, ignore_errors=True)
    return outcomes


# ---------------------------------------------------------------------------
# digests


def load_digests(workload):
    try:
        with open(DIGESTS) as fh:
            table = json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (DIGESTS, e))
    if workload not in table:
        raise BenchError("no digests recorded for %s; run with --record-digests" % workload)
    return table[workload]


def check_digests(recorded, mat, outcomes):
    """Mark jobs on changed inputs as failed; return (reports compared, drifted)."""
    for outcome in outcomes:
        key = outcome.job.doc_key
        if key is None:
            continue
        want = recorded["inputs"].get(key)
        if want != mat.files[key][1]:
            outcome.faults.append("input %s changed (digest %s, recorded %s)"
                                  % (key, mat.files[key][1][:12], str(want)[:12]))
    compared = drifted = 0
    for outcome in outcomes:
        want = recorded["reports"].get(outcome.job.id)
        if want is None:
            continue
        compared += 1
        drifted += sha256(outcome.report_bytes) != want
    if compared != len(outcomes):
        raise BenchError("digests cover %d of %d canonical jobs" % (compared, len(outcomes)))
    return compared, drifted


def record_digests(workload_name, mat, outcomes):
    bad = [o for o in outcomes if o.faults]
    if bad:
        raise BenchError("not recording: %d canonical jobs fail, first %s: %s"
                         % (len(bad), bad[0].job.id, bad[0].faults))
    try:
        with open(DIGESTS) as fh:
            table = json.load(fh)
    except OSError:
        table = {}
    table[workload_name] = {
        "inputs": {key: digest for key, (_, digest) in sorted(mat.files.items())},
        "reports": {o.job.id: sha256(o.report_bytes) for o in outcomes},
    }
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        raise BenchError("%d jobs are too few for a tail" % n)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_times, outcomes, compared, drifted):
    """Metrics from scaled times; their wall-clock counterparts go to the summary."""
    seconds = [o.scaled for o in outcomes]
    wall = [o.seconds for o in outcomes]
    failed = sum(1 for o in outcomes if o.faults)
    tail_value, tail_pct = tail(seconds)
    metrics = {
        "setup_s": metric(statistics.median(s for s, _ in setup_times), "s"),
        "run_s": metric(sum(seconds), "s"),
        "verdict_s.p50": metric(statistics.median(seconds), "s"),
        "verdict_s.tail": metric(tail_value, "s"),
        "correct_frac": metric(1.0 - failed / len(outcomes), "frac"),
        "report_match_frac": metric(1.0 - drifted / compared, "frac"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB"),
    }
    summary = {"tail_percentile": tail_pct, "failed_frac": failed / len(outcomes),
               "report_drift_frac": drifted / compared, "reports_compared": compared,
               "wall": {"setup_s": statistics.median(w for _, w in setup_times),
                        "run_s": sum(wall), "verdict_s.p50": statistics.median(wall),
                        "verdict_s.tail": tail(wall)[0]}}
    return metrics, summary


def per_layer(tracer, plain, traced):
    metrics = {}
    scale = {o.job.id: o.scaled / o.seconds for o in traced if o.seconds}
    for name, (calls, self_s) in tracer.totals(scale).items():
        metrics[name + ".calls"] = metric(calls, "count")
        metrics[name + ".self_s"] = metric(self_s, "s")
    for field in ("Q", "Fp"):
        key = "linalg.rref.%s.ops" % field
        metrics[key] = metric(tracer.counters[key], "ops_computed")
    tried = tracer.counters["search.tried"]
    metrics["search.tried"] = metric(tried, "count")
    metrics["search.found_per_tried"] = metric(
        tracer.counters["search.found"] / tried if tried else 0.0, "frac")
    metrics["search.det_calls"] = metric(tracer.counters["search.det_calls"], "count")
    plain_s = sum(o.scaled for o in plain)
    traced_s = sum(o.scaled for o in traced)
    metrics["trace.overhead_frac"] = metric(traced_s / plain_s - 1.0, "frac")
    return metrics


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="run the canonical round and rewrite digests.json")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hopfcross", "cli.py")):
        raise BenchError("%s has no src/hopfcross: run from the root of a checkout" % root)
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    workdir = os.path.join(root, ".perfbench-out", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    clock = Clock()
    cli, workload, first, setup_s = setup(args.workload, args.seed, workdir, src, clock)

    if args.record_digests:
        outcomes = run_round(cli, first, clock)
        record_digests(args.workload, first, outcomes)
        print(json.dumps({"recorded": args.workload, "jobs": len(outcomes)}))
        return 0

    rounds = workload.rounds(args.seconds)
    if args.trace:
        # fresh rounds only: the canonical round is for the plain run's digests
        plain = run_rounds(cli, workload, args.seed, range(1, rounds + 1), workdir, clock)
        tracer = spans.Tracer()
        tracer.install()
        traced = run_rounds(cli, workload, args.seed, range(rounds + 1, 2 * rounds + 1),
                            workdir, clock, tracer)
        totals = tracer.totals({})
        silent = [n for n in workload.must_fire if totals[n][0] == 0]
        if silent:
            raise BenchError("spans that must fire on %s never did: %s"
                             % (args.workload, ", ".join(silent)))
        trace_path = os.path.join(root, ".perfbench-out",
                                  "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.dump(trace_path)
        outcomes = plain + traced
        metrics = per_layer(tracer, plain, traced)
        summary = {"spans": len(tracer.spans), "spans_file": os.path.relpath(trace_path, root)}
    else:
        canonical = run_round(cli, first, clock)
        compared, drifted = check_digests(load_digests(args.workload), first, canonical)
        outcomes = canonical
        # set up again before every later round and then up to SETUP_REPEATS,
        # so the median set-up time samples the whole run, not its first second
        setup_times = [setup_s]
        for r in range(1, max(rounds, SETUP_REPEATS)):
            cli, workload, first, setup_s = setup(args.workload, args.seed, workdir, src, clock)
            setup_times.append(setup_s)
            if r < rounds:
                outcomes += run_rounds(cli, workload, args.seed, [r], workdir, clock)
        metrics, summary = end_to_end(setup_times, outcomes, compared, drifted)
    shutil.rmtree(workdir, ignore_errors=True)

    failures = [o for o in outcomes if o.faults]
    summary.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "jobs": len(outcomes),
        "failures": [[o.job.id] + o.faults for o in failures[:5]],
    })
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, spans.TraceSetupError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
