"""Spans around the public entry points of each hopfcross module.

The wrappers live here, not in the program: `install` rebinds every target
name in every hopfcross module that holds it (and methods on their class),
then checks that nothing still points at an original.  A span records its
name, start, end, parent span and job id; spans stay in memory until `dump`.
Self time is a span's duration minus the time its direct children cover.
"""

import json
import sys
import time

# (span name, module, class or None, attribute).  rref and det get a .Q or
# .Fp suffix from the matrix's field at call time.
TARGETS = (
    ("cli.parse_presentation", "hopfcross.cli", None, "parse_presentation"),
    ("cli.to_json", "hopfcross.cli", "Report", "to_json"),
    ("linalg.rref", "hopfcross.linalg", "Matrix", "rref"),
    ("linalg.det", "hopfcross.linalg", "Matrix", "det"),
    ("linalg.solve_linear", "hopfcross.linalg", None, "solve_linear"),
    ("linalg.matmul", "hopfcross.linalg", "Matrix", "__mul__"),
    ("search.find_invertible_combination", "hopfcross.search", None,
     "find_invertible_combination"),
    ("algebra.check_axioms", "hopfcross.algebra", None, "check_axioms"),
    ("algebra.convolution_invert", "hopfcross.algebra", None, "convolution_invert"),
    ("algebra.compute_antipode", "hopfcross.algebra", None, "compute_antipode"),
    ("algebra.dual_hopf", "hopfcross.algebra", None, "dual_hopf"),
    ("superalg.check_super_axioms", "hopfcross.superalg", "SuperPresentation",
     "check_super_axioms"),
    ("superalg.decompose", "hopfcross.superalg", None, "decompose"),
    ("superalg.even_quotient", "hopfcross.superalg", None, "even_quotient"),
    ("superalg.duality_pairing", "hopfcross.superalg", None, "duality_pairing"),
    ("comodule.validate", "hopfcross.comodule", "ComoduleAlgebra", "validate"),
    ("comodule.check_crossed_system", "hopfcross.comodule", None, "check_crossed_system"),
    ("comodule.colinear_map_space", "hopfcross.comodule", None, "colinear_map_space"),
    ("comodule.find_section", "hopfcross.comodule", None, "find_section"),
    ("comodule.coinvariants", "hopfcross.comodule", None, "coinvariants"),
    ("comodule.galois_map", "hopfcross.comodule", None, "galois_map"),
    ("cohomology.hh2", "hopfcross.cohomology", None, "hh2"),
    ("cohomology.classify_cleft_extension", "hopfcross.cohomology", None,
     "classify_cleft_extension"),
    ("cohomology.split_extension", "hopfcross.cohomology", None, "split_extension"),
    ("cohomology.lift_comodule_algebra_map", "hopfcross.cohomology", None,
     "lift_comodule_algebra_map"),
    ("graded.check_grading", "hopfcross.graded", None, "check_grading"),
    ("graded.is_strongly_graded", "hopfcross.graded", None, "is_strongly_graded"),
    ("graded.recognize_group_crossed_product", "hopfcross.graded", None,
     "recognize_group_crossed_product"),
)

BY_FIELD = ("linalg.rref", "linalg.det")
SEARCH = "search.find_invertible_combination"


def span_names():
    """Every span name a traced run can report, in report order."""
    out = []
    for name, _, _, _ in TARGETS:
        out.extend([name + ".Q", name + ".Fp"] if name in BY_FIELD else [name])
    return out


class TraceSetupError(RuntimeError):
    pass


def _field_suffix(matrix):
    return ".Q" if matrix.field.characteristic == 0 else ".Fp"


class Tracer:
    """Keeps spans and counters for one traced run.

    Spans are recorded only while a job is running (`job` is set), so input
    generation between jobs leaves no spans.
    """

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, job id]
        self.stack = []
        self.job = None
        self.search_depth = 0
        self.counters = {"search.tried": 0, "search.found": 0, "search.det_calls": 0,
                         "linalg.rref.Q.ops": 0, "linalg.rref.Fp.ops": 0}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter
        by_field = name in BY_FIELD
        is_search = name == SEARCH
        is_rref = name == "linalg.rref"
        is_det = name == "linalg.det"
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            label = name + _field_suffix(args[0]) if by_field else name
            if is_det and tracer.search_depth:
                counters["search.det_calls"] += 1
            if is_search:
                tracer.search_depth += 1
            idx = len(spans)
            spans.append([label, clock(), None, stack[-1] if stack else -1, tracer.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
                if is_search:
                    tracer.search_depth -= 1
            if is_search:
                counters["search.tried"] += result.tried
                counters["search.found"] += int(result.found)
            elif is_rref:
                m = args[0]
                counters[label + ".ops"] += len(result[1]) * m.rows * (m.rows + m.cols)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Rebind every target; raise TraceSetupError if one cannot be."""
        modules = {k: m for k, m in sys.modules.items()
                   if m is not None and (k == "hopfcross" or k.startswith("hopfcross."))}
        originals = []
        for name, modname, clsname, attr in TARGETS:
            mod = modules.get(modname)
            if mod is None:
                raise TraceSetupError("module %s is not loaded" % modname)
            owner = mod if clsname is None else getattr(mod, clsname, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                raise TraceSetupError("%s.%s%s no longer exists"
                                      % (modname, clsname + "." if clsname else "", attr))
            wrapper = self._wrap(name, fn)
            if clsname is not None:
                setattr(owner, attr, wrapper)
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
            originals.append((name, fn))
        # nothing in the program may still reach an original directly
        for name, fn in originals:
            for modname, m in modules.items():
                for key, value in vars(m).items():
                    if value is fn:
                        raise TraceSetupError("%s.%s still holds the unwrapped %s"
                                              % (modname, key, name))
        for name, modname, clsname, attr in TARGETS:
            if clsname is not None:
                bound = getattr(getattr(modules[modname], clsname), attr)
                if getattr(bound, "__wrapped__", None) is None:
                    raise TraceSetupError("%s.%s.%s is not wrapped" % (modname, clsname, attr))

    # -- results ------------------------------------------------------------

    def totals(self, scale):
        """{span name: [calls, self seconds]} over every recorded span, each
        span's self time multiplied by scale[its job id] (1 if absent)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in span_names()}
        for i, (name, start, end, _, job) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += ((end - start) - child[i]) * scale.get(job, 1.0)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "job"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
