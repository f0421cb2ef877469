"""tools/make_corpus.py still runs against the package and regenerates the
bundled corpus byte for byte, and tools/trace_records.py writes its tables."""

import importlib.util
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
CORPUS = os.path.join(ROOT, "src", "hopfcross", "corpus")


def test_make_corpus_regenerates_the_bundled_corpus(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/
    spec = importlib.util.spec_from_file_location(
        "make_corpus", os.path.join(ROOT, "tools", "make_corpus.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT", str(tmp_path))
    tool.main()
    made = sorted(os.listdir(tmp_path))
    assert made == sorted(os.listdir(CORPUS))
    for name in made:
        with open(tmp_path / name, "rb") as new, open(os.path.join(CORPUS, name), "rb") as old:
            assert new.read() == old.read(), name


def test_trace_records_writes_five_tables(tmp_path, capsys):
    # every metric the tables read, as the last line of each workload's output
    spec = importlib.util.spec_from_file_location(
        "trace_records", os.path.join(ROOT, "tools", "trace_records.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    metrics = {name + suffix: {"value": value}
               for name in ("comodule.check_crossed_system", "comodule.validate",
                            "comodule.galois_map", "cohomology.hh2", "superalg.decompose",
                            "superalg.even_quotient", "superalg.duality_pairing",
                            "algebra.check_axioms", "linalg.rref.Q", "linalg.rref.Fp")
               for suffix, value in ((".calls", 3), (".self_s", 0.25))}
    for workload in ("super-axioms", "dense-kernel", "cleft-search", "corpus-sweep"):
        (tmp_path / ("trace-%s.out" % workload)).write_text(
            "progress\n" + json.dumps({"metrics": metrics}) + "\n")
    tool.main([str(tmp_path)])
    out = capsys.readouterr().out
    assert out.count("### ") == 5
    # a counter the pass did not record reads n/a
    assert "| cleft-search | n/a | n/a | n/a | n/a |" in out
    assert "| `cohomology.hh2` | 3 | 0.2500 |" in out
