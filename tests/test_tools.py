"""tools/make_corpus.py still runs against the package and regenerates the
bundled corpus byte for byte."""

import importlib.util
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
