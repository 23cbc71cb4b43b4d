"""What a serving process imports: the csr path loads neither networkx
nor numpy.

Each case runs in a fresh interpreter, because ``sys.modules`` of the
test process already holds whatever earlier tests imported.  The first
case drives every serving operation — two- and three-keyword texts,
instance-ambiguity ranking, explanations of loose answers and grouping
before and after a write, cold build and ``open(wal=True)`` alike — and
then checks the two modules were never loaded; the second checks that ``import repro``
leaves :mod:`repro.oracle` unloaded, that ``repro.oracle.search`` and
the multigraph import networkx and the oracle answers as the csr path
does, and that nothing loads numpy.
"""

import json
import os
import subprocess
import sys

import pytest

SERVING = """
import json, os, sys, tempfile
from repro import KeywordSearchEngine, build_company_database
from repro.core.presentation import group_results
from repro.core.ranking import InstanceAmbiguityRanker
from repro.live.changes import Insert

QUERY = "Smith XML"
# Three keywords: joining networks, scored on their spanning trees.
NETWORKS = "Smith XML Alice"


def rendered(results):
    return [(result.render(), result.score) for result in results]


def instance_level(engine):
    results = engine.search(QUERY, ranker=InstanceAmbiguityRanker())
    explained = [engine.explain(result) for result in results]
    assert any("instance level" in text for text in explained)  # a loose one
    assert group_results(results)


def serve(engine, new_id):
    instance_level(engine)
    for query in (QUERY, NETWORKS):
        answers = {
            semantics: rendered(engine.search(query, semantics=semantics))
            for semantics in ("and", "or")
        }
        assert answers["and"] and answers["or"]
        for semantics, expected in answers.items():
            assert rendered(
                engine.search_stream(query, semantics=semantics)
            ) == expected
            batch = engine.search_batch(
                [query, "Alice XML"], semantics=semantics, jobs=2
            )
            assert rendered(batch[0]) == expected
    engine.apply([Insert("DEPENDENT", {"ID": new_id, "ESSN": "e1",
                                       "DEPENDENT_NAME": "Smith"})])
    assert engine.search(QUERY)
    instance_level(engine)


with tempfile.TemporaryDirectory() as tmp:
    cold = KeywordSearchEngine(build_company_database())
    serve(cold, "h1")
    path = os.path.join(tmp, "engine.snap")
    cold.save(path)
    cold.close()
    restored = KeywordSearchEngine.open(path, wal=True)
    serve(restored, "h2")
    restored.compact_wal()
    restored.save(os.path.join(tmp, "again.snap"))
    restored.close()
print(json.dumps({
    "loaded": sorted(
        name
        for name in ("networkx", "numpy", "multiprocessing.shared_memory")
        if name in sys.modules
    ),
}))
"""

ORACLE = """
import json, sys
from repro import KeywordSearchEngine, build_company_database

TEXTS = ("Smith XML", "Smith XML Alice")


def rendered(results):
    return [(result.render(), result.score) for result in results]


database = build_company_database()
csr = KeywordSearchEngine(database)
served = {
    (text, semantics): rendered(csr.search(text, semantics=semantics))
    for text in TEXTS
    for semantics in ("and", "or")
}
assert "networkx" not in sys.modules
assert "repro.oracle" not in sys.modules
import repro.oracle

assert "networkx" not in sys.modules
for (text, semantics), expected in served.items():
    assert expected
    assert rendered(
        repro.oracle.search(database, text, semantics=semantics)
    ) == expected
assert "networkx" in sys.modules
graph = csr.data_graph.graph
assert graph.number_of_nodes() == database.count()
print(json.dumps({
    "loaded": sorted(name for name in ("networkx", "numpy")
                     if name in sys.modules),
}))
"""


def run_fresh(code):
    """Run ``code`` in a new interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=os.getcwd(),
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_serving_path_loads_neither_networkx_nor_numpy():
    assert run_fresh(SERVING)["loaded"] == []


def test_oracle_paths_still_import_what_they_need():
    pytest.importorskip("networkx")
    assert run_fresh(ORACLE)["loaded"] == ["networkx"]
