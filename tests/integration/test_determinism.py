"""Answers depend neither on the hash seed nor on insertion order.

The engine's answers are ranked lists held bit-identical across
processes, so no output may follow the iteration order of a set.  Two
kinds of test hold that contract by behaviour.

* **Across hash seeds.**  :func:`probe` runs in two child processes,
  one after the other, under ``PYTHONHASHSEED`` 0 and 9: two- and
  three-keyword searches, AND and OR, full and ``top_k``, single tuples
  covering several keywords, ``repro mtjnt`` and the bytes ``save``
  writes, over the paper's company example and the generated ``bib``
  corpus at ``tiny``.  Every section of their output must be identical.
  A set of strings or of tuple ids iterates in a seed-dependent order,
  so a place that lets one reach an output shows here.
* **Across insertion orders.**  A set of ints iterates in the same order
  under every seed, so each place that sorts a set before its order
  reaches an output also has a test below that feeds it the same content
  in different orders: rows stored shuffled, a compiled graph that
  interned some tuples through live inserts (node ints out of key
  order), a batch listed backwards, or a container whose iteration order
  the test picks.

Run this file as a script (``python tests/integration/test_determinism.py
OUT_DIR`` with ``src`` and ``tests`` on ``PYTHONPATH``) to print the
probe's sections as JSON and write its snapshots under ``OUT_DIR``.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import JoiningNetwork, SearchLimits, SingleTupleAnswer
from repro.datasets.company import build_company_database, build_company_schema
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.graph.csr import FrozenGraph, csr_enumerate_joining_trees
from repro.graph.data_graph import DataGraph
from repro.graph.traversal import enumerate_joining_trees
from repro.live.changes import Delete, Insert, apply_to_database
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema

REPO = Path(__file__).resolve().parents[2]
SEEDS = ("0", "9")

# ----------------------------------------------------------------------
# across hash seeds
# ----------------------------------------------------------------------
def bib_two(bib):
    return [" ".join(bib.head_words[60:62])]


def bib_three(bib):
    return [" ".join(bib.head_words[60:63])]


def bib_title_pairs(bib):
    """Two words of one paper title: that paper covers both."""
    return [" ".join(title.split()[at:at + 2])
            for __, title, __ in bib.papers[:4] for at in (0, 2)]


#: ``(section, database, text, semantics, top_k)``; a ``bib`` section's
#: texts are a function of the corpus.
SEARCHES = [
    ("company-and-2", "company", "Smith XML", "and", None),
    ("company-and-2-top3", "company", "Smith XML", "and", 3),
    ("company-or-2", "company", "Smith XML", "or", None),
    ("company-and-3", "company", "Smith XML Alice", "and", None),
    ("company-and-3-top3", "company", "Smith XML Alice", "and", 3),
    ("company-or-3", "company", "Smith XML Alice", "or", None),
    ("company-or-3-top5", "company", "Smith XML Alice", "or", 5),
    # d1 holds both words: a single tuple covering two keywords
    ("company-single-tuple", "company", "XML Databases", "and", None),
    ("company-single-tuple-or", "company", "XML Databases", "or", 3),
    ("bib-and-2", "bib", bib_two, "and", None),
    ("bib-and-2-top5", "bib", bib_two, "and", 5),
    ("bib-or-2", "bib", bib_two, "or", None),
    ("bib-and-3", "bib", bib_three, "and", None),
    ("bib-and-3-top5", "bib", bib_three, "and", 5),
    ("bib-or-3", "bib", bib_three, "or", None),
    ("bib-or-3-top5", "bib", bib_three, "or", 5),
    ("bib-single-tuples", "bib", bib_title_pairs, "and", None),
]
MTJNTS = [("mtjnt-company-2", "Smith XML"), ("mtjnt-company-3", "Smith XML Alice")]
SAVES = ["company", "bib"]


def _rendered(results) -> str:
    return "\n".join(
        f"{result.rank}\t{result.score!r}\t{result.render()}"
        for result in results
    )


def probe(out_dir) -> dict[str, str]:
    """Every probe section's text; each ``save`` writes ``OUT_DIR/<db>.snap``."""
    from repro import cli
    from stored_rows import bib_corpus

    bib = bib_corpus("tiny", 11)
    engines = {
        "company": KeywordSearchEngine(build_company_database()),
        "bib": KeywordSearchEngine(bib.database()),
    }
    sections = {}
    for section, name, text, semantics, top_k in SEARCHES:
        texts = text(bib) if callable(text) else [text]
        sections[section] = "\n\n".join(
            text + "\n" + _rendered(engines[name].search(
                text, semantics=semantics, top_k=top_k
            ))
            for text in texts
        )
    for section, text in MTJNTS:
        out = io.StringIO()
        code = cli.main(["mtjnt", text], out=out)
        sections[section] = f"{code}\n{out.getvalue()}"
    for name in SAVES:
        engines[name].save(Path(out_dir) / f"{name}.snap")
    return sections


@pytest.fixture(scope="module")
def seeded_runs(tmp_path_factory):
    """The probe's sections and snapshot directory under each seed,
    run one after the other."""
    runs = {}
    for seed in SEEDS:
        out_dir = tmp_path_factory.mktemp(f"hashseed{seed}")
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src"), str(REPO / "tests")]
        ))
        completed = subprocess.run(
            [sys.executable, __file__, str(out_dir)],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        runs[seed] = (json.loads(completed.stdout), out_dir)
    return runs


class TestAcrossHashSeeds:
    @pytest.mark.parametrize(
        "section", [entry[0] for entry in SEARCHES + MTJNTS]
    )
    def test_output_is_identical(self, seeded_runs, section):
        (first, __), (second, __) = seeded_runs.values()
        assert first[section], section
        assert first[section] == second[section]

    @pytest.mark.parametrize("name", SAVES)
    def test_saved_bytes_are_identical(self, seeded_runs, name):
        (__, first), (__, second) = seeded_runs.values()
        assert (first / f"{name}.snap").read_bytes() == (
            second / f"{name}.snap"
        ).read_bytes()


# ----------------------------------------------------------------------
# across insertion orders
# ----------------------------------------------------------------------
class InOrder(frozenset):
    """A frozenset that iterates in the order it was given: one process
    sees two iteration orders of the same content."""

    def __new__(cls, items):
        items = list(items)
        made = super().__new__(cls, items)
        made.order = items
        return made

    def __iter__(self):
        return iter(self.order)


def planted_company(seed=5):
    """A generated company database with three planted keywords."""
    database = generate_company_like(SyntheticConfig(
        departments=4, projects_per_department=2, employees_per_department=6,
        seed=seed,
    ))
    plant(database, "kwalpha", "EMPLOYEE", "L_NAME", 2, seed=seed)
    plant(database, "kwbeta", "PROJECT", "P_DESCRIPTION", 2, seed=seed + 1)
    plant(database, "kwgamma", "DEPARTMENT", "D_DESCRIPTION", 2, seed=seed + 2)
    return database


DATABASES = {
    "company": (build_company_database, "Smith XML Alice"),
    "planted": (planted_company, "kwalpha kwbeta kwgamma"),
}


def shuffled_copy(database, seed):
    """The same rows, stored in a seeded random order: relations, and
    the rows within each."""
    rng = random.Random(seed)
    copy = Database(database.schema, enforce_foreign_keys=False)
    names = [relation.name for relation in database.schema.relations]
    rng.shuffle(names)
    for name in names:
        rows = list(database.tuples(name))
        rng.shuffle(rows)
        for row in rows:
            copy.insert(name, dict(row.values), label=row.label)
    copy.enforce_foreign_keys = True
    return copy


def grown_engine(database, seed, share=0.15):
    """An engine over the same rows that interned some of them through
    one live batch, so its node ints no longer follow key order: built
    cold without a random ``share`` of the tuples (and every tuple that
    references one of those), which ``apply`` then inserts."""
    rng = random.Random(seed)
    schema = database.schema
    rows = [row for relation in schema.relations
            for row in database.tuples(relation.name)]
    referencing = {row.tid: [] for row in rows}
    references = {row.tid: [] for row in rows}
    for row in rows:
        for fk in schema.foreign_keys_from(row.tid.relation):
            target = database.referenced_id(row.values, fk)
            if target is not None and target != row.tid:
                referencing[target].append(row.tid)
                references[row.tid].append(target)
    held = set()
    pending = rng.sample([row.tid for row in rows], int(share * len(rows)))
    while pending:
        tid = pending.pop()
        if tid not in held:
            held.add(tid)
            pending.extend(referencing[tid])
    base = Database(schema, enforce_foreign_keys=False)
    for row in rows:
        if row.tid not in held:
            base.insert(row.tid.relation, dict(row.values), label=row.label)
    engine = KeywordSearchEngine(base)
    frozen = engine.traversal_cache.frozen()
    frozen.compaction_threshold = 1.0  # no fold back into key order
    # Shuffled, but each tuple after the tuples it references.
    later = [row.tid for row in rows if row.tid in held]
    rng.shuffle(later)
    batch, placed = [], set()

    def place(tid):
        if tid not in placed:
            placed.add(tid)
            for target in references[tid]:
                if target in held:
                    place(target)
            row = database.tuple(tid)
            batch.append(Insert(tid.relation, dict(row.values), label=row.label))

    for tid in later:
        place(tid)
    engine.apply(batch)
    assert engine.traversal_cache.frozen() is frozen
    assert not frozen._ints_sorted
    return engine


ORDERINGS = ["shuffled", "grown"]


def reordered_engine(database, ordering, seed=3):
    if ordering == "shuffled":
        return KeywordSearchEngine(shuffled_copy(database, seed))
    return grown_engine(database, seed)


def network_assignments(engine, text):
    """``(keyword -> tuple)`` of every assignment of a text's matches."""
    matches = engine.match(text)
    return [
        dict(zip((match.keyword for match in matches), assignment))
        for assignment in itertools.product(
            *(match.tuple_ids for match in matches)
        )
    ]


def connected_sets(frozen, rng, count, largest=6):
    """``count`` random connected member sets (as tuple ids) of 2 to
    ``largest`` tuples, grown through random neighbours."""
    alive = sorted(
        (frozen.tid_of(node) for node in range(frozen.capacity)
         if frozen._alive[node]),
        key=str,
    )
    sets = []
    while len(sets) < count:
        members = [rng.choice(alive)]
        for __ in range(rng.randint(1, largest - 1)):
            reachable = sorted(
                {frozen.tid_of(other)
                 for tid in members
                 for other in frozen.neighbour_ints(frozen.node_of(tid))}
                - set(members),
                key=str,
            )
            if not reachable:
                break
            members.append(rng.choice(reachable))
        if len(members) > 1:
            sets.append(members)
    return sets


def required_pairs(engine, count=12):
    """Two tuples two or fewer hops apart, ``count`` times: enough
    joining trees of four and five tuples to order."""
    frozen = engine.traversal_cache.frozen()
    return [
        [members[0], members[-1]]
        for members in connected_sets(frozen, random.Random(5), count, 3)
    ]


class TestEngineAnswers:
    """The whole pipeline: the same rows stored or interned in another
    order give the same ranked answers."""

    @pytest.mark.parametrize("name", sorted(DATABASES))
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_same_answers(self, name, ordering):
        build, text = DATABASES[name]
        database = build()
        engine = KeywordSearchEngine(database)
        other = reordered_engine(database, ordering)
        words = text.split()
        for query in (text, " ".join(words[:2]), " ".join(words[1:])):
            for semantics, top_k in (("and", None), ("or", None), ("and", 3)):
                assert _rendered(other.search(
                    query, semantics=semantics, top_k=top_k
                )) == _rendered(engine.search(
                    query, semantics=semantics, top_k=top_k
                )), (query, semantics, top_k)


class TestMtjntOrder:
    """``find_mtjnts`` sorts its set of tuple sets: by size, then by the
    tuples' names."""

    @pytest.mark.parametrize("name", sorted(DATABASES))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_list_whatever_the_store_order(self, name, seed):
        from repro.baselines.discover import find_mtjnts

        build, text = DATABASES[name]
        database = build()
        limits = SearchLimits(max_tuples=5)
        found = []
        for copy in (database, shuffled_copy(database, seed)):
            engine = KeywordSearchEngine(copy)
            matches = engine.match(" ".join(text.split()[:2]))
            found.append(find_mtjnts(engine.data_graph, matches, limits))
        assert len(found[0]) > 1
        assert found[1] == found[0]
        assert found[0] == sorted(
            found[0], key=lambda s: (len(s), sorted(map(str, s)))
        )


class TestMtjntLossMismatchText:
    """``mtjnt_loss`` names the tuple sets it found, sorted, when they
    are not the paper's three."""

    @pytest.mark.parametrize("extra", [3, 12])
    def test_same_text_whatever_the_listing_order(self, monkeypatch, extra):
        from repro.experiments import claims
        from repro.experiments.claims import ReproductionMismatch

        find_mtjnts = claims.find_mtjnts
        database = build_company_database()
        strays = [
            frozenset({row.tid}) for row in database.all_tuples()
        ][:extra]
        texts = []
        for reverse in (False, True):
            def padded(*args, **kwargs):
                found = find_mtjnts(*args, **kwargs) + strays
                return found[::-1] if reverse else found

            monkeypatch.setattr(claims, "find_mtjnts", padded)
            with pytest.raises(ReproductionMismatch) as raised:
                claims.mtjnt_loss()
            texts.append(raised.value.context["got"])
        assert texts[0] == texts[1]
        assert len(texts[0]) == 3 + extra
        assert texts[0] == sorted(texts[0])


class TestSingleTupleRender:
    """A single tuple's rendering lists its keywords sorted, whatever
    order its keyword set iterates in."""

    @pytest.mark.parametrize("keywords", [("XML", "Databases"),
                                          ("b", "c", "a")])
    def test_every_iteration_order_renders_alike(self, data_graph, company_db,
                                                  keywords):
        d1 = company_db.get("DEPARTMENT", "d1").tid
        rendered = {
            SingleTupleAnswer(data_graph, d1, InOrder(order)).render()
            for order in itertools.permutations(keywords)
        }
        assert rendered == {f"d1({','.join(sorted(keywords))})"}


class TestJoiningNetworkOrder:
    """A joining network lists its tuples by name and its keyword pair
    paths over the keyword tuples by name, whatever order its tuple set
    iterates in or its keyword map was built in."""

    @pytest.mark.parametrize("name", sorted(DATABASES))
    def test_tuple_ids(self, name):
        build, text = DATABASES[name]
        engine = KeywordSearchEngine(build())
        cache = engine.traversal_cache
        checked = 0
        for keyword_tuples in network_assignments(engine, text):
            required = list(dict.fromkeys(keyword_tuples.values()))
            for tuples in itertools.islice(
                csr_enumerate_joining_trees(cache, required, 5), 5
            ):
                members = sorted(tuples, key=str)
                seen = set()
                for order in (members, members[::-1],
                              members[1:] + members[:1]):
                    network = JoiningNetwork(
                        cache, InOrder(order), keyword_tuples
                    )
                    seen.add((network.tuple_ids(), network.render()))
                assert seen == {(tuple(members), JoiningNetwork(
                    cache, tuples, keyword_tuples
                ).render())}
                checked += 1
        assert checked

    @pytest.mark.parametrize("name", sorted(DATABASES))
    def test_keyword_pair_paths(self, name):
        build, text = DATABASES[name]
        engine = KeywordSearchEngine(build())
        cache = engine.traversal_cache
        checked = 0
        for keyword_tuples in network_assignments(engine, text):
            required = list(dict.fromkeys(keyword_tuples.values()))
            if len(required) < 3:
                continue
            ends = list(itertools.combinations(sorted(required, key=str), 2))
            for tuples in itertools.islice(
                csr_enumerate_joining_trees(cache, required, 5), 5
            ):
                listed = set()
                for items in itertools.permutations(keyword_tuples.items()):
                    paths = JoiningNetwork(
                        cache, tuples, dict(items)
                    ).keyword_pair_paths()
                    assert [
                        (path.tuple_ids()[0], path.tuple_ids()[-1])
                        for path in paths
                    ] == ends
                    listed.add(tuple(path.render() for path in paths))
                assert len(listed) == 1
                checked += 1
        assert checked


class TestCompiledGraphOrder:
    """The compiled graph walks member sets in key order, so a graph
    whose node ints do not follow key order (tuples stored shuffled, or
    interned later by a live insert) gives the same trees, neighbours
    and joining-tree yields."""

    @pytest.mark.parametrize("name", sorted(DATABASES))
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_spanning_trees(self, name, ordering):
        build, __ = DATABASES[name]
        database = build()
        frozen = KeywordSearchEngine(database).traversal_cache.frozen()
        other = reordered_engine(database, ordering).traversal_cache.frozen()

        def tree(graph, members):
            return [
                (step.source, step.target, step.edge_key)
                for step in graph.spanning_tree(members)
            ]

        cyclic = 0
        for members in connected_sets(frozen, random.Random(7), 60, 10):
            expected = tree(frozen, members)
            assert tree(other, members[::-1]) == expected, members
            nodes = {frozen.node_of(tid) for tid in members}
            inside = sum(
                len(nodes.intersection(frozen.neighbour_ints(node)))
                for node in nodes
            ) // 2
            cyclic += inside > len(members) - 1  # more than one tree
        assert cyclic

    @pytest.mark.parametrize("name", sorted(DATABASES))
    def test_frontier_neighbours(self, name):
        build, __ = DATABASES[name]
        database = build()
        frozen = KeywordSearchEngine(database).traversal_cache.frozen()
        other = grown_engine(database, 3).traversal_cache.frozen()

        def neighbours(graph, members):
            nodes = [graph.node_of(tid) for tid in members]
            return [
                graph.tid_of(node)
                for node in graph.frontier_neighbour_ints(frozenset(nodes))
            ]

        for members in connected_sets(frozen, random.Random(11), 60, 4):
            expected = neighbours(frozen, members)
            assert expected == sorted(expected, key=lambda tid: (
                frozen._keys[frozen.node_of(tid)]
            ))
            assert neighbours(other, members[::-1]) == expected, members

    @pytest.mark.parametrize("name", sorted(DATABASES))
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_joining_tree_yields(self, name, ordering):
        build, __ = DATABASES[name]
        database = build()
        engine = KeywordSearchEngine(database)
        other = reordered_engine(database, ordering)
        for required in required_pairs(engine):
            assert list(csr_enumerate_joining_trees(
                other.traversal_cache, required, 5
            )) == list(csr_enumerate_joining_trees(
                engine.traversal_cache, required, 5
            )), required


class TestReferenceTreeOrder:
    """The networkx reference grows joining trees level by level in key
    order: its yields equal the compiled kernel's whatever order the
    multigraph's tuples were stored in."""

    @pytest.mark.parametrize("name", sorted(DATABASES))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_yields_as_the_kernel(self, name, seed):
        build, __ = DATABASES[name]
        database = build()
        engine = KeywordSearchEngine(database)
        copy = DataGraph(shuffled_copy(database, seed))
        for required in required_pairs(engine):
            assert list(enumerate_joining_trees(copy, required, 5)) == list(
                csr_enumerate_joining_trees(engine.traversal_cache, required, 5)
            ), required


class TestPatchLog:
    """A patch logs the nodes it changed in node order, whatever order
    its changeset lists tuples and edges in."""

    @pytest.mark.parametrize("kind", ["deletes", "inserts"])
    def test_same_log_whatever_the_listing_order(self, kind):
        database = planted_company()
        graphs = [FrozenGraph(DataGraph(database)) for __ in range(2)]
        rng = random.Random(13)
        if kind == "deletes":
            leaves = sorted(
                (row.tid for relation in ("WORKS_FOR", "DEPENDENT")
                 for row in database.tuples(relation)),
                key=str,
            )
            batch = [Delete(tid) for tid in rng.sample(leaves, 6)]
        else:
            employees = sorted(
                row.tid.key[0] for row in database.tuples("EMPLOYEE")
            )
            batch = [
                Insert("DEPENDENT", {"ID": f"k{number}",
                                     "ESSN": rng.choice(employees),
                                     "DEPENDENT_NAME": "Kay"})
                for number in range(6)
            ]
        # A held row whose source no batch touches keeps the log.
        department = graphs[0].node_of(database.tuples("DEPARTMENT")[0].tid)
        for graph in graphs:
            graph.distances(department, radius=1)
        changeset = apply_to_database(database, batch)
        backwards = dataclasses.replace(changeset, **{
            name: tuple(reversed(getattr(changeset, name)))
            for name in ("tuples_added", "tuples_removed",
                         "edges_added", "edges_removed")
        })
        logs = []
        for graph, listed in zip(graphs, (changeset, backwards)):
            graph.apply_changeset(listed)
            logs.append(list(graph._change_log))
        assert len(logs[0]) > 6
        assert logs[0] == logs[1] == sorted(logs[0])


def bib_schema():
    from stored_rows import bib_corpus

    return bib_corpus("tiny", 11).database().schema


class TestAdjacentRelations:
    """A schema lists a relation's neighbours by name, whatever order
    its foreign keys were declared in."""

    @pytest.mark.parametrize(
        "build", [build_company_schema, bib_schema], ids=["company", "bib"]
    )
    def test_same_tuple_whatever_the_declaration_order(self, build):
        schema = build()
        expected = {
            relation.name: schema.adjacent_relations(relation.name)
            for relation in schema.relations
        }
        assert any(len(names) > 2 for names in expected.values())
        for seed in range(4):
            rng = random.Random(seed)
            foreign_keys = list(schema.foreign_keys)
            rng.shuffle(foreign_keys)
            other = DatabaseSchema(name=schema.name)
            for relation in schema.relations:
                other.add_relation(relation)
            for fk in foreign_keys:
                other.add_foreign_key(fk)
            for name, names in expected.items():
                assert other.adjacent_relations(name) == names
                assert list(names) == sorted(names)


if __name__ == "__main__":
    print(json.dumps(probe(sys.argv[1])))
