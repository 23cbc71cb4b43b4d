"""Snapshot round-trip, integrity and laziness tests."""

import json
import random
import struct
from array import array
from functools import partial

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.company import build_company_database
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_tenants,
    plant,
)
from repro.errors import IntegrityError, SearchLimitError, SnapshotError
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.oracle import search as oracle_search
from repro.relational.database import Database, TupleId
from repro.relational.index import _posted, tokenize
from repro.relational.schema import AttributeDef, DatabaseSchema, ForeignKey, Relation
from repro.scale import snapshot as snapshot_module
from repro.scale.snapshot import SNAPSHOT_FORMAT, Snapshot
from stored_rows import bib_corpus, built_rows, contents

DELTA_FORMAT = 7  # of a file that ends in a delta of mutation records

CONFIG = SyntheticConfig(
    departments=2,
    projects_per_department=2,
    employees_per_department=4,
    works_on_per_employee=2,
    seed=23,
)
LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)
QUERIES = ("kwalpha kwbeta", "kwalpha kwbeta kwgamma", "kwalpha", "zznothing")
NETWORKS = "kwalpha kwbeta kwgamma"  # answered by joining networks


def planted_database(tenants=3):
    database = generate_tenants(CONFIG, tenants=tenants)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 3, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 3, seed=2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION", 3, seed=3)
    return database


def rendered(results):
    return [(r.render(), r.score, r.rank) for r in results]


def answer_rows(results):
    return {
        (tid.relation, tid.key)
        for result in results
        for tid in result.answer.tuple_ids()
    }


def publish_with_meta(path, out, **keys):
    """Copy the snapshot at ``path`` to ``out`` with ``keys`` added to
    its meta: the shape of a file an older writer left."""
    with Snapshot(path) as snapshot:
        meta = dict(snapshot.meta, **keys)
        sections = [
            (name, snapshot_module._json_bytes(meta) if name == "meta"
             else bytes(snapshot.section(name)))
            for name in snapshot.sections()
        ]
    snapshot_module._publish(out, SNAPSHOT_FORMAT, sections)
    return meta


WRITE_KINDS = (
    "insert", "delete", "update", "update reference", "delete and re-insert",
    "delete a link",
)


def write_batch(database, kind):
    """One mutation batch of ``kind`` on the planted database, its ids
    and values read from ``database`` (which it leaves unchanged), and
    per tuple it names the values it leaves (None: deleted)."""
    target = TupleId("DEPENDENT", ("t1t1",))
    values = database.values(target)
    employees = database.rows("EMPLOYEE")[0]
    other = next(key for key in employees if key != (values["ESSN"],))[0]
    if kind == "insert":
        inserted = {"ID": "nw1", "ESSN": other, "DEPENDENT_NAME": "kwbeta"}
        return ([Insert("DEPENDENT", inserted, label="nora")],
                {TupleId("DEPENDENT", ("nw1",)): inserted})
    if kind == "delete":
        return [Delete(target)], {target: None}
    if kind == "update":
        return ([Update(target, {"DEPENDENT_NAME": "kwalpha"})],
                {target: dict(values, DEPENDENT_NAME="kwalpha")})
    if kind == "update reference":
        return [Update(target, {"ESSN": other})], {target: dict(values, ESSN=other)}
    if kind == "delete and re-insert":
        reinserted = dict(values, DEPENDENT_NAME="kwgamma")
        return [Delete(target), Insert("DEPENDENT", reinserted)], {target: reinserted}
    assert kind == "delete a link"
    link = database.rows("WORKS_FOR")[1][0]
    return [Delete(link)], {link: None}


def assert_written(database, expected):
    """``database`` holds what :func:`write_batch` said its batch leaves."""
    for tid, values in expected.items():
        if values is None:
            with pytest.raises(IntegrityError):
                database.values(tid)
        else:
            assert database.values(tid) == values


@pytest.fixture()
def saved(tmp_path):
    engine = KeywordSearchEngine(planted_database())
    path = tmp_path / "engine.snap"
    meta = engine.save(path)
    return engine, path, meta


class TestRoundTrip:
    def test_search_results_bit_identical(self, saved):
        engine, path, __ = saved
        restored = KeywordSearchEngine.open(path)
        for query in QUERIES:
            for semantics in ("and", "or"):
                assert rendered(
                    restored.search(query, limits=LIMITS, semantics=semantics)
                ) == rendered(
                    engine.search(query, limits=LIMITS, semantics=semantics)
                )

    @pytest.mark.parametrize("core", ["csr", "reference"])
    def test_identical_on_every_core(self, saved, core):
        """``core`` names the kernels of the expected side: a cold csr
        engine, or :func:`repro.oracle.search` on the networkx kernels."""
        __, path, ___ = saved
        restored = KeywordSearchEngine.open(path)
        if core == "csr":
            expected = KeywordSearchEngine(
                planted_database(), result_cache_entries=0
            ).search
        else:
            expected = partial(oracle_search, planted_database())
        for query in QUERIES:
            assert rendered(restored.search(query, limits=LIMITS)) == rendered(
                expected(query, limits=LIMITS)
            )

    def test_stream_batch_and_topk(self, saved):
        engine, path, __ = saved
        restored = KeywordSearchEngine.open(path)
        queries = list(QUERIES)
        assert [
            rendered(r)
            for r in restored.search_batch(queries, limits=LIMITS)
        ] == [rendered(engine.search(q, limits=LIMITS)) for q in queries]
        for query in queries:
            assert rendered(
                list(restored.search_stream(query, limits=LIMITS))
            ) == rendered(engine.search(query, limits=LIMITS))
            assert rendered(
                restored.search(query, limits=LIMITS, top_k=2)
            ) == rendered(engine.search(query, limits=LIMITS, top_k=2))

    def test_budget_error_points_identical(self, saved):
        engine, path, __ = saved
        restored = KeywordSearchEngine.open(path)
        tight = SearchLimits(
            max_rdb_length=4, max_tuples=5,
            max_paths_per_pair=1, max_networks=1,
        )

        def outcome(target, query):
            try:
                return ("ok", rendered(target.search(query, limits=tight)))
            except SearchLimitError as error:
                return ("limit", str(error))

        for query in QUERIES:
            assert outcome(restored, query) == outcome(engine, query)

    def test_resave_is_byte_identical(self, saved, tmp_path):
        __, path, ___ = saved
        restored = KeywordSearchEngine.open(path)
        second = tmp_path / "second.snap"
        restored.save(second)
        assert path.read_bytes() == second.read_bytes()
        # The reference flags were read as stored: the section itself.
        assert type(restored.traversal_cache.frozen()._edge_refs) is memoryview

    def test_restored_save_builds_no_tuple_id(self, tmp_path):
        """A restored company engine that was never folded saves its
        interning runs from the keys its rows resolved to: the interning
        table caches no tuple id, and the file is the one it opened."""
        path = tmp_path / "company.snap"
        KeywordSearchEngine(build_company_database()).save(path)
        restored = KeywordSearchEngine.open(path)
        second = tmp_path / "second.snap"
        restored.save(second)
        interning = restored.traversal_cache.frozen()._tid_of
        assert isinstance(interning, snapshot_module._Interning)
        assert interning._cache == {}
        assert path.read_bytes() == second.read_bytes()

    def test_restored_save_reopens_to_a_cold_build(self, saved, tmp_path):
        """A restored engine that took inserts, an update and deletes
        saves its rows, labels and interning permutations from its own
        columns, cleared slots and all: every section but the version in
        ``meta`` is the one a cold build over the same batches saves, and
        the file reopens to its answers."""
        __, path, ___ = saved
        oracle_db = planted_database()
        employees = [t.tid.key[0] for t in oracle_db.tuples("EMPLOYEE")]
        victim = oracle_db.tuples("WORKS_FOR")[-1].tid
        batches = [
            [Insert("DEPENDENT", {"ID": f"rs{at}", "ESSN": employees[at],
                                  "DEPENDENT_NAME": "kwbeta"}, label=f"r{at}")
             for at in range(3)],
            [Delete(TupleId("DEPENDENT", ("rs1",))), Delete(victim),
             Update(TupleId("DEPENDENT", ("rs2",)), {"DEPENDENT_NAME": "kwalpha"})],
        ]
        restored = KeywordSearchEngine.open(path)
        for batch in batches:
            restored.apply(batch)
            apply_to_database(oracle_db, batch)
        resaved, cold = tmp_path / "resaved.snap", tmp_path / "cold.snap"
        restored.save(resaved)
        assert built_rows(restored.database) == set()
        oracle = KeywordSearchEngine(oracle_db, result_cache_entries=0)
        oracle.save(cold)
        with Snapshot(resaved) as mine, Snapshot(cold) as theirs:
            assert mine.sections() == theirs.sections()
            assert dict(mine.meta, engine_version=0) == theirs.meta
            for name in mine.sections()[1:]:
                assert mine.read(name) == theirs.read(name), name
        with KeywordSearchEngine.open(resaved) as reopened:
            for query in QUERIES:
                for semantics in ("and", "or"):
                    assert rendered(
                        reopened.search(query, limits=LIMITS, semantics=semantics)
                    ) == rendered(
                        oracle.search(query, limits=LIMITS, semantics=semantics)
                    )
            assert reopened.database.label(TupleId("DEPENDENT", ("rs2",))) == "r2"
            # One key tuple per row: the store's, the interning table's
            # and the node map's are the same objects.
            frozen = reopened.traversal_cache.frozen()
            stored = {id(key) for key in reopened.database._tuples["EMPLOYEE"]}
            nodes = frozen._node_of["EMPLOYEE"]
            assert {id(key) for key in nodes} == stored
            assert {id(frozen.tid_of(node).key) for node in nodes.values()} == stored

    @pytest.mark.parametrize("kind", WRITE_KINDS)
    def test_restored_save_after_one_write_equals_a_cold_build(
        self, saved, tmp_path, kind
    ):
        """Per kind of write, a restored engine's ``save`` — cleared
        slots, a row moved to the tail, a label column, a changed
        reference — writes every section but ``meta``'s version as a
        cold build over the same batch does, and builds no row."""
        __, path, ___ = saved
        oracle_db = planted_database()
        batch, expected = write_batch(oracle_db, kind)
        restored = KeywordSearchEngine.open(path)
        restored.apply(batch)
        apply_to_database(oracle_db, batch)
        assert_written(restored.database, expected)
        resaved, cold = tmp_path / "resaved.snap", tmp_path / "cold.snap"
        restored.save(resaved)
        assert built_rows(restored.database) == set()
        KeywordSearchEngine(oracle_db).save(cold)
        with Snapshot(resaved) as mine, Snapshot(cold) as theirs:
            assert mine.sections() == theirs.sections()
            assert dict(mine.meta, engine_version=0) == theirs.meta
            for name in mine.sections()[1:]:
                assert mine.read(name) == theirs.read(name), name
        restored.close()

    @pytest.mark.parametrize("dataset, permutes", [
        ("planted", True), ("company", False), ("bib", True),
    ], ids=["planted", "company", "bib"])
    def test_each_node_resolves_to_the_key_its_cold_compile_gave_it(
        self, tmp_path, dataset, permutes
    ):
        """``interning:<R>`` holds, in node order, row numbers into
        ``rows:<R>``: read through the rows section's key columns they
        give the cold compile's node order — the identity only where
        every relation's node order is its store order (Figure 2's
        instance) — and the restored graph's nodes resolve to the same
        tuple ids."""
        database = {
            "planted": planted_database,
            "company": build_company_database,
            "bib": lambda: bib_corpus().database(),
        }[dataset]()
        engine = KeywordSearchEngine(database)
        nodes = list(engine.traversal_cache.frozen()._tid_of)
        path = tmp_path / "engine.snap"
        engine.save(path)
        resolved, permuted = [], False
        with Snapshot(path) as snapshot:
            for name, count in snapshot.meta["interning"]:
                relation = database.schema.relation(name)
                columns = snapshot.json(f"rows:{name}")["columns"]
                keys = list(zip(*[columns[relation.attribute_names.index(c)]
                                  for c in relation.primary_key]))
                rows = array("i", snapshot.read(f"interning:{name}"))
                assert sorted(rows) == list(range(count))
                permuted = permuted or list(rows) != sorted(rows)
                resolved.extend(TupleId(name, keys[row]) for row in rows)
        assert resolved == nodes
        assert permuted is permutes
        with KeywordSearchEngine.open(path) as restored:
            frozen = restored.traversal_cache.frozen()
            assert [frozen.tid_of(node) for node in range(len(nodes))] == nodes
            assert built_rows(restored.database) == set()

    def test_retired_shard_sections_are_ignored(self, saved, tmp_path):
        """Older snapshots carry a ``shard_count`` meta key and a
        ``shard_assignment`` section; the loader never reads them, and
        such a file answers like a cold build."""
        __, path, ___ = saved
        with Snapshot(path) as snapshot:
            meta = dict(snapshot.meta, shard_count=3)
            sections = [
                (name, snapshot_module._json_bytes(meta) if name == "meta"
                 else bytes(snapshot.section(name)))
                for name in snapshot.sections()
            ]
        sections.append(
            ("shard_assignment", (array("i", [0]) * meta["nodes"]).tobytes())
        )
        legacy = tmp_path / "legacy.snap"
        snapshot_module._publish(legacy, SNAPSHOT_FORMAT, sections)
        cold = KeywordSearchEngine(planted_database())
        with KeywordSearchEngine.open(legacy) as restored:
            assert "shard_assignment" in restored._snapshot.sections()
            for query in QUERIES:
                for semantics in ("and", "or"):
                    assert rendered(
                        restored.search(query, limits=LIMITS, semantics=semantics)
                    ) == rendered(
                        cold.search(query, limits=LIMITS, semantics=semantics)
                    )

    def test_retired_stats_section_is_ignored(self, saved, tmp_path, monkeypatch):
        """Older snapshots carry the corpus statistics in a ``stats``
        section (some with learned planner calibration in it); the loader
        never reads it, such a file answers and estimates like a cold
        build, a full save drops the section and a delta compaction
        byte-copies it."""
        __, path, ___ = saved
        legacy_stats = snapshot_module._json_bytes({
            "cardinalities": {"EMPLOYEE": 24, "DEPARTMENT": 6},
            "fanouts": {"fk": {"mean": 5.5, "maximum": 9, "coverage": 1.0}},
            "calibration": {
                "paths": {"predicted": 40.0, "observed": 1.0, "count": 4.0},
            },
        })
        with Snapshot(path) as snapshot:
            assert "stats" not in snapshot.sections()
            sections = [(name, bytes(snapshot.section(name)))
                        for name in snapshot.sections()]
        # Where an older writer put it: right after ``postings``.
        at = [name for name, __ in sections].index("postings") + 1
        sections.insert(at, ("stats", legacy_stats))
        legacy = tmp_path / "legacy.snap"
        snapshot_module._publish(legacy, SNAPSHOT_FORMAT, sections)
        cold = KeywordSearchEngine(planted_database())
        resaved = tmp_path / "resaved.snap"
        with KeywordSearchEngine.open(legacy) as restored:
            assert not hasattr(restored, "statistics")
            for query in QUERIES:
                for semantics in ("and", "or"):
                    assert rendered(
                        restored.search(query, limits=LIMITS, semantics=semantics)
                    ) == rendered(
                        cold.search(query, limits=LIMITS, semantics=semantics)
                    )
                    assert restored.query_cost(query, semantics) == (
                        cold.query_cost(query, semantics))
                    assert restored.plan(query, semantics=semantics).estimates == (
                        cold.plan(query, semantics=semantics).estimates)
            restored.save(resaved)
        with Snapshot(resaved) as snapshot:
            assert "stats" not in snapshot.sections()
        assert resaved.read_bytes() == path.read_bytes()

        monkeypatch.setattr(snapshot_module, "DELTA_FRACTION", 0)
        employee = cold.database.tuples("EMPLOYEE")[0].tid.key[0]
        batch = [Insert("DEPENDENT", {"ID": "dl0", "ESSN": employee,
                                      "DEPENDENT_NAME": "kwbeta"})]
        cold.apply(batch)
        engine = KeywordSearchEngine.open(legacy, wal=True)
        engine.apply(batch)
        engine.compact_wal()
        engine.close()
        with Snapshot(legacy) as snapshot:
            assert snapshot.meta["format"] == DELTA_FORMAT
            assert snapshot.read("stats") == legacy_stats
        with KeywordSearchEngine.open(legacy) as reopened:
            assert reopened.version == cold.version
            for query in QUERIES:
                assert rendered(
                    reopened.search(query, limits=LIMITS)
                ) == rendered(cold.search(query, limits=LIMITS))
                assert reopened.query_cost(query) == cold.query_cost(query)

    def test_engine_options_pass_through(self, saved):
        __, path, ___ = saved
        restored = KeywordSearchEngine.open(path, result_cache_entries=0)
        assert restored.result_cache.max_entries == 0
        with pytest.raises(TypeError):
            KeywordSearchEngine.open(path, shards=2)


def refuse_tuple_graph(monkeypatch):
    """Make :func:`build_tuple_graph` raise; returns the real one."""
    from repro.graph import data_graph as data_graph_module

    def refuse(database):
        raise AssertionError("build_tuple_graph called on the csr path")

    real = data_graph_module.build_tuple_graph
    monkeypatch.setattr(data_graph_module, "build_tuple_graph", refuse)
    return real


class TestLaziness:
    def test_pure_csr_path_query_never_builds_the_graph(self, saved):
        __, path, ___ = saved
        restored = KeywordSearchEngine.open(path)
        restored.search("kwalpha kwbeta", limits=LIMITS)
        assert not restored.data_graph.materialized

    def test_write_path_never_builds_the_graph(self, saved, monkeypatch):
        """open(wal=True) -> apply xN -> reopen (replay) -> apply ->
        compact_wal -> search: nothing on the way materialises networkx,
        and the answers equal a cold build over the same mutations."""
        from repro.live.changes import apply_to_database

        __, path, ___ = saved
        refuse_tuple_graph(monkeypatch)
        oracle_db = planted_database()
        employees = [t.tid.key[0] for t in oracle_db.tuples("EMPLOYEE")]
        batches = [
            [Insert("DEPENDENT", {"ID": f"lz{wave}a", "ESSN": employees[wave],
                                  "DEPENDENT_NAME": "kwbeta"}),
             Insert("DEPENDENT", {"ID": f"lz{wave}b", "ESSN": employees[-1 - wave],
                                  "DEPENDENT_NAME": "plain"})]
            for wave in range(3)
        ] + [
            [Delete(TupleId("DEPENDENT", ("lz0a",))),
             Update(TupleId("DEPENDENT", ("lz1b",)), {"ESSN": employees[2]})],
        ]
        restored = KeywordSearchEngine.open(path, wal=True)
        restored.search("kwalpha kwbeta", limits=LIMITS)  # something cached
        for batch in batches[:2]:
            restored.apply(batch)
        assert not restored.data_graph.materialized
        restored.close()
        restored = KeywordSearchEngine.open(path, wal=True)  # replays two
        assert not restored.data_graph.materialized
        restored.search("kwalpha kwbeta", limits=LIMITS)
        restored.search(NETWORKS, limits=LIMITS)
        for batch in batches[2:]:
            restored.apply(batch)
        assert restored.compact_wal().records_folded == len(batches)
        assert not restored.data_graph.materialized
        for batch in batches:
            apply_to_database(oracle_db, batch)
        oracle = KeywordSearchEngine(oracle_db, result_cache_entries=0)
        for query in ("kwalpha kwbeta", NETWORKS):
            for semantics in ("and", "or"):
                answers = rendered(
                    restored.search(query, limits=LIMITS, semantics=semantics)
                )
                assert answers
                assert answers == rendered(
                    oracle.search(query, limits=LIMITS, semantics=semantics)
                )
        assert not restored.data_graph.materialized
        restored.close()

    def test_cold_read_path_never_builds_the_graph(self, tmp_path, monkeypatch):
        """The write-path test's twin for a cold build: the csr core
        compiles straight from the stored references, so reading,
        ranking by instance ambiguity, explaining, applying and saving
        never ask for the multigraph — the oracle still gets it."""
        from repro.core.ranking import InstanceAmbiguityRanker
        from repro.graph import data_graph as data_graph_module

        real = refuse_tuple_graph(monkeypatch)
        engine = KeywordSearchEngine(planted_database())
        for semantics in ("and", "or"):
            assert engine.search(NETWORKS, limits=LIMITS, semantics=semantics)
        answers = {
            semantics: rendered(
                engine.search("kwalpha kwbeta", limits=LIMITS, semantics=semantics)
            )
            for semantics in ("and", "or")
        }
        assert answers["and"]
        streamed = list(engine.search_stream("kwalpha kwbeta", limits=LIMITS))
        assert rendered(streamed) == answers["and"]
        batch = engine.search_batch(
            ["kwalpha kwbeta", "kwbeta kwgamma"], limits=LIMITS, jobs=1
        )
        assert rendered(batch[0]) == answers["and"]
        assert len(engine.result_cache)  # apply taints live entries
        employee = engine.database.tuples("EMPLOYEE")[0].tid.key[0]
        engine.apply([
            Insert("DEPENDENT", {"ID": "cold1", "ESSN": employee,
                                 "DEPENDENT_NAME": "kwbeta"}),
        ])
        after = rendered(engine.search("kwalpha kwbeta", limits=LIMITS))
        engine.save(tmp_path / "cold.snap")
        restored = KeywordSearchEngine.open(tmp_path / "cold.snap")
        assert rendered(restored.search("kwalpha kwbeta", limits=LIMITS)) == after
        restored.close()
        ranked = engine.search(
            "kwalpha kwbeta", limits=LIMITS, ranker=InstanceAmbiguityRanker()
        )
        assert all(engine.explain(result) for result in ranked)
        assert not engine.data_graph.materialized
        assert "materialized=False" in repr(engine.data_graph)

        monkeypatch.setattr(data_graph_module, "build_tuple_graph", real)
        assert rendered(
            oracle_search(engine.database, "kwalpha kwbeta", limits=LIMITS)
        ) == after
        assert engine.data_graph.graph.number_of_nodes() == engine.database.count()
        assert engine.data_graph.materialized

    def test_stored_fast_core_opens_on_csr(self, saved, tmp_path):
        """Files written while the engine had a traversal-core selector
        name the writer's core in their meta: ``fast`` (retired first)
        or ``reference``.  The loader never reads the key, so both open
        on csr and answer like the oracle; saving again drops the key."""
        __, path, ___ = saved
        database = planted_database()
        for core in ("fast", "reference"):
            legacy = tmp_path / f"{core}.snap"
            publish_with_meta(path, legacy, core=core)
            with Snapshot(legacy) as snapshot:
                assert snapshot.meta["core"] == core
            resaved = tmp_path / f"{core}-resaved.snap"
            with KeywordSearchEngine.open(legacy) as restored:
                for query in QUERIES:
                    assert rendered(
                        restored.search(query, limits=LIMITS)
                    ) == rendered(oracle_search(database, query, limits=LIMITS))
                restored.save(resaved)
            with Snapshot(resaved) as snapshot:
                assert "core" not in snapshot.meta

    def test_writes_to_encoded_tokens_decode_nothing(self, tmp_path, monkeypatch):
        """A publish, a retitle and a retract apply on a restored bib
        engine while decoding a posting list raises; the next search
        folds each query token it touches once, into the list a rebuild
        holds."""
        from repro.relational.index import InvertedIndex, _PostingColumns

        bib = bib_corpus()
        path = str(tmp_path / "bib.snap")
        KeywordSearchEngine(bib.database()).save(path)
        engine = KeywordSearchEngine.open(path, wal=True)
        batches = bib.mutation_batches(8)
        kinds = [type(batch[0]) for batch in batches]
        assert {Insert, Update, Delete} <= set(kinds)

        def refuse(self, at):
            raise AssertionError("a write decoded a posting list")

        with monkeypatch.context() as patched:
            patched.setattr(_PostingColumns, "decode", refuse)
            for batch in batches:
                engine.apply(batch)
        postings = engine.index._postings
        # One token with a queued removal, one with additions only.
        removed = [
            token for token, writes in sorted(postings._pending.items())
            if any(kind == "del" for kind, __ in writes)
        ]
        added = [token for token in sorted(postings._pending) if token not in removed]
        touched = sorted((removed[0], added[0]))

        decoded = []
        decode = _PostingColumns.decode

        def counted(self, at):
            decoded.append(self.directory()[at])
            return decode(self, at)

        monkeypatch.setattr(_PostingColumns, "decode", counted)
        text = " ".join(touched)
        engine.search(text, top_k=10)
        engine.search(text, top_k=10, semantics="or")
        assert sorted(decoded) == touched
        fresh = InvertedIndex(engine.database)
        for token in touched:
            assert engine.index.postings(token) == fresh.postings(token)
            assert token not in postings._pending
        engine.close()

    def test_replay_decodes_what_its_records_touch(self, tmp_path):
        """open(wal=True) over the bib corpus with a tail of publish /
        retitle / retract records: no per-tuple token table, posting
        lists decoded only for tokens the records' before and after
        images (then the queries) carry, node maps only for relations
        the records name, sort keys only for the nodes they touch, and
        no row built."""
        bib = bib_corpus()
        path = str(tmp_path / "bib.snap")
        KeywordSearchEngine(bib.database()).save(path)
        engine = KeywordSearchEngine.open(path, wal=True)
        oracle_db = bib.database()
        carried, named = set(), set()
        for batch in bib.mutation_batches(8):
            engine.apply(batch)
            changeset = apply_to_database(oracle_db, batch)
            images = list(changeset.before.items()) + [
                (tid, oracle_db.tuple(tid).values)
                for tid in changeset.touched()
                if oracle_db.get(tid.relation, *tid.key) is not None
            ]
            for tid, values in images:
                attributes = [
                    a.name for a in oracle_db.schema.relation(tid.relation).attributes
                ]
                carried.update(token for token, __, ___ in _posted(values, attributes))
            named.update(tid.relation for tid in changeset.touched())
        engine.close()

        restored = KeywordSearchEngine.open(path, wal=True)
        assert restored.version == 8
        index = restored.index
        assert set(vars(index)) == {
            "_database", "_postings", "_order", "_relation_position",
            "_attributes", "_relation_tail",
        }
        with Snapshot(path) as snapshot:
            assert "tokens" not in snapshot.sections()
        assert set(dict.keys(index._postings)) <= carried
        frozen = restored.traversal_cache.frozen()
        assert set(frozen._node_of) <= named
        assert len(frozen._keys) < frozen.capacity // 4
        assert built_rows(restored.database) == set()

        texts = bib.texts(4)
        for text in texts:
            restored.search(text, top_k=10)
        asked = {token for text in texts for token in tokenize(text)}
        assert set(dict.keys(index._postings)) <= carried | asked
        restored.close()

    def test_saves_replay_and_writes_build_no_row(self, tmp_path):
        """A cold ``save``, a WAL replay, live publish / retitle /
        retract batches and insert / delete cycles through ``apply``,
        and a restored ``save`` read rows as columns and values: no row
        is built into a ``Tuple``."""
        bib = bib_corpus()
        database = bib.database()
        path = str(tmp_path / "bib.snap")
        KeywordSearchEngine(database).save(path)
        assert built_rows(database) == set()
        assert len(database._columns["PAPER"].keys) == database.count("PAPER")
        batches = bib.mutation_batches(16)
        engine = KeywordSearchEngine.open(path, wal=True)
        for batch in batches[:8]:
            engine.apply(batch)
        engine.close()
        engine = KeywordSearchEngine.open(path, wal=True)  # replays eight
        assert engine.version == 8
        assert built_rows(engine.database) == set()
        for batch in batches[8:]:
            engine.search(bib.texts(1)[0], top_k=10)  # an entry to invalidate
            engine.apply(batch)
        (paper,) = engine.database.rows("PAPER")[0][0]
        writes = TupleId("WRITES", ("acycle", paper))
        for cycle in range(20):
            engine.apply([Insert("AUTHOR", {"ID": "acycle", "NAME": f"Nora{cycle}"}),
                          Insert("WRITES", {"A_ID": "acycle", "P_ID": paper})])
            engine.apply([Delete(writes), Delete(TupleId("AUTHOR", ("acycle",)))])
        assert built_rows(engine.database) == set()
        engine.save(str(tmp_path / "resaved.snap"))
        assert built_rows(engine.database) == set()
        engine.close()

    @pytest.mark.parametrize("mode", ["apply", "replay"])
    @pytest.mark.parametrize("kind", WRITE_KINDS)
    def test_one_write_builds_no_row(self, saved, kind, mode):
        """A live ``apply`` of each kind of write on a restored engine,
        and its WAL replay on reopen, read before-images, updated and
        appended rows as values: no row is built, and the store and the
        answers are a cold build's over the same batch."""
        __, path, ___ = saved
        oracle_db = planted_database()
        batch, expected = write_batch(oracle_db, kind)
        engine = KeywordSearchEngine.open(path, wal=True)
        engine.apply(batch)
        if mode == "replay":
            engine.close()
            engine = KeywordSearchEngine.open(path, wal=True)
            assert engine.version == 1
        assert built_rows(engine.database) == set()
        assert_written(engine.database, expected)
        apply_to_database(oracle_db, batch)
        assert contents(engine.database) == contents(oracle_db)
        assert built_rows(engine.database) == set()
        oracle = KeywordSearchEngine(oracle_db, result_cache_entries=0)
        for query in QUERIES:
            assert rendered(engine.search(query, limits=LIMITS)) == rendered(
                oracle.search(query, limits=LIMITS)
            )
        engine.close()

    def test_searches_build_only_the_rows_their_answers_render(self, tmp_path):
        bib = bib_corpus()
        path = str(tmp_path / "bib.snap")
        KeywordSearchEngine(bib.database()).save(path)
        restored = KeywordSearchEngine.open(path)
        rendering = set()
        for text in bib.texts(4):
            rendering |= answer_rows(restored.search(text, top_k=10))
        assert rendering
        # Answers render through Database.label: not even they build one.
        assert built_rows(restored.database) == set()
        restored.close()

    def test_counting_builds_no_row(self, tmp_path):
        """Counting reads the stores' sizes — or, for a relation not
        loaded yet, the snapshot's count — and the IR ranker's collection
        size is such a count."""
        from repro.core.matching import match_keywords
        from repro.core.scoring import CombinedRanker, TfIdfScorer

        bib = bib_corpus()
        path = str(tmp_path / "bib.snap")
        database = bib.database()
        KeywordSearchEngine(database).save(path)
        restored = KeywordSearchEngine.open(path)
        assert restored.database.count() == database.count()
        assert repr(restored.database) == repr(database)
        text = next(text for text in bib.texts(4)
                    if KeywordSearchEngine(database).search(text))
        ranker = CombinedRanker.for_query(
            TfIdfScorer(restored.index),
            match_keywords(restored.index, tuple(text.split())),
        )
        assert built_rows(restored.database) == set()
        results = restored.search(text, ranker=ranker)
        assert results
        assert built_rows(restored.database) == set()
        restored.close()

    @pytest.mark.parametrize("loaded", (True, False))
    def test_first_delete_of_a_referenced_tuple_builds_no_referencing_row(
        self, saved, loaded
    ):
        """The delete's reference count is read off the referencing
        relation's key columns, not off built rows — whether that
        relation's store is loaded already or loads for the count."""
        engine, path, __ = saved
        project = engine.database.tuples("PROJECT")[0]
        holders = [
            record.tid for record in engine.database.tuples("WORKS_FOR")
            if record.values["P_ID"] == project.tid.key[0]
        ]
        assert holders
        restored = KeywordSearchEngine.open(path)
        if not loaded:
            fresh = dict(project.values, ID="p_unreferenced")
            restored.apply([Insert("PROJECT", fresh)])
            restored.apply([Delete(TupleId("PROJECT", ("p_unreferenced",)))])
            assert "WORKS_FOR" in dict.keys(restored.database._tuples)
        restored.apply([Delete(tid) for tid in holders] + [Delete(project.tid)])
        assert restored.database.get("PROJECT", *project.tid.key) is None
        assert {
            key for name, key in built_rows(restored.database) if name == "WORKS_FOR"
        } == set()
        restored.close()

    def test_postings_decode_only_touched_tokens(self, saved):
        __, path, ___ = saved
        restored = KeywordSearchEngine.open(path)
        raw_before = len(restored.index._postings._raw)
        restored.search("kwalpha kwbeta", limits=LIMITS)
        raw_after = len(restored.index._postings._raw)
        assert raw_before - raw_after <= 2
        assert raw_after > 0


class TestLiveUpdatesOnRestoredEngine:
    def test_apply_bumps_version_and_persists(self, saved, tmp_path):
        engine, path, meta = saved
        restored = KeywordSearchEngine.open(path)
        assert restored.version == meta["engine_version"]
        restored.apply([
            Insert("DEPENDENT", {"ID": "zz9", "ESSN": "t1e1",
                                 "DEPENDENT_NAME": "kwbeta"})
        ])
        assert restored.version == meta["engine_version"] + 1
        bumped = tmp_path / "bumped.snap"
        restored.save(bumped)
        assert Snapshot(bumped).meta["engine_version"] == restored.version

    def test_mutated_restored_engine_matches_rebuilt_oracle(self, saved):
        engine, path, __ = saved
        restored = KeywordSearchEngine.open(path)
        victim = restored.database.tuples("WORKS_FOR")[-1].tid
        department = restored.database.tuples("DEPARTMENT")[0].tid
        mutations = [
            Insert("DEPENDENT", {"ID": "zz8", "ESSN": "t2e1",
                                 "DEPENDENT_NAME": "kwbeta"}),
            Update(department, {"D_DESCRIPTION": "kwalpha fresh words"}),
            Delete(victim),
        ]
        restored.apply(mutations)
        oracle_db = planted_database()
        from repro.live.changes import apply_to_database

        apply_to_database(oracle_db, mutations)
        oracle = KeywordSearchEngine(oracle_db, result_cache_entries=0)
        for query in QUERIES:
            for semantics in ("and", "or"):
                assert rendered(
                    restored.search(query, limits=LIMITS, semantics=semantics)
                ) == rendered(
                    oracle.search(query, limits=LIMITS, semantics=semantics)
                )

    def test_many_appended_nodes_keep_stored_edges_reachable(self, saved):
        """Regression: the lazy edge-payload owner lookup binary-searched
        the *live* interning table, which appends grow past the stored
        CSR offsets — enough inserted rows pushed the search off the end
        of the mmap'd offsets array (IndexError) on the first query that
        walked an uncached stored edge."""
        engine, path, __ = saved
        restored = KeywordSearchEngine.open(path, result_cache_entries=0)
        oracle_db = planted_database()
        from repro.live.changes import apply_to_database

        employees = [t.tid.key[0]
                     for t in restored.database.tuples("EMPLOYEE")]
        for wave in range(3):
            mutations = [
                Insert("DEPENDENT",
                       {"ID": f"grow{wave}-{slot}",
                        "ESSN": employees[(wave + slot) % len(employees)],
                        "DEPENDENT_NAME": ("kwbeta", "kwalpha")[slot % 2]})
                for slot in range(5)
            ]
            restored.apply(mutations)
            apply_to_database(oracle_db, mutations)

            # Every stored payload must stay reachable at every growth
            # step — entries owned by the snapshot's last rows are the
            # ones whose owner search walked off the end (whether a
            # given append count trips it is arithmetic on the midpoint
            # sequence, so probe after each wave).
            frozen = restored.traversal_cache.frozen()
            for node in range(len(frozen._offsets) - 1):
                for entry in range(frozen._offsets[node], frozen._offsets[node + 1]):
                    payload = frozen._payload(
                        node, frozen._targets[entry],
                        frozen._edge_keys[entry], frozen._edge_refs[entry],
                    )
                    assert payload["foreign_key"] is not None
                    assert payload["referencing"] is not None

        oracle = KeywordSearchEngine(oracle_db, result_cache_entries=0)
        for query in QUERIES:
            assert rendered(
                restored.search(query, limits=LIMITS)
            ) == rendered(oracle.search(query, limits=LIMITS))


class TestIntegrity:
    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"definitely not a snapshot")
        with pytest.raises(SnapshotError, match="bad magic"):
            Snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot open"):
            Snapshot(tmp_path / "absent.snap")

    def test_corrupted_section_detected(self, saved):
        __, path, ___ = saved
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="integrity"):
            KeywordSearchEngine.open(path)

    def test_truncated_file_detected(self, saved):
        __, path, ___ = saved
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(SnapshotError):
            KeywordSearchEngine.open(path)

    def test_version_mismatch_detected(self, saved):
        __, path, ___ = saved
        blob = path.read_bytes()
        magic_length = len(b"REPROSNP\x01")
        (toc_length,) = struct.unpack_from("<I", blob, magic_length)
        start = magic_length + 4
        toc = blob[start : start + toc_length]
        future = toc.replace(
            b'"format":%d' % SNAPSHOT_FORMAT,
            b'"format":%d' % (SNAPSHOT_FORMAT + 1),
            1,
        )
        assert future != toc
        path.write_bytes(blob[:start] + future + blob[start + toc_length :])
        with pytest.raises(SnapshotError, match="format"):
            Snapshot(path)

    def test_previous_format_refused(self, saved, tmp_path):
        """A file of the previous format — JSON postings and a stored
        token table — is refused, not read by a second decoder."""
        __, path, ___ = saved
        with Snapshot(path) as snapshot:
            sections = [
                (name, bytes(snapshot.section(name)))
                for name in snapshot.sections()
            ]
        old = tmp_path / "old.snap"
        snapshot_module._publish(old, 1, sections + [("tokens", b"[]")])
        with pytest.raises(SnapshotError, match="format"):
            KeywordSearchEngine.open(old)
        # Format 3 stored one JSON object per row: the current layout
        # under that number is refused too.
        snapshot_module._publish(old, 3, sections)
        with pytest.raises(SnapshotError, match="format"):
            KeywordSearchEngine.open(old)
        # Format 4 stored each interning run as a JSON list of its keys,
        # in node order: refused under its number, and never decoded as
        # JSON under the current one.
        blobs, schema = dict(sections), planted_database().schema
        legacy = []
        for name, blob in sections:
            if name.startswith("interning:"):
                relation = schema.relation(name.partition(":")[2])
                columns = json.loads(blobs[f"rows:{relation.name}"])["columns"]
                keys = list(zip(*[columns[relation.attribute_names.index(c)]
                                  for c in relation.primary_key]))
                blob = snapshot_module._json_bytes(
                    [v for row in array("i", blob) for v in keys[row]]
                )
            legacy.append((name, blob))
        snapshot_module._publish(old, 4, legacy)
        with pytest.raises(SnapshotError, match="format"):
            KeywordSearchEngine.open(old)
        snapshot_module._publish(old, SNAPSHOT_FORMAT, legacy)
        with KeywordSearchEngine.open(old) as restored:
            with pytest.raises(SnapshotError, match="interning:EMPLOYEE"):
                restored.database.tuples("EMPLOYEE")

    @pytest.mark.parametrize("table", ("attributes", "foreign keys"))
    def test_schema_too_wide_for_one_byte_ids_is_refused(self, tmp_path, table):
        """``postings`` attribute ids and ``edge_keys`` are one byte each.
        A schema past 256 attribute names (one 301-attribute relation) or
        256 foreign keys builds and answers cold; ``save`` refuses it
        with a typed error naming the table before it writes a byte."""
        if table == "attributes":
            names = ["ID"] + [f"A{at}" for at in range(300)]
            schema = DatabaseSchema("wide", [
                Relation("WIDE", [AttributeDef(name) for name in names], ["ID"]),
            ])
            rows = [("WIDE", {"ID": "w0", **{f"A{at}": f"word{at}" for at in range(300)}})]
            query, size = "word299", 301
        else:
            schema = DatabaseSchema(
                "wide",
                [Relation("HUB", [AttributeDef("ID")], ["ID"])] + [
                    Relation(f"R{at}", [AttributeDef("ID"), AttributeDef("HUB_ID")],
                             ["ID"])
                    for at in range(257)
                ],
                [ForeignKey(f"fk{at}", f"R{at}", ("HUB_ID",), "HUB", ("ID",))
                 for at in range(257)],
            )
            rows = [("HUB", {"ID": "hub"})] + [
                (f"R{at}", {"ID": f"word{at}", "HUB_ID": "hub"}) for at in range(257)
            ]
            query, size = "word256 hub", 257
        database = Database(schema)
        for relation, values in rows:
            database.insert(relation, values)
        engine = KeywordSearchEngine(database)
        assert engine.search(query)
        path = tmp_path / "wide.snap"
        with pytest.raises(SnapshotError, match="too wide") as refused:
            engine.save(path)
        assert refused.value.context["table"] == table
        assert refused.value.context["size"] == size
        assert list(tmp_path.iterdir()) == []
        assert engine.search(query)

    def test_company_database_round_trip(self, tmp_path):
        engine = KeywordSearchEngine(build_company_database())
        path = tmp_path / "company.snap"
        engine.save(path)
        restored = KeywordSearchEngine.open(path)
        assert rendered(restored.search("Smith XML")) == rendered(
            engine.search("Smith XML")
        )


class TestDeltaSection:
    """A snapshot republished by compaction: base sections plus the
    folded WAL records as a ``delta`` section."""

    @pytest.fixture()
    def compacted(self, saved, monkeypatch):
        from repro.live.changes import apply_to_database

        monkeypatch.setattr(snapshot_module, "DELTA_FRACTION", 0)
        __, path, ___ = saved
        oracle_db = planted_database()
        employees = [t.tid.key[0] for t in oracle_db.tuples("EMPLOYEE")]
        batches = [
            [Insert("DEPENDENT", {"ID": "dl0", "ESSN": employees[0],
                                  "DEPENDENT_NAME": "kwbeta"})],
            [],
            [Update(TupleId("DEPENDENT", ("dl0",)), {"ESSN": employees[3]}),
             Insert("DEPENDENT", {"ID": "dl1", "ESSN": employees[1],
                                  "DEPENDENT_NAME": "kwalpha"})],
            [Delete(TupleId("DEPENDENT", ("dl1",)))],
        ]
        engine = KeywordSearchEngine.open(path, wal=True)
        for batch in batches:
            engine.apply(batch)
            apply_to_database(oracle_db, batch)
        engine.compact_wal()
        engine.close()
        with Snapshot(path) as snapshot:
            assert len(snapshot.delta()) == len(batches)
        return path, oracle_db, len(batches)

    def test_opens_to_the_state_a_cold_build_reaches(self, compacted):
        path, oracle_db, version = compacted
        with Snapshot(path) as snapshot:
            assert snapshot.meta["format"] == DELTA_FORMAT
            assert snapshot.base_version == 0
            assert snapshot.meta["engine_version"] == version
            # The counts describe the replayed engine; the byte-copied
            # arrays keep their own sizes for the loader.
            fresh = KeywordSearchEngine(oracle_db).traversal_cache.frozen()
            meta = snapshot.meta
            assert meta["tuples"] == meta["nodes"] == oracle_db.count()
            assert meta["entries"] == len(fresh._targets)
            assert meta["base_nodes"] == planted_database().count()
            assert meta["base_entries"] == len(snapshot.int_array("csr_targets"))
        restored = KeywordSearchEngine.open(path)
        assert restored.version == restored._snapshot_version == version
        assert not restored.data_graph.materialized
        oracle = KeywordSearchEngine(oracle_db, result_cache_entries=0)
        for query in QUERIES:
            for semantics in ("and", "or"):
                assert rendered(
                    restored.search(query, limits=LIMITS, semantics=semantics)
                ) == rendered(
                    oracle.search(query, limits=LIMITS, semantics=semantics)
                )
        restored.close()

    def test_delta_compaction_byte_copies_every_base_section(
        self, saved, compacted, tmp_path
    ):
        """A delta compaction re-encodes ``meta`` and appends ``delta``;
        every other section of the base keeps its bytes and its TOC CRC
        — also when the base is a delta file."""
        engine, __, ___ = saved
        base = tmp_path / "base.snap"
        engine.save(base)  # the bytes ``compacted`` started from

        def copied(path):
            with Snapshot(path) as snapshot:
                return {
                    name: (snapshot.read(name), snapshot._toc[name][2])
                    for name in snapshot.sections()
                    if name not in ("meta", "delta")
                }

        path, __, records = compacted
        expected = copied(base)
        assert copied(path) == expected
        engine = KeywordSearchEngine.open(path, wal=True)
        engine.search("kwalpha kwbeta", limits=LIMITS)
        engine.apply([])
        engine.compact_wal()
        engine.close()
        with Snapshot(path) as snapshot:
            assert len(snapshot.delta()) == records + 1
        assert copied(path) == expected

    def _delta_span(self, path):
        with Snapshot(path) as snapshot:
            offset, length, __ = snapshot._toc["delta"]
            return snapshot._data_start + offset, length

    def test_byte_flip_inside_the_delta_detected(self, compacted):
        path = compacted[0]
        start, length = self._delta_span(path)
        blob = bytearray(path.read_bytes())
        blob[start + length // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="integrity"):
            KeywordSearchEngine.open(path)

    def test_truncation_inside_the_delta_detected(self, compacted):
        path = compacted[0]
        start, length = self._delta_span(path)
        path.write_bytes(path.read_bytes()[: start + length // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            KeywordSearchEngine.open(path)

    def test_reader_that_would_ignore_the_delta_refuses(self, compacted):
        """Relabelled as a base file it is what a pre-delta reader
        believes it sees — it must not open as the stale base."""
        path = compacted[0]
        blob = path.read_bytes()
        relabelled = blob.replace(
            b'{"format":%d,' % DELTA_FORMAT,
            b'{"format":%d,' % SNAPSHOT_FORMAT,
            1,
        )
        assert relabelled != blob
        path.write_bytes(relabelled)
        with pytest.raises(SnapshotError, match="format"):
            Snapshot(path)

    def test_previous_delta_format_refused(self, compacted):
        """Format 5 deltas held per-batch changeset records: such a file
        is refused, not replayed by a second decoder."""
        path = compacted[0]
        with Snapshot(path) as snapshot:
            sections = [
                (name, bytes(snapshot.section(name)))
                for name in snapshot.sections()
            ]
        snapshot_module._publish(path, 5, sections)
        with pytest.raises(SnapshotError, match="format"):
            KeywordSearchEngine.open(path)

    @pytest.mark.parametrize("keep", [0, 2])
    def test_delta_that_stops_short_refuses(self, compacted, keep):
        """Checksums hold but the records do not reach the recorded
        engine version: a typed refusal, never a silently older engine."""
        path = compacted[0]
        with Snapshot(path) as snapshot:
            frames = snapshot.read("delta")
            cut = snapshot.delta()[keep][0]
            sections = [
                (name, frames[:cut] if name == "delta"
                 else bytes(snapshot.section(name)))
                for name in snapshot.sections()
            ]
        snapshot_module._publish(path, DELTA_FORMAT, sections)
        with pytest.raises(SnapshotError, match="does not replay"):
            KeywordSearchEngine.open(path)

    def test_delta_compaction_leaves_the_engine_untouched(
        self, tmp_path, monkeypatch
    ):
        """A delta compaction only reads the engine: no fold, no posting
        decode, the restored payloads and every held distance row stay."""
        from repro.graph.csr import FrozenGraph
        from repro.relational.index import _LazyPostings

        monkeypatch.setattr(snapshot_module, "DELTA_FRACTION", 0)
        path = tmp_path / "engine.snap"
        KeywordSearchEngine(planted_database()).save(path)
        engine = KeywordSearchEngine.open(path, wal=True)
        try:
            engine.search("kwalpha kwbeta", limits=LIMITS)
            employee = engine.database.tuples("EMPLOYEE")[0].tid.key[0]
            engine.apply([Insert("DEPENDENT", {
                "ID": "dz0", "ESSN": employee, "DEPENDENT_NAME": "kwbeta",
            })])
            engine.search("kwalpha kwgamma", limits=LIMITS)
            frozen = engine.traversal_cache.frozen()
            postings = engine.index._postings
            assert frozen._override and frozen._distances and postings._raw
            stamp, compactions = frozen.compile_stamp, frozen.compactions
            pending = set(postings._raw)
            # The insert's writes to still-encoded tokens are queued.
            queued = {token: list(writes)
                      for token, writes in postings._pending.items()}
            assert queued
            rows = list(frozen._distances.items())

            def refuse(*args, **kwargs):
                raise AssertionError("a delta compaction folded or decoded")

            with monkeypatch.context() as patched:
                patched.setattr(FrozenGraph, "_compile", refuse)
                patched.setattr(_LazyPostings, "decode_all", refuse)
                assert engine.compact_wal().records_folded == 1
            with Snapshot(path) as snapshot:
                assert "delta" in snapshot.sections()
            assert engine.traversal_cache.frozen() is frozen
            assert frozen.compile_stamp == stamp
            assert frozen.compactions == compactions
            assert set(postings._raw) == pending
            assert postings._pending == queued
            assert type(frozen._edge_refs) is memoryview
            assert list(frozen._distances.items()) == rows
            assert all(
                held[0] is row[0] for held, (__, row) in zip(
                    frozen._distances.values(), rows
                )
            )
            oracle = KeywordSearchEngine(engine.database, result_cache_entries=0)
            for query in QUERIES:
                assert rendered(engine.search(query, limits=LIMITS)) == rendered(
                    oracle.search(query, limits=LIMITS)
                )
        finally:
            engine.close()

    def test_second_compaction_extends_the_delta(self, compacted):
        path, __, version = compacted
        engine = KeywordSearchEngine.open(path, wal=True)
        engine.apply([])
        assert engine.compact_wal().records_folded == 1
        engine.close()
        with Snapshot(path) as snapshot:
            assert snapshot.base_version == 0
            assert [r["version"] for __, r in snapshot.delta()] == (
                list(range(1, version + 2))
            )


class TestMemoryFootprint:
    def test_payload_table_included(self):
        engine = KeywordSearchEngine(planted_database())
        frozen = engine.traversal_cache.frozen()
        footprint = frozen.memory_footprint()
        assert footprint["payload"] > 0
        assert footprint["total"] == (
            footprint["arrays"] + footprint["distances"] + footprint["payload"]
        )
        assert frozen.nbytes() == footprint["total"]


class TestStructuralDamage:
    """The binary ``postings`` and ``edge_keys`` sections are checked
    against their structure as they are read, not only by their CRC.

    Seeded damage — truncations anywhere, and flips of the bytes that
    carry structure: every offset byte, node-id bytes above the stored
    count, attribute ids and flag bits past their tables, foreign-key
    ids past theirs — is republished with the TOC CRC recomputed, so
    only the structural checks stand between it and the engine.  The
    one allowed outcome besides ``SnapshotError`` is an engine whose
    every posting list, edge payload and answer equals a cold build's.
    Bits that re-point to other *valid* content (the low byte of a node
    id, the whole-value bit, token text) are indistinguishable from real
    data without a checksum, and stay the CRC's job.
    """

    TRIALS = 40

    def _sections(self, path):
        with Snapshot(path) as snapshot:
            return snapshot.meta, [
                (name, bytes(snapshot.section(name)))
                for name in snapshot.sections()
            ]

    def _damage(self, rng, meta, name, blob):
        if rng.random() < 0.25:
            return blob[: rng.randrange(len(blob))]
        blob = bytearray(blob)
        if name == "edge_keys":
            blob[rng.randrange(len(blob))] ^= rng.randrange(8, 256)
            return bytes(blob)
        tokens, postings, __ = meta["postings"]
        nodes = 4 * (tokens + 1)
        attributes = nodes + 4 * postings
        region = rng.choice(("offsets", "nodes", "attributes", "flags"))
        if region == "offsets":
            blob[rng.randrange(nodes)] ^= rng.randrange(1, 256)
        elif region == "nodes":  # a byte above the node ids' low one
            blob[nodes + 4 * rng.randrange(postings) + rng.randrange(1, 4)] ^= (
                rng.randrange(1, 256)
            )
        elif region == "attributes":
            blob[attributes + rng.randrange(postings)] ^= rng.randrange(128, 256)
        else:  # any flag bit but the whole-value one
            blob[attributes + postings + rng.randrange(postings)] ^= (
                rng.randrange(1, 128) << 1
            )
        return bytes(blob)

    def _state(self, engine):
        frozen = engine.traversal_cache.frozen()
        return (
            {token: engine.index.postings(token)
             for token in engine.index.vocabulary()},
            [(key, frozen._payload(node, other, key, ref))
             for node in range(frozen.capacity)
             for other, key, ref in zip(*frozen._row_lists(node))],
            [rendered(engine.search(query, limits=LIMITS, semantics=semantics))
             for query in QUERIES for semantics in ("and", "or")],
        )

    def test_damage_is_refused_or_harmless(self, saved, tmp_path):
        engine, path, __ = saved
        cold = self._state(KeywordSearchEngine(planted_database()))
        meta, sections = self._sections(path)
        rng = random.Random(2024)
        refused = 0
        for trial in range(self.TRIALS):
            name = ("postings", "edge_keys")[trial % 2]
            damaged = tmp_path / f"damaged{trial}.snap"
            snapshot_module._publish(damaged, SNAPSHOT_FORMAT, [
                (section, self._damage(rng, meta, name, blob)
                 if section == name else blob)
                for section, blob in sections
            ])
            try:
                restored = KeywordSearchEngine.open(damaged)
                try:
                    state = self._state(restored)
                finally:
                    restored.close()
            except SnapshotError:
                refused += 1
                continue
            assert state == cold, (trial, name)
        assert refused == self.TRIALS

    @pytest.mark.parametrize("damage", ("unsorted", "duplicate"))
    def test_directory_out_of_order_is_refused_on_first_read(
        self, saved, tmp_path, damage
    ):
        """The token directory is bisected, so it must be in strict
        order: one republished with two tokens swapped or one token
        repeated (meta and CRC rewritten to match) opens, and its first
        token read is refused."""
        __, path, ___ = saved
        meta, sections = self._sections(path)
        tokens, postings, size = meta["postings"]
        blob = dict(sections)["postings"]
        start = 4 * (tokens + 1) + 6 * postings
        directory = json.loads(blob[start:])
        assert len(directory) == tokens and directory == sorted(set(directory))
        if damage == "unsorted":
            directory[0], directory[1] = directory[1], directory[0]
        else:
            directory[1] = directory[0]
        encoded = snapshot_module._json_bytes(directory)
        meta = dict(meta, postings=[tokens, postings, len(encoded)])
        damaged = tmp_path / "directory.snap"
        snapshot_module._publish(damaged, SNAPSHOT_FORMAT, [
            (name, snapshot_module._json_bytes(meta) if name == "meta"
             else blob[:start] + encoded if name == "postings" else section)
            for name, section in sections
        ])
        with KeywordSearchEngine.open(damaged) as restored:
            for __ in range(2):  # refused again, never half-read
                with pytest.raises(SnapshotError, match="token directory"):
                    restored.index.postings("kwalpha")

    def test_reference_flag_other_than_0_or_1_is_refused(self, saved, tmp_path):
        """The restored graph holds ``edge_ref`` as its flags, as is:
        any byte but 0 or 1 is refused at open."""
        __, path, ___ = saved
        meta, sections = self._sections(path)
        rng = random.Random(2025)
        for trial in range(4):
            damaged = tmp_path / f"flag{trial}.snap"
            replaced = []
            for section, blob in sections:
                if section == "edge_ref":
                    blob = bytearray(blob)
                    blob[rng.randrange(len(blob))] = rng.randrange(2, 256)
                replaced.append((section, bytes(blob)))
            snapshot_module._publish(damaged, SNAPSHOT_FORMAT, replaced)
            with pytest.raises(SnapshotError):
                KeywordSearchEngine.open(damaged)

    @pytest.mark.parametrize("damage", (
        "repeated row", "negative row", "row past the end", "short", "long",
        "truncated",
    ))
    def test_interning_permutation_is_checked_as_its_rows_load(
        self, saved, tmp_path, damage
    ):
        """An ``interning:<R>`` section must be a permutation of the
        relation's row numbers, one per node of its run: one that
        repeats or overruns a row, or holds another count of them, is
        refused as the relation's rows load — every time, by a node
        read as by a store read — and never resolves to a wrong key."""
        __, path, ___ = saved
        meta, sections = self._sections(path)
        name = "interning:WORKS_FOR"
        rows = array("i", dict(sections)[name])
        count = dict(meta["interning"])["WORKS_FOR"]
        assert sorted(rows) == list(range(count))
        if damage == "repeated row":
            rows[1] = rows[0]
        elif damage == "negative row":
            rows[0] = -1
        elif damage == "row past the end":
            rows[0] = count
        elif damage == "short":
            rows.pop()
        elif damage == "long":
            rows.append(0)
        blob = rows.tobytes()
        if damage == "truncated":
            blob = blob[:-2]
        damaged = tmp_path / "damaged.snap"
        snapshot_module._publish(damaged, SNAPSHOT_FORMAT, [
            (section, blob if section == name else original)
            for section, original in sections
        ])
        start = sum(count for relation, count in meta["interning"]
                    if relation < "WORKS_FOR")
        with KeywordSearchEngine.open(damaged) as restored:
            for __ in range(2):
                with pytest.raises(SnapshotError, match=name):
                    restored.database.tuples("WORKS_FOR")
                with pytest.raises(SnapshotError, match=name):
                    restored.traversal_cache.frozen().tid_of(start)
            assert "WORKS_FOR" not in dict.keys(restored.database._tuples)
            assert restored.database.tuples("PROJECT")

    @pytest.mark.parametrize("damage", (
        "truncated", "column count", "column lengths", "key type",
        "duplicate key", "label count",
    ))
    def test_damaged_rows_section_is_refused_on_first_touch(
        self, saved, tmp_path, damage
    ):
        """A ``rows:<R>`` section is parsed on the relation's first
        touch; one that disagrees with the schema, with itself or with
        the meta's row count is refused then — every time, leaving no
        store behind — never read into a partial or wrong store."""
        __, path, ___ = saved
        meta, sections = self._sections(path)
        name = "rows:WORKS_FOR"  # key (ESSN, P_ID), labels stored
        blob = dict(sections)[name]
        document = json.loads(blob)
        columns, labels = document["columns"], document["labels"]
        assert labels is not None
        if damage == "truncated":
            blob = blob[: len(blob) // 2]
        else:
            if damage == "column count":
                columns.pop()
            elif damage == "column lengths":
                columns[-1].pop()
            elif damage == "key type":
                columns[1][3] = {"P_ID": columns[1][3]}
            elif damage == "duplicate key":
                columns[0][1], columns[1][1] = columns[0][0], columns[1][0]
            else:
                labels.append("w_extra")
            blob = snapshot_module._json_bytes(document)
        damaged = tmp_path / "damaged.snap"
        snapshot_module._publish(damaged, SNAPSHOT_FORMAT, [
            (section, blob if section == name else original)
            for section, original in sections
        ])
        restored = KeywordSearchEngine.open(damaged)
        assert restored.database.count("WORKS_FOR") == dict(meta["interning"])["WORKS_FOR"]
        for __ in range(2):
            with pytest.raises(SnapshotError, match="rows:WORKS_FOR"):
                restored.database.tuples("WORKS_FOR")
        assert "WORKS_FOR" not in dict.keys(restored.database._tuples)
        assert restored.database.tuples("PROJECT")
        restored.close()
