"""Snapshot round-trip, integrity and laziness tests."""

import os
import random
import struct
import sys

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.company import build_company_database
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_tenants,
    plant,
)
from repro.errors import QueryError, SearchLimitError, SnapshotError
from repro.live.changes import Delete, Insert, Update, apply_to_database
from repro.relational.database import TupleId
from repro.relational.index import _posted, tokenize
from repro.relational.statistics import DatabaseStatistics
from repro.scale import snapshot as snapshot_module
from repro.scale.snapshot import SNAPSHOT_FORMAT, Snapshot

CONFIG = SyntheticConfig(
    departments=2,
    projects_per_department=2,
    employees_per_department=4,
    works_on_per_employee=2,
    seed=23,
)
LIMITS = SearchLimits(max_rdb_length=4, max_tuples=5)
QUERIES = ("kwalpha kwbeta", "kwalpha kwbeta kwgamma", "kwalpha", "zznothing")


def planted_database(tenants=3):
    database = generate_tenants(CONFIG, tenants=tenants)
    plant(database, "kwalpha", "DEPARTMENT", "D_DESCRIPTION", 3, seed=1)
    plant(database, "kwbeta", "EMPLOYEE", "L_NAME", 3, seed=2)
    plant(database, "kwgamma", "PROJECT", "P_DESCRIPTION", 3, seed=3)
    return database


def rendered(results):
    return [(r.render(), r.score, r.rank) for r in results]


@pytest.fixture()
def saved(tmp_path):
    engine = KeywordSearchEngine(planted_database(), shards=3)
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
        engine, path, __ = saved
        restored = KeywordSearchEngine.open(path, core=core)
        oracle = KeywordSearchEngine(
            planted_database(), core=core, result_cache_entries=0
        )
        for query in QUERIES:
            assert rendered(restored.search(query, limits=LIMITS)) == rendered(
                oracle.search(query, limits=LIMITS)
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
        # The reference flags were read as stored: no payload dict built.
        assert restored.traversal_cache.frozen()._edge_data._cache == {}

    def test_save_reuses_held_statistics(self, saved, tmp_path, monkeypatch):
        engine, path, __ = saved
        engine.statistics = DatabaseStatistics(engine.database)
        monkeypatch.setattr(
            DatabaseStatistics, "_compute",
            lambda self: pytest.fail("statistics recomputed"),
        )
        second = tmp_path / "second.snap"
        engine.save(second)
        assert path.read_bytes() == second.read_bytes()

    def test_shard_plan_restored(self, saved):
        engine, path, __ = saved
        restored = KeywordSearchEngine.open(path)
        assert restored.shards == engine.shards
        assert (
            restored.shard_plan._assignment == engine.shard_plan._assignment
        )

    def test_statistics_restored(self, saved):
        engine, path, __ = saved
        restored = KeywordSearchEngine.open(path)
        fresh = DatabaseStatistics(engine.database)
        assert restored.statistics.to_dict() == fresh.to_dict()

    def test_engine_options_pass_through(self, saved):
        __, path, ___ = saved
        restored = KeywordSearchEngine.open(
            path, shards=2, result_cache_entries=0
        )
        assert restored.shards == 2
        assert restored.result_cache.max_entries == 0
        assert restored.shard_plan.shard_count == 2


class TestLaziness:
    def test_pure_csr_path_query_never_builds_the_graph(self, saved):
        __, path, ___ = saved
        restored = KeywordSearchEngine.open(path)
        restored.search("kwalpha kwbeta", limits=LIMITS)
        assert not restored.data_graph.materialized

    def test_write_path_never_builds_the_graph(self, saved):
        """open(wal=True) -> apply xN -> reopen (replay) -> apply ->
        compact_wal -> search: nothing on the way materialises networkx,
        and the answers equal a cold build over the same mutations."""
        from repro.live.changes import apply_to_database

        __, path, ___ = saved
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
        for batch in batches[2:]:
            restored.apply(batch)
        assert restored.compact_wal().records_folded == len(batches)
        assert not restored.data_graph.materialized
        for batch in batches:
            apply_to_database(oracle_db, batch)
        oracle = KeywordSearchEngine(oracle_db, result_cache_entries=0)
        for semantics in ("and", "or"):
            assert rendered(
                restored.search("kwalpha kwbeta", limits=LIMITS,
                                semantics=semantics)
            ) == rendered(
                oracle.search("kwalpha kwbeta", limits=LIMITS,
                              semantics=semantics)
            )
        assert not restored.data_graph.materialized
        restored.close()

    def test_cold_read_path_never_builds_the_graph(self, tmp_path, monkeypatch):
        """The write-path test's twin for a cold build: the csr core
        compiles straight from the stored references, so reading,
        applying and saving never ask for the multigraph — the oracle
        core and the neighbourhood-reading ranker still get it."""
        from repro.core.ranking import InstanceAmbiguityRanker
        from repro.graph import data_graph as data_graph_module

        def refuse(database):
            raise AssertionError("build_tuple_graph called on the csr path")

        real = data_graph_module.build_tuple_graph
        monkeypatch.setattr(data_graph_module, "build_tuple_graph", refuse)
        engine = KeywordSearchEngine(planted_database())
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
        assert not engine.data_graph.materialized
        assert "materialized=False" in repr(engine.data_graph)

        monkeypatch.setattr(data_graph_module, "build_tuple_graph", real)
        oracle = KeywordSearchEngine(engine.database, core="reference")
        assert rendered(oracle.search("kwalpha kwbeta", limits=LIMITS)) == after
        assert oracle.data_graph.materialized
        engine.search(
            "kwalpha kwbeta", limits=LIMITS, ranker=InstanceAmbiguityRanker()
        )
        assert engine.data_graph.materialized

    def test_stored_fast_core_opens_on_csr(self, saved, tmp_path):
        # Files written while the retired ``fast`` core existed may name
        # it in their meta; they open on ``csr``, whose answers were
        # bit-identical to it by contract.
        engine, path, __ = saved
        engine.core = "fast"
        legacy = tmp_path / "legacy.snap"
        engine.save(legacy)
        assert Snapshot(legacy).meta["core"] == "fast"
        restored = KeywordSearchEngine.open(legacy)
        original = KeywordSearchEngine.open(path)
        assert restored.core == "csr"
        for query in QUERIES:
            assert rendered(restored.search(query, limits=LIMITS)) == rendered(
                original.search(query, limits=LIMITS)
            )
        with pytest.raises(QueryError):
            KeywordSearchEngine.open(path, core="fast")
        restored.close()
        original.close()

    def test_replay_decodes_what_its_records_touch(self, tmp_path):
        """open(wal=True) over the bib corpus with a tail of publish /
        retitle / retract records: no per-tuple token table, posting
        lists decoded only for tokens the records' before and after
        images (then the queries) carry, node maps only for relations
        the records name, sort keys only for the nodes they touch."""
        sys.path.insert(0, os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "e2e"
        ))
        try:
            import corpus
        finally:
            del sys.path[0]
        bib = corpus.generate("tiny", 7)
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

        texts = bib.texts(4)
        for text in texts:
            restored.search(text, top_k=10)
        asked = {token for text in texts for token in tokenize(text)}
        assert set(dict.keys(index._postings)) <= carried | asked
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
            frozen._edge_data._cache.clear()
            for entry in range(len(frozen._targets)):
                payload = frozen._edge_data[entry]
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
            assert snapshot.meta["format"] == SNAPSHOT_FORMAT + 1
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
        # The stored statistics are the base's and go with the replay —
        # the live engine dropped its own at its first apply.
        assert restored.statistics is None
        restored.close()

    def test_learned_calibration_survives_a_delta_compaction(self, compacted):
        path = compacted[0]
        engine = KeywordSearchEngine.open(path, wal=True)
        engine._ensure_cost_model()
        engine.calibration.observe("and", 4.0, 8.0)
        learned = engine.calibration.to_dict()
        engine.apply([])
        engine.compact_wal()
        engine.close()
        with Snapshot(path) as snapshot:
            assert "delta" in snapshot.sections()
            assert snapshot.json("stats")["calibration"] == learned
        restored = KeywordSearchEngine.open(path)
        restored._ensure_cost_model()
        assert restored.calibration.to_dict() == learned
        restored.close()

        # An engine that never loaded the stored table copies it as is.
        engine = KeywordSearchEngine.open(path, wal=True)
        engine.apply([])
        engine.compact_wal()
        engine.close()
        with Snapshot(path) as snapshot:
            assert snapshot.json("stats")["calibration"] == learned

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
            b'{"format":%d,' % (SNAPSHOT_FORMAT + 1),
            b'{"format":%d,' % SNAPSHOT_FORMAT,
            1,
        )
        assert relabelled != blob
        path.write_bytes(relabelled)
        with pytest.raises(SnapshotError, match="format"):
            Snapshot(path)

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
        snapshot_module._publish(path, SNAPSHOT_FORMAT + 1, sections)
        with pytest.raises(SnapshotError, match="does not replay"):
            KeywordSearchEngine.open(path)

    def test_delta_compaction_leaves_the_engine_untouched(
        self, tmp_path, monkeypatch
    ):
        """A delta compaction only reads the engine: no fold, no posting
        decode, the restored payloads and every held distance row stay."""
        from repro.graph.csr import FrozenGraph
        from repro.relational.index import _LazyPostings
        from repro.scale.snapshot import _LazyEdgeData

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
            stamp = frozen.compile_stamp
            pending = set(postings._raw)
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
            assert set(postings._raw) == pending
            assert type(frozen._edge_data) is _LazyEdgeData
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
            [(frozen._edge_keys[at], frozen._edge_data[at])
             for at in range(len(frozen._targets))],
            [rendered(engine.search(query, limits=LIMITS, semantics=semantics))
             for query in QUERIES for semantics in ("and", "or")],
        )

    def test_damage_is_refused_or_harmless(self, saved, tmp_path):
        engine, path, __ = saved
        cold = self._state(KeywordSearchEngine(planted_database(), shards=3))
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
