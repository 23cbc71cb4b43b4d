"""Unit tests for the dependency-tracked answer cache."""

from repro.core.engine import KeywordSearchEngine
from repro.core.ranking import InstanceAmbiguityRanker
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.graph.csr import _UNREACHABLE
from repro.live.changes import ChangeSet, Delete, Insert, Update
from repro.live.result_cache import CacheEntry, ResultCache
from repro.relational.database import TupleId


def tid(relation, *key):
    return TupleId(relation, tuple(key))


def entry(keywords=("x",), footprint=(), fingerprint=((),), volatile=False,
          semantics="and", limits=SearchLimits()):
    return CacheEntry(
        results=(),
        stats=None,
        keywords=tuple(keywords),
        footprint=frozenset(footprint),
        fingerprint=tuple(fingerprint),
        volatile=volatile,
        semantics=semantics,
        limits=limits,
    )


class Graph:
    """Stand-in for a compiled graph: tuple ids interned in list order,
    undirected edges, :meth:`FrozenGraph.ball`'s level sweep and the
    meeting test it answers."""

    compile_stamp = 1

    def __init__(self, tids=(), edges=()):
        self.nodes = {member: node for node, member in enumerate(tids)}
        self.rows = {node: [] for node in self.nodes.values()}
        for one, other in edges:
            self.rows[self.nodes[one]].append(self.nodes[other])
            self.rows[self.nodes[other]].append(self.nodes[one])

    def node_of(self, member):
        return self.nodes.get(member)

    def meets(self, sources, radius, ball):
        return not ball.keys().isdisjoint(self.ball(sources, radius))

    def ball(self, sources, radius):
        ball = dict.fromkeys(sources, 0)
        frontier = list(ball)
        for depth in range(1, radius + 1):
            reached = []
            for at in frontier:
                for other in self.rows[at]:
                    if other not in ball:
                        ball[other] = depth
                        reached.append(other)
            frontier = reached
        return ball


def invalidate(cache, changeset, index, graph=None, seeds=()):
    """``cache.invalidate`` with ``graph`` (default: empty) as the patched
    compiled graph, swept from the nodes of the ``seeds`` tuples."""
    graph = graph if graph is not None else Graph()
    nodes = [graph.node_of(seed) for seed in seeds]
    return cache.invalidate(
        changeset, index, lambda: graph,
        lambda radius: graph.ball(nodes, radius),
    )


def reverse_maps(cache):
    """The reverse maps re-derived from the entries alone."""
    by_tuple, by_token, radii = {}, {}, {}
    for key, item in cache._entries.items():
        for member in item.footprint:
            by_tuple.setdefault(member, set()).add(key)
        for token in item.tokens():
            by_token.setdefault(token, set()).add(key)
        if item.seed_radius is not None:
            radii[item.seed_radius] = radii.get(item.seed_radius, 0) + 1
    volatile = {key for key, item in cache._entries.items() if item.volatile}
    return by_tuple, by_token, volatile, radii


def assert_maps_consistent(cache):
    cache.seed_radius()  # the maps exist from the first changeset on
    assert (
        cache._by_tuple, cache._by_token, cache._volatile, cache._radii
    ) == reverse_maps(cache)
    assert {
        key: (record.entry, record.radius)
        for key, record in cache._taintable.items()
    } == {
        key: (item, item.seed_radius) for key, item in cache._entries.items()
        if item.seed_radius is not None
    }
    by_node = {}
    for record in cache._taintable.values():
        assert (record.nodes is None) == (record in cache._unbound)
        for group in record.nodes or ():
            for node in group:
                by_node.setdefault(node, set()).add(record)
    assert cache._by_node == by_node


class TestLruMechanics:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.lookup("k") is None
        cache.store("k", entry())
        assert cache.lookup("k") is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_eviction_drops_least_recently_used(self):
        cache = ResultCache(max_entries=2)
        cache.store("a", entry())
        cache.store("b", entry())
        cache.lookup("a")  # refresh a; b becomes LRU
        cache.store("c", entry())
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.stats.evicted == 1

    def test_zero_entries_disables_cache(self):
        cache = ResultCache(max_entries=0)
        cache.store("a", entry())
        assert len(cache) == 0
        assert cache.lookup("a") is None


class TestReverseMaps:
    """Tuple, token, volatile, radius and node maps mirror the entries
    always."""

    E1, E2, D1 = tid("EMPLOYEE", "e1"), tid("EMPLOYEE", "e2"), tid("DEPARTMENT", "d1")

    def test_maps_wait_for_the_first_changeset(self, index):
        cache = ResultCache(max_entries=1)
        cache.store("a", entry(keywords=("smith",), footprint=[self.E1]))
        cache.store("b", entry(keywords=("xml",), footprint=[self.D1]))
        assert cache._by_tuple is None and not cache._by_token
        invalidate(cache, ChangeSet(tuples_updated=(self.E2,)), index)
        assert cache._by_tuple == {self.D1: {"b"}}
        cache.store("c", entry(keywords=("smith",), footprint=[self.E1]))
        assert_maps_consistent(cache)
        cache.clear()
        assert cache._by_tuple is None

    def test_store_over_existing_key_relinks(self):
        cache = ResultCache()
        cache.seed_radius()
        cache.store("k", entry(keywords=("smith", "xml@DEPARTMENT"),
                               footprint=[self.E1, self.D1], volatile=True))
        cache.store("k", entry(keywords=("jones",), footprint=[self.E2],
                               limits=SearchLimits(max_rdb_length=2,
                                                   max_tuples=2)))
        assert_maps_consistent(cache)
        assert set(cache._by_tuple) == {self.E2}
        assert set(cache._by_token) == {"jones"}
        assert not cache._volatile
        assert cache.seed_radius() is None  # one keyword: never swept

    def test_lru_eviction_unlinks(self):
        cache = ResultCache(max_entries=2)
        cache.seed_radius()
        cache.store("a", entry(keywords=("smith",), footprint=[self.E1]))
        cache.store("b", entry(keywords=("smith",), footprint=[self.E1, self.E2]))
        cache.store("c", entry(keywords=("xml",), footprint=[self.D1]))
        assert_maps_consistent(cache)
        assert cache._by_tuple[self.E1] == {"b"}
        assert cache._by_token == {"smith": {"b"}, "xml": {"c"}}

    def test_invalidate_and_clear_unlink(self, index):
        cache = ResultCache()
        cache.store("a", entry(keywords=("smith",), footprint=[self.E1],
                               fingerprint=(index.matching_tuples("smith"),)))
        cache.store("b", entry(keywords=("xml",), footprint=[self.D1],
                               fingerprint=(index.matching_tuples("xml"),)))
        assert invalidate(
            cache, ChangeSet(tuples_updated=(self.E1,)), index
        ) == 1
        assert_maps_consistent(cache)
        assert list(cache._entries) == ["b"]
        cache.clear()
        assert cache.seed_radius() is None and not cache._by_tuple
        assert_maps_consistent(cache)

    def test_role_qualified_keywords_share_one_token(self):
        cache = ResultCache()
        cache.seed_radius()
        cache.store("k", entry(keywords=("Smith@EMPLOYEE", "smith@DEPENDENT")))
        assert cache._by_token == {"smith": {"k"}}
        cache.store("k", entry(keywords=("other",)))
        assert_maps_consistent(cache)


class TestInvalidation:
    def test_footprint_intersection_drops_entry(self, index):
        cache = ResultCache()
        cache.store("hit", entry(keywords=("smith",),
                                 footprint=[tid("EMPLOYEE", "e1")],
                                 fingerprint=(index.matching_tuples("smith"),)))
        cache.store("survives", entry(keywords=("smith",),
                                      footprint=[tid("EMPLOYEE", "e3")],
                                      fingerprint=(index.matching_tuples("smith"),)))
        dropped = invalidate(
            cache, ChangeSet(tuples_updated=(tid("EMPLOYEE", "e1"),)), index
        )
        assert dropped == 1
        assert cache.lookup("survives") is not None
        assert cache.lookup("hit") is None

    def test_fingerprint_change_drops_entry(self, company_db, index):
        cache = ResultCache()
        cache.store("q", entry(keywords=("smith",),
                               footprint=[tid("EMPLOYEE", "e1")],
                               fingerprint=(index.matching_tuples("smith"),)))
        cache.store("role", entry(keywords=("smith@EMPLOYEE",),
                                  footprint=[tid("EMPLOYEE", "e1")],
                                  fingerprint=(index.matching_tuples("smith"),)))
        # A new tuple matching "smith" far from every footprint: only
        # the token map finds the entry, and the re-derived fingerprint
        # drops it — but not the entry whose role excludes the newcomer.
        record = company_db.insert(
            "DEPENDENT", {"ID": "t9", "ESSN": "e3", "DEPENDENT_NAME": "Smith"}
        )
        index.append_tuples([(record.tid, record.values)])
        dropped = invalidate(
            cache, ChangeSet(tuples_added=(record.tid,)), index,
            Graph([record.tid]), [record.tid],
        )
        assert dropped == 1
        assert cache.lookup("role") is not None

    def test_volatile_entry_drops_on_any_change(self, index):
        cache = ResultCache()
        cache.store("ambiguity", entry(volatile=True))
        assert invalidate(
            cache, ChangeSet(tuples_updated=(tid("EMPLOYEE", "e1"),)), index
        ) == 1

    def test_empty_changeset_drops_nothing(self, index):
        cache = ResultCache()
        cache.store("ambiguity", entry(volatile=True))
        assert invalidate(cache, ChangeSet(), index) == 0


class TestStructuralTaint:
    """Which structural changes reach an entry (module docstring).  Each
    case is a star around the added tuple Z: a tuple given depth d sits
    d hops out on a spoke of its own (depth 0: a seed itself), every
    other tuple is isolated — so the sweep from the seeds labels the
    tuples with exactly the depths given."""

    A, B, C = tid("EMPLOYEE", "e1"), tid("DEPARTMENT", "d1"), tid("PROJECT", "p1")
    Z = tid("DEPENDENT", "zz")
    EDGE = ChangeSet(tuples_added=(Z,))

    def star(self, depths):
        """``(graph, seeds)`` realising ``depths`` from Z."""
        tids, edges, seeds = [self.Z, self.A, self.B, self.C], [], [self.Z]
        for member, depth in depths.items():
            if depth == 0:
                seeds.append(member)
                continue
            spoke = [self.Z] + [
                tid("SPOKE", member.key[0], hop) for hop in range(1, depth)
            ]
            tids.extend(spoke[1:])
            edges.extend(zip(spoke, spoke[1:] + [member]))
        return Graph(tids, edges), seeds

    def tainted(self, item, depths, index):
        cache = ResultCache()
        cache.store("k", item)
        graph, seeds = self.star(depths)
        return invalidate(cache, self.EDGE, index, graph, seeds) == 1

    def pair(self, **options):
        return entry(keywords=("a", "b"), footprint=[self.A, self.B],
                     fingerprint=((self.A,), (self.B,)), **options)

    def test_and_needs_every_keyword_inside_the_ball(self, index):
        assert not self.tainted(self.pair(), {self.A: 0}, index)
        assert self.tainted(self.pair(), {self.A: 0, self.B: 1}, index)

    def test_two_keywords_need_depths_that_fit_one_path(self, index):
        # L = 4 sweeps one hop: B, two hops out, is met in the middle.
        limits = SearchLimits(max_rdb_length=4)
        assert self.tainted(
            self.pair(limits=limits), {self.A: 1, self.B: 2}, index
        )
        assert not self.tainted(
            self.pair(limits=limits), {self.A: 2, self.B: 2}, index
        )

    def test_depths_beyond_the_entry_reach_do_not_count(self, index):
        short = SearchLimits(max_rdb_length=2, max_tuples=2)
        three = entry(keywords=("a", "b", "c"),
                      footprint=[self.A, self.B, self.C],
                      fingerprint=((self.A,), (self.B,), (self.C,)),
                      limits=short)
        assert three.seed_radius == 1
        assert not self.tainted(
            three, {self.A: 0, self.B: 1, self.C: 2}, index
        )
        assert self.tainted(three, {self.A: 0, self.B: 1, self.C: 1}, index)

    def test_or_needs_any_two_keywords(self, index):
        three = dict(keywords=("a", "b", "c"),
                     footprint=[self.A, self.B, self.C],
                     fingerprint=((self.A,), (self.B,), (self.C,)))
        ball = {self.A: 0, self.B: 1}
        assert not self.tainted(entry(**three), ball, index)
        assert self.tainted(entry(semantics="or", **three), ball, index)
        assert not self.tainted(
            entry(semantics="or", **three), {self.A: 0}, index
        )

    def test_answer_tuples_select_but_do_not_taint(self, index):
        # C is only *in an answer*: taint is decided on matched tuples.
        item = entry(keywords=("a", "b"), footprint=[self.A, self.B, self.C],
                     fingerprint=((self.A,), (self.B,)))
        assert not self.tainted(item, {self.C: 0}, index)

    def test_one_keyword_never_taints_structurally(self, index):
        item = entry(keywords=("a",), footprint=[self.A],
                     fingerprint=((self.A,),))
        assert item.seed_radius is None
        assert not self.tainted(item, {self.A: 0}, index)

    def test_pair_met_in_the_middle_at_the_bound(self, index):
        # L = 5 sweeps two hops.  With A at 1, B counts up to 3 hops out
        # (1 + 3 <= L - 1) and no farther.
        assert self.tainted(self.pair(), {self.A: 1, self.B: 3}, index)
        assert not self.tainted(self.pair(), {self.A: 1, self.B: 4}, index)
        assert not self.tainted(self.pair(), {self.A: 2, self.B: 3}, index)


class TestSeedRadius:
    """The sweep is as deep as the widest live entry needs, and the node
    map follows the graph it was interned against."""

    A, B, C = TestStructuralTaint.A, TestStructuralTaint.B, TestStructuralTaint.C

    def test_pairs_sweep_half_the_path_three_keywords_their_reach(self):
        cache = ResultCache()
        limits = SearchLimits(max_rdb_length=5, max_tuples=4)
        cache.store("one", entry(keywords=("a",), fingerprint=((self.A,),),
                                 limits=limits))
        assert cache.seed_radius() is None
        cache.store("pair", entry(keywords=("a", "b"),
                                  fingerprint=((self.A,), (self.B,)),
                                  limits=limits))
        assert cache.seed_radius() == (5 - 1) // 2
        cache.store("three", entry(keywords=("a", "b", "c"),
                                   fingerprint=((self.A,), (self.B,), (self.C,)),
                                   limits=limits))
        assert cache.seed_radius() == max(5, 4 - 1) - 1
        assert_maps_consistent(cache)
        cache.store("three", entry(keywords=("a",), fingerprint=((self.A,),)))
        assert cache.seed_radius() == 2
        assert_maps_consistent(cache)

    def test_a_recompile_reinterns_the_fingerprints(self, index):
        star = TestStructuralTaint()
        cache = ResultCache()
        cache.store("pair", star.pair())
        graph, seeds = star.star({star.A: 4})
        assert invalidate(cache, star.EDGE, index, graph, seeds) == 0
        assert_maps_consistent(cache)
        # The same graph object, recompiled: B's node int now names
        # another tuple.  A node map kept across the fold would miss it.
        graph.nodes = {
            member: len(graph.nodes) - 1 - node
            for member, node in graph.nodes.items()
        }
        graph.rows = {node: [] for node in graph.nodes.values()}
        graph.compile_stamp = 2
        assert invalidate(
            cache, star.EDGE, index, graph, [star.Z, star.A, star.B]
        ) == 1
        assert_maps_consistent(cache)


class TestEngineIntegration:
    def test_unrelated_component_keeps_entry(self, company_db):
        # Two disconnected worlds: the running example plus an isolated
        # department.  Mutating the isolated one must not invalidate
        # cached answers from the main component.
        company_db.insert(
            "DEPARTMENT", {"ID": "d9", "D_NAME": "solo",
                           "D_DESCRIPTION": "isolated island"}
        )
        engine = KeywordSearchEngine(company_db)
        engine.search("Smith XML")
        engine.search("island")
        assert engine.result_cache.stats.stores == 2
        engine.apply([Update(tid("DEPARTMENT", "d9"),
                             {"D_DESCRIPTION": "still isolated island"})])
        assert engine.result_cache.stats.invalidated == 1  # only "island"
        engine.search("Smith XML")
        assert engine.result_cache.stats.hits == 1

    def test_metrics_registry_mirrors_cache_counters(self, company_db):
        # The engine's counter snapshot reads the CacheStats object: the
        # same hit/miss/store/invalidation transitions, no second copy.
        engine = KeywordSearchEngine(company_db)
        engine.search("Smith XML")           # miss + store
        engine.search("Smith XML")           # hit
        engine.apply([Update(tid("DEPARTMENT", "d1"),
                             {"D_DESCRIPTION": "XML bases"})])
        engine.search("Smith XML")           # invalidated -> miss again
        counters = engine.metrics_snapshot()
        stats = engine.result_cache.stats
        assert counters["result_cache.hits"] == stats.hits == 1
        assert counters["result_cache.misses"] == stats.misses == 2
        assert counters["result_cache.stores"] == stats.stores == 2
        assert counters["result_cache.invalidated"] == stats.invalidated == 1
        assert engine.version == 1  # one changeset applied

    def test_distant_structural_change_keeps_entry(self, company_db):
        # d2's neighbourhood is one connected component with Smith/XML,
        # but under short limits an edge there is out of answer reach.
        limits = SearchLimits(max_rdb_length=2, max_tuples=2)
        engine = KeywordSearchEngine(company_db, limits=limits)
        before = [r.render() for r in engine.search("Smith XML")]
        engine.search("Smith XML")
        assert engine.result_cache.stats.hits == 1
        engine.apply([Insert("DEPENDENT", {"ID": "t9", "ESSN": "e4",
                                           "DEPENDENT_NAME": "Nora"})])
        assert engine.result_cache.stats.invalidated == 0
        assert [r.render() for r in engine.search("Smith XML")] == before
        assert engine.result_cache.stats.hits == 2
        fresh = KeywordSearchEngine(company_db, limits=limits)
        assert [r.render() for r in fresh.search("Smith XML")] == before

    def test_neighbourhood_reading_ranker_is_cached_volatile(self, company_db):
        engine = KeywordSearchEngine(
            company_db, ranker=InstanceAmbiguityRanker(),
            limits=SearchLimits(max_rdb_length=2, max_tuples=2),
        )
        engine.search("Smith XML")
        engine.apply([Insert("DEPENDENT", {"ID": "t9", "ESSN": "e4",
                                           "DEPENDENT_NAME": "Nora"})])
        assert engine.result_cache.stats.invalidated == 1

    def test_ranker_without_a_value_repr_is_never_cached(self, company_db):
        """A ranker whose repr names its address (a plain class's
        default ``object`` repr) has no value identity: a later instance
        at a recycled address must not be served an earlier one's
        entry, so its searches stay uncached."""

        class Signed:
            name = "signed"

            def __init__(self, sign):
                self.sign = sign

            def score(self, answer):
                return (self.sign * answer.er_length,)

        def scores_are_its_own(results, ranker):
            return results and all(
                result.score[-1:] == ranker.score(result.answer)
                for result in results
            )

        engine = KeywordSearchEngine(company_db)
        first = Signed(1.0)
        assert " at 0x" in repr(first)
        engine.search("Smith XML", ranker=first)
        assert scores_are_its_own(engine.search("Smith XML", ranker=first), first)
        assert engine.result_cache.stats.hits == 0
        assert engine.result_cache.stats.stores == 0
        address = id(first)
        del first
        # Freed memory is handed out again: look for an instance at the
        # first one's address, whose default repr equals the first's.
        later = [Signed(-1.0) for __ in range(64)]
        second = next((ranker for ranker in later if id(ranker) == address),
                      later[0])
        assert scores_are_its_own(engine.search("Smith XML", ranker=second), second)
        assert engine.result_cache.stats.hits == 0

    def test_hit_replays_identical_results_and_stats(self, engine):
        cold = engine.search("Smith XML", top_k=3)
        cold_stats = engine.last_stats
        warm = engine.search("Smith XML", top_k=3)
        assert [(r.render(), r.score, r.rank) for r in warm] == [
            (r.render(), r.score, r.rank) for r in cold
        ]
        assert engine.last_stats == cold_stats
        assert engine.last_stats is not cold_stats

    def test_mutation_then_search_reflects_change(self, engine):
        before = engine.search("Nora")
        assert before == []
        engine.apply([Insert("DEPENDENT", {"ID": "t9", "ESSN": "e1",
                                           "DEPENDENT_NAME": "Nora"})])
        after = engine.search("Nora")
        assert len(after) == 1
        assert "t9" in after[0].render()

    def test_delete_invalidates_and_disappears(self, engine):
        engine.search("Alice")  # t1's dependent name in the running example
        engine.apply([Delete(tid("DEPENDENT", "t1"))])
        fresh = KeywordSearchEngine(engine.database)
        assert [r.render() for r in engine.search("Alice")] == [
            r.render() for r in fresh.search("Alice")
        ]


#: Keywords planted into three tuples each:
#: ``(keyword, relation, attribute, plant seed)``.
BOUNDED_TAINT_PLANTS = (
    ("qk1", "DEPARTMENT", "D_DESCRIPTION", 556216509),
    ("qk2", "PROJECT", "P_DESCRIPTION", 624397381),
    ("qk3", "PROJECT", "P_DESCRIPTION", 398839630),
    ("qk4", "EMPLOYEE", "L_NAME", 495120841),
    ("qk5", "EMPLOYEE", "L_NAME", 316023504),
    ("qk6", "DEPENDENT", "DEPENDENT_NAME", 483533712),
    ("qk7", "DEPENDENT", "DEPENDENT_NAME", 402382974),
    ("qk8", "DEPARTMENT", "D_DESCRIPTION", 279630350),
    ("qk9", "DEPARTMENT", "D_DESCRIPTION", 152099537),
    ("qk10", "PROJECT", "P_DESCRIPTION", 459362915),
    ("qk11", "PROJECT", "P_DESCRIPTION", 632770568),
    ("qk12", "EMPLOYEE", "L_NAME", 64368630),
    ("qk13", "EMPLOYEE", "L_NAME", 926811701),
    ("qk14", "DEPENDENT", "DEPENDENT_NAME", 271220032),
    ("qk15", "DEPENDENT", "DEPENDENT_NAME", 30993317),
    ("qk16", "DEPARTMENT", "D_DESCRIPTION", 592355132),
    ("qk17", "DEPARTMENT", "D_DESCRIPTION", 315058021),
    ("qk18", "PROJECT", "P_DESCRIPTION", 182430319),
    ("qk19", "PROJECT", "P_DESCRIPTION", 563607820),
    ("qk20", "EMPLOYEE", "L_NAME", 968656637),
    ("qk21", "EMPLOYEE", "L_NAME", 937946014),
    ("qk22", "DEPENDENT", "DEPENDENT_NAME", 299589319),
    ("qk23", "DEPENDENT", "DEPENDENT_NAME", 551276186),
    ("qk24", "DEPARTMENT", "D_DESCRIPTION", 763939707),
)


def _dependent(key, essn, name):
    return Insert("DEPENDENT", {"ID": key, "ESSN": essn, "DEPENDENT_NAME": name})


#: Two-mutation batches: dependents inserted (some named by a planted
#: keyword), department descriptions rewritten, inserted dependents deleted.
BOUNDED_TAINT_BATCHES = (
    (_dependent("lw1", "e18", "Retrieval."), Delete(tid("DEPENDENT", "lw1"))),
    (_dependent("lw2", "e85", "Retrieval."), _dependent("lw3", "e58", "qk24")),
    (_dependent("lw4", "e3", "Programming."),
     Update(tid("DEPARTMENT", "d4"),
            {"D_DESCRIPTION": "Documents modeling of ranking modeling are."})),
    (_dependent("lw5", "e8", "Graphs."), Delete(tid("DEPENDENT", "lw3"))),
    (_dependent("lw6", "e4", "Documents."),
     _dependent("lw7", "e84", "Relational.")),
    (_dependent("lw8", "e25", "Integration."), _dependent("lw9", "e6", "Query.")),
    (_dependent("lw10", "e83", "Query."),
     Update(tid("DEPARTMENT", "d9"), {"D_DESCRIPTION":
            "Modeling ranking toward programming semantics topics."})),
    (_dependent("lw11", "e77", "qk1"), _dependent("lw12", "e37", "Documents.")),
)


def test_bounded_taint_on_one_component():
    """Taint is bounded by the answer-reach ball, not the component.

    On a one-component graph, with every workload query cached before
    each structural batch, a batch invalidates fewer entries than are
    live (component-scale taint would drop them all), and every entry
    that survives answers like a fresh engine."""
    database = generate_company_like(SyntheticConfig(
        departments=12, projects_per_department=3, employees_per_department=8,
        works_on_per_employee=2, seed=17,
    ))
    for keyword, relation, attribute, seed in BOUNDED_TAINT_PLANTS:
        plant(database, keyword, relation, attribute, 3, seed=seed)
    texts = [f"qk{n} qk{n + 1}" for n in range(1, 24, 2)]
    batches = BOUNDED_TAINT_BATCHES
    limits = SearchLimits(max_rdb_length=4)

    def answers(engine, text):
        return [(r.render(), r.score, r.rank)
                for r in engine.search(text, limits=limits)]

    engine = KeywordSearchEngine(database)
    frozen = engine.traversal_cache.frozen()
    row = frozen.distances(0)
    assert all(row[node] != _UNREACHABLE for node in range(frozen.capacity)
               if frozen._alive[node])
    stats = engine.result_cache.stats
    structural = live = invalidated = survivors = stale = 0
    for batch in batches:
        for text in texts:  # every entry live again
            engine.search(text, limits=limits)
        entries, before = len(engine.result_cache), stats.invalidated
        if not engine.apply(batch).structural_tuples():
            continue
        structural += 1
        live += entries
        invalidated += stats.invalidated - before
        fresh = KeywordSearchEngine(database, result_cache_entries=0)
        for text in texts:
            hits = stats.hits
            answer = answers(engine, text)
            if stats.hits > hits:  # served by an entry that survived
                survivors += 1
                stale += answer != answers(fresh, text)
    assert structural >= 1
    assert invalidated < live, (invalidated, live)
    assert survivors and not stale, (survivors, stale)
