"""Cross-module round trips: ER <-> relational <-> files <-> search."""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets.company import build_company_database, build_company_er_schema
from repro.er.mapping import map_er_to_relational
from repro.er.reverse import reverse_engineer
from repro.relational.io import database_from_dict, database_to_dict

from er_schemas import instantiate_er, random_schema


class TestSearchAfterSerialisation:
    def test_reloaded_database_searches_identically(self):
        original = build_company_database()
        reloaded = database_from_dict(database_to_dict(original))
        first = [
            r.answer.render()
            for r in KeywordSearchEngine(original).search("Smith XML")
        ]
        second = [
            r.answer.render()
            for r in KeywordSearchEngine(reloaded).search("Smith XML")
        ]
        assert first == second

    def test_json_file_round_trip_preserves_experiments(self, tmp_path):
        from repro.relational.io import dump_json, load_json
        from repro.experiments.tables import table2

        path = tmp_path / "company.json"
        dump_json(build_company_database(), path)
        engine = KeywordSearchEngine(load_json(path))
        rows = table2(engine)
        assert len(rows) == 9


class TestErRelationalRoundTrips:
    def test_company_er_to_relational_to_er(self):
        er = build_company_er_schema()
        mapped = map_er_to_relational(er)
        recovered = reverse_engineer(mapped.schema)
        assert len(recovered.er_schema.relationships) == len(er.relationships)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_er_round_trip_preserves_cardinality_multiset(self, seed):
        er = random_schema(entities=6, extra_relationships=2, seed=seed)
        mapped = map_er_to_relational(er)
        recovered = reverse_engineer(mapped.schema)
        original = sorted(str(r.cardinality) for r in er.relationships)
        regained = sorted(
            str(r.cardinality) for r in recovered.er_schema.relationships
        )
        assert original == regained

    @pytest.mark.parametrize("seed", [5, 6])
    def test_instantiated_random_schema_is_searchable(self, seed):
        er = random_schema(entities=5, extra_relationships=1, seed=seed)
        database, __ = instantiate_er(er, per_entity=4, seed=seed)
        engine = KeywordSearchEngine(database)
        results = engine.search("instance")
        assert results  # every generated description contains "instance"


class TestConsistencyAcrossViews:
    def test_data_graph_edge_count_matches_references(self):
        database = build_company_database()
        engine = KeywordSearchEngine(database)
        reference_count = 0
        for fk in database.schema.foreign_keys:
            for record in database.tuples(fk.source):
                if database.referenced_tuple(record, fk) is not None:
                    reference_count += 1
        assert engine.data_graph.number_of_edges() == reference_count

    def test_index_agrees_with_direct_scan(self):
        database = build_company_database()
        engine = KeywordSearchEngine(database)
        from repro.relational.index import tokenize

        scanned = set()
        for record in database.all_tuples():
            for value in record.values.values():
                if value is not None and "xml" in tokenize(str(value)):
                    scanned.add(record.tid)
                    break
        assert set(engine.index.matching_tuples("xml")) == scanned
