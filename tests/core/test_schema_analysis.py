"""Unit tests for schema-level closeness analysis and query planning."""

import pytest

from repro.core.schema_analysis import SchemaAnalyzer, analyze_relational_schema
from repro.core.search import SearchLimits

from er_schemas import chain_schema, star_schema


@pytest.fixture
def analyzer(er_schema):
    return SchemaAnalyzer(er_schema, max_length=3)


class TestPathsBetween:
    def test_department_employee_paths(self, analyzer):
        summaries = analyzer.paths_between("DEPARTMENT", "EMPLOYEE")
        rendered = {str(s.path) for s in summaries}
        assert "DEPARTMENT 1:N EMPLOYEE" in rendered
        assert "DEPARTMENT 1:N PROJECT N:M EMPLOYEE" in rendered

    def test_verdicts_attached(self, analyzer):
        summaries = analyzer.paths_between("DEPARTMENT", "EMPLOYEE")
        by_path = {str(s.path): s.verdict.is_close for s in summaries}
        assert by_path["DEPARTMENT 1:N EMPLOYEE"] is True
        assert by_path["DEPARTMENT 1:N PROJECT N:M EMPLOYEE"] is False

    def test_cached(self, analyzer):
        assert analyzer.paths_between("DEPARTMENT", "EMPLOYEE") is \
            analyzer.paths_between("DEPARTMENT", "EMPLOYEE")

    def test_close_paths_filter(self, analyzer):
        close = analyzer.close_paths("DEPARTMENT", "DEPENDENT")
        assert len(close) == 1
        assert str(close[0].path) == "DEPARTMENT 1:N EMPLOYEE 1:N DEPENDENT"


class TestDistances:
    def test_closest_distance_direct(self, analyzer):
        assert analyzer.closest_distance("DEPARTMENT", "EMPLOYEE") == 1

    def test_closest_distance_transitive(self, analyzer):
        assert analyzer.closest_distance("DEPARTMENT", "DEPENDENT") == 2

    def test_closest_distance_none_when_only_loose(self):
        # Satellite-to-satellite in a 1:N star is always through the hub
        # joint: loose.
        analyzer = SchemaAnalyzer(star_schema(3, "1:N"), max_length=2)
        assert analyzer.closest_distance("S0", "S1") is None
        assert analyzer.any_distance("S0", "S1") == 2

    def test_distance_none_when_no_path(self):
        analyzer = SchemaAnalyzer(chain_schema(["1:N"] * 5), max_length=2)
        assert analyzer.any_distance("E0", "E5") is None


class TestClosenessMatrix:
    def test_company_matrix(self, analyzer):
        matrix = analyzer.closeness_matrix()
        assert matrix[("DEPARTMENT", "EMPLOYEE")] == "both"
        assert matrix[("DEPENDENT", "EMPLOYEE")] == "close"
        assert matrix[("DEPENDENT", "PROJECT")] == "loose"

    def test_star_matrix_satellites_loose(self):
        analyzer = SchemaAnalyzer(star_schema(2, "1:N"), max_length=2)
        matrix = analyzer.closeness_matrix()
        assert matrix[("S0", "S1")] == "loose"
        assert matrix[("HUB", "S0")] == "close"

    def test_disconnected_pair_is_none(self):
        analyzer = SchemaAnalyzer(chain_schema(["1:N"] * 4), max_length=1)
        assert analyzer.closeness_matrix()[("E0", "E4")] == "none"

    def test_report_mentions_all_pairs(self, analyzer):
        report = analyzer.report()
        assert "DEPARTMENT -- EMPLOYEE: both" in report
        assert "[loose] DEPARTMENT 1:N PROJECT N:M EMPLOYEE" in report


class TestSuggestLimits:
    def test_direct_pair_needs_small_bounds(self, analyzer):
        limits = analyzer.suggest_limits(["DEPARTMENT"], ["EMPLOYEE"])
        # Close distance 1 + slack 1 -> er bound 2 -> rdb bound 4.
        assert limits.max_rdb_length == 4

    def test_loose_only_pair_uses_any_distance(self):
        analyzer = SchemaAnalyzer(star_schema(3, "1:N"), max_length=3)
        limits = analyzer.suggest_limits(["S0"], ["S1"])
        assert limits.max_rdb_length == 6  # distance 2 + slack 1, x2

    def test_disconnected_returns_defaults(self):
        analyzer = SchemaAnalyzer(chain_schema(["1:N"] * 4), max_length=1)
        defaults = SearchLimits(max_rdb_length=7)
        limits = analyzer.suggest_limits(["E0"], ["E4"], defaults=defaults)
        assert limits is defaults

    def test_bounds_cover_paper_connections(self, analyzer, engine):
        """Planned limits must still find all seven searched connections."""
        from repro.core.connections import Connection
        from repro.core.matching import match_keywords
        from repro.core.search import find_connections

        matches = match_keywords(engine.index, ("XML", "Smith"))
        source_relations = {t.relation for t in matches[0].tuple_ids}
        target_relations = {t.relation for t in matches[1].tuple_ids}
        limits = analyzer.suggest_limits(source_relations, target_relations)
        answers = [
            a
            for a in find_connections(engine.data_graph, matches, limits)
            if isinstance(a, Connection)
        ]
        rendered = {a.render() for a in answers}
        for expected in (
            "d1(XML) – e1(Smith)",
            "p1(XML) – w_f1 – e1(Smith)",
            "d1(XML) – p1(XML) – w_f1 – e1(Smith)",
            "d2(XML) – p3 – w_f2 – e2(Smith)",
        ):
            assert expected in rendered


class TestRelationalEntryPoint:
    def test_analyze_relational_schema(self, db_schema):
        analyzer = analyze_relational_schema(db_schema, max_length=2)
        # Middle relation collapses: EMPLOYEE--PROJECT is one conceptual
        # step (the N:M relationship), so distance 1.
        assert analyzer.any_distance("EMPLOYEE", "PROJECT") == 1

    def test_conceptual_distances_match_instance_er_lengths(self, db_schema):
        analyzer = analyze_relational_schema(db_schema, max_length=3)
        # DEPARTMENT to DEPENDENT: close at 2 (dept-emp-dependent).
        assert analyzer.closest_distance("DEPARTMENT", "DEPENDENT") == 2
