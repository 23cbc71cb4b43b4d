"""Unit tests for schema-level closeness analysis."""

import pytest

from repro.core.schema_analysis import SchemaAnalyzer, analyze_relational_schema

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
    """The shortest conceptual distance between two entity types, read
    off :meth:`SchemaAnalyzer.paths_between` as ``repro analyze`` lists
    it: over close paths only, or over every path."""

    @staticmethod
    def closest(analyzer, source, target):
        lengths = [s.er_length for s in analyzer.close_paths(source, target)]
        return min(lengths, default=None)

    @staticmethod
    def shortest(analyzer, source, target):
        lengths = [s.er_length for s in analyzer.paths_between(source, target)]
        return min(lengths, default=None)

    def test_closest_distance_direct(self, analyzer):
        assert self.closest(analyzer, "DEPARTMENT", "EMPLOYEE") == 1

    def test_closest_distance_transitive(self, analyzer):
        assert self.closest(analyzer, "DEPARTMENT", "DEPENDENT") == 2

    def test_closest_distance_none_when_only_loose(self):
        # Satellite-to-satellite in a 1:N star is always through the hub
        # joint: loose.
        analyzer = SchemaAnalyzer(star_schema(3, "1:N"), max_length=2)
        assert self.closest(analyzer, "S0", "S1") is None
        assert self.shortest(analyzer, "S0", "S1") == 2

    def test_distance_none_when_no_path(self):
        analyzer = SchemaAnalyzer(chain_schema(["1:N"] * 5), max_length=2)
        assert self.shortest(analyzer, "E0", "E5") is None


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


class TestRelationalEntryPoint:
    def test_analyze_relational_schema(self, db_schema):
        analyzer = analyze_relational_schema(db_schema, max_length=2)
        # Middle relation collapses: EMPLOYEE--PROJECT is one conceptual
        # step (the N:M relationship), so distance 1.
        paths = analyzer.paths_between("EMPLOYEE", "PROJECT")
        assert min(summary.er_length for summary in paths) == 1

    def test_conceptual_distances_match_instance_er_lengths(self, db_schema):
        analyzer = analyze_relational_schema(db_schema, max_length=3)
        # DEPARTMENT to DEPENDENT: close at 2 (dept-emp-dependent).
        paths = analyzer.paths_between("DEPARTMENT", "DEPENDENT")
        assert min(s.er_length for s in paths if s.verdict.is_close) == 2
