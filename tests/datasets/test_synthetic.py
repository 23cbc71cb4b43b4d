"""Unit tests for the synthetic generator and keyword planting."""

import pytest

from repro.datasets.synthetic import SyntheticConfig, generate_company_like, plant
from repro.errors import QueryError
from repro.relational.index import InvertedIndex


class TestGeneration:
    def test_counts_match_config(self, small_synthetic):
        assert small_synthetic.count("DEPARTMENT") == 3
        assert small_synthetic.count("PROJECT") == 6
        assert small_synthetic.count("EMPLOYEE") == 12
        assert small_synthetic.count("WORKS_FOR") == 24

    def test_integrity(self, small_synthetic):
        small_synthetic.check_integrity()

    def test_deterministic_for_same_seed(self):
        config = SyntheticConfig(departments=2, employees_per_department=3, seed=5)
        first = generate_company_like(config)
        second = generate_company_like(config)
        first_names = [t["L_NAME"] for t in first.tuples("EMPLOYEE")]
        second_names = [t["L_NAME"] for t in second.tuples("EMPLOYEE")]
        assert first_names == second_names

    def test_different_seeds_differ(self):
        base = SyntheticConfig(departments=2, employees_per_department=5)
        first = generate_company_like(base)
        second = generate_company_like(
            SyntheticConfig(departments=2, employees_per_department=5, seed=99)
        )
        first_names = [t["L_NAME"] for t in first.tuples("EMPLOYEE")]
        second_names = [t["L_NAME"] for t in second.tuples("EMPLOYEE")]
        assert first_names != second_names

    def test_every_employee_works_on_projects(self, small_synthetic):
        essns = {t["ESSN"] for t in small_synthetic.tuples("WORKS_FOR")}
        assert essns == {t["SSN"] for t in small_synthetic.tuples("EMPLOYEE")}

    def test_schema_is_company_shaped(self, small_synthetic):
        assert small_synthetic.schema.relation("WORKS_FOR").is_middle


class TestPlanting:
    def test_plants_exact_count(self):
        database = generate_company_like(SyntheticConfig(departments=3))
        labels = plant(database, "needle", "EMPLOYEE", "L_NAME", count=4)
        assert len(labels) == 4
        index = InvertedIndex(database)
        assert index.document_frequency("needle") == 4

    def test_plant_too_many_rejected(self):
        database = generate_company_like(SyntheticConfig(departments=1))
        with pytest.raises(QueryError):
            plant(database, "needle", "DEPARTMENT", "D_NAME", count=99)

    def test_plant_into_null_attribute(self):
        database = generate_company_like(SyntheticConfig(departments=2))
        # HOURS is an int column but planting rewrites as text; use a str
        # column that may be anything - D_NAME is never NULL here, so make
        # a NULL by inserting a fresh department.
        database.insert("DEPARTMENT", {"ID": "dx"})
        labels = plant(database, "needle", "DEPARTMENT", "D_NAME",
                       count=database.count("DEPARTMENT"), seed=1)
        index = InvertedIndex(database)
        assert index.document_frequency("needle") == len(labels)

    def test_plant_deterministic(self):
        first = generate_company_like(SyntheticConfig(departments=3))
        second = generate_company_like(SyntheticConfig(departments=3))
        assert plant(first, "kw", "EMPLOYEE", "L_NAME", 3, seed=7) == \
            plant(second, "kw", "EMPLOYEE", "L_NAME", 3, seed=7)
