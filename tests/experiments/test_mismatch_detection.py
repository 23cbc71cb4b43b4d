"""Every reproduction check must fire when the library computes something
else.

``repro reproduce`` is only evidence if its comparisons with the
published values can fail.  Each case below breaks one library component
the check reads — a classifier, a ranker, a renderer, the printed
instance — and expects :class:`ReproductionMismatch` with the message
of exactly that check.
"""

from types import SimpleNamespace

import pytest

from repro.core.associations import AssociationKind
from repro.core.connections import Connection
from repro.core.engine import KeywordSearchEngine
from repro.core.ranking import ErLengthRanker, RdbLengthRanker
from repro.datasets.company import TABLE1_ENTITY_SEQUENCES, build_company_database
from repro.experiments import claims, figures, tables
from repro.experiments.report import ReproductionMismatch
from repro.relational.database import TupleId


def company_with(relation, key, values):
    """The printed instance with one tuple's values updated."""
    database = build_company_database()
    database.update(TupleId(relation, (key,)), values)
    return database


def swap_first_two_table1_rows(monkeypatch):
    sequences = list(TABLE1_ENTITY_SEQUENCES)
    sequences[0], sequences[1] = sequences[1], sequences[0]
    monkeypatch.setattr(tables, "TABLE1_ENTITY_SEQUENCES", sequences)
    return tables.table1


def render_without_cardinalities(monkeypatch):
    monkeypatch.setattr(tables, "_lower_entities", lambda path: " ".join(
        [path.steps[0].source.lower()]
        + [step.target.lower() for step in path.steps]
    ))
    return tables.table1


def classify_everything_close(monkeypatch):
    monkeypatch.setattr(tables, "classify_er_path", lambda path: SimpleNamespace(
        kind=AssociationKind.IMMEDIATE, is_close=True, loose_joint_positions=(),
    ))
    return tables.table1


def drop_xml_from_d2(monkeypatch):
    database = company_with("DEPARTMENT", "d2", {"D_DESCRIPTION": "Teaching"})
    return lambda: tables.table2(KeywordSearchEngine(database))


def er_length_counts_middle_relations(monkeypatch):
    monkeypatch.setattr(
        Connection, "er_length", property(lambda self: self.rdb_length)
    )
    return tables.table2


def render_cardinalities_away(monkeypatch):
    monkeypatch.setattr(
        Connection, "render_with_cardinalities", lambda self: self.render()
    )
    return tables.table3


def no_set_is_minimal(monkeypatch):
    monkeypatch.setattr(claims, "is_mtjnt", lambda *args: False)
    return claims.mtjnt_loss


def one_mtjnt_too_many(monkeypatch):
    real = claims.find_mtjnts

    def find_mtjnts(*args, **kwargs):
        found = list(real(*args, **kwargs))
        return found + [found[0] | found[1]]

    monkeypatch.setattr(claims, "find_mtjnts", find_mtjnts)
    return claims.mtjnt_loss


def rdb_ranker_reads_er_length(monkeypatch):
    monkeypatch.setattr(claims, "RdbLengthRanker", ErLengthRanker)
    return claims.ranking_comparison


def closeness_ranker_counts_joins(monkeypatch):
    monkeypatch.setattr(claims, "ClosenessRanker", RdbLengthRanker)
    return claims.ranking_comparison


def map_without_column_overrides(monkeypatch):
    monkeypatch.setattr(figures, "_FIGURE2_COLUMN_NAMES", {})
    return figures.figure1


def figure2_over(build):
    """A fault that has Figure 2 read the instance ``build()`` returns."""
    def fault(monkeypatch):
        monkeypatch.setattr(figures, "build_company_database", build)
        return figures.figure2
    return fault


def one_dependent_too_many():
    database = build_company_database()
    database.insert("DEPENDENT", {"ID": "t9", "ESSN": "e4", "DEPENDENT_NAME": "Ada"})
    return database


#: ``(id, fault, message of the check that must fire)``; a fault takes
#: ``monkeypatch`` and returns the experiment to run.
CASES = [
    ("table1-entities", swap_first_two_table1_rows,
     "Table 1 entity sequence deviates"),
    ("table1-cardinalities", render_without_cardinalities,
     "Table 1 cardinalities deviate"),
    ("table1-closeness", classify_everything_close, "Table 1 closeness deviates"),
    ("table2-searched-set", drop_xml_from_d2,
     "searched connections deviate from Table 2 rows 1-7"),
    ("table2-lengths", er_length_counts_middle_relations, "Table 2 row deviates"),
    ("table3-cardinalities", render_cardinalities_away, "Table 3 row deviates"),
    ("c1-survivors", no_set_is_minimal, "MTJNT survivors deviate"),
    ("c1-mtjnt-set", one_mtjnt_too_many,
     "MTJNT set deviates from connections 1, 2, 5"),
    ("c2-rdb-order", rdb_ranker_reads_er_length, "RDB-length ranking deviates"),
    ("c2-closeness-order", closeness_ranker_counts_joins,
     "closeness ranking deviates"),
    ("figure1-schema", map_without_column_overrides,
     "ER mapping does not reproduce Figure 2's schema"),
    ("figure2-counts", figure2_over(one_dependent_too_many),
     "Figure 2 tuple counts deviate"),
    ("figure2-smith",
     figure2_over(lambda: company_with("EMPLOYEE", "e2", {"L_NAME": "Brown"})),
     "'Smith' should match the two first employees"),
    ("figure2-xml", figure2_over(lambda: company_with(
        "PROJECT", "p2", {"P_NAME": "IR", "P_DESCRIPTION": "A notation."}
    )), "'XML' should match two departments and two projects"),
]


@pytest.mark.parametrize(
    "fault, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_check_fires_on_a_broken_component(monkeypatch, fault, message):
    experiment = fault(monkeypatch)
    with pytest.raises(ReproductionMismatch) as raised:
        experiment()
    assert str(raised.value).startswith(message)
