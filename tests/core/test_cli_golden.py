"""Byte-level golden tests for the CLI's deterministic commands.

Each case runs one ``repro`` command over the paper's company example
and compares its exit code and its whole output with a file under
``cli_golden/``.  The outputs read no clock, no path and no hash order,
so CI's two ``PYTHONHASHSEED`` runs pin them too.  After a deliberate
change of output, rewrite the files with::

    PYTHONPATH=src python tests/core/test_cli_golden.py
"""

import io
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).with_name("cli_golden")

#: ``(file stem, argv, exit code)``.
CASES = [
    ("analyze", ("analyze",), 0),
    ("analyze-max-length-2", ("analyze", "--max-length", "2"), 0),
    ("mtjnt-smith-xml", ("mtjnt", "Smith XML"), 0),
    ("mtjnt-xml-alice", ("mtjnt", "XML Alice"), 0),
    ("search-closeness", ("search", "Smith XML"), 0),
    ("search-rdb", ("search", "Smith XML", "--ranker", "rdb"), 0),
    ("search-er", ("search", "Smith XML", "--ranker", "er"), 0),
    ("search-ambiguity", ("search", "Smith XML", "--ranker", "ambiguity"), 0),
    ("search-max-rdb-4", ("search", "Smith XML", "--max-rdb", "4"), 0),
    ("search-top-3", ("search", "Smith XML", "--top", "3"), 0),
    ("search-or", ("search", "Smith XML", "--semantics", "or"), 0),
    ("search-three-keywords", ("search", "Smith XML Alice"), 0),
    ("search-group", ("search", "Smith XML", "--group"), 0),
    ("search-explain", ("search", "Smith XML", "--explain"), 0),
    ("search-json", ("search", "Smith XML", "--json"), 0),
    ("search-no-answer", ("search", "Smith unicorn"), 1),
    ("plan", ("plan", "Smith XML"), 0),
    ("plan-top-2", ("plan", "Smith XML", "--top", "2"), 0),
    ("plan-or", ("plan", "Smith XML Alice", "--semantics", "or"), 0),
    ("stats", ("stats",), 0),
    ("stats-queries", ("stats", "Smith XML;XML"), 0),
]


def run(argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "stem, argv, expected_code", CASES, ids=[case[0] for case in CASES]
)
def test_output_matches_golden(stem, argv, expected_code):
    code, output = run(argv)
    assert code == expected_code
    golden = (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")
    assert output == golden


def test_every_golden_file_has_a_case():
    stems = {path.stem for path in GOLDEN.glob("*.txt")}
    assert stems == {case[0] for case in CASES}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv, __ in CASES:
        (GOLDEN / f"{stem}.txt").write_text(run(argv)[1], encoding="utf-8")
