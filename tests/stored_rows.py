"""Helpers for tests that look at how a database holds its rows.

A relation keeps its rows as columns; a store maps a row's key to its
row number until a caller reads the row, which writes the row's
``Tuple`` over the int.  pytest puts ``tests/`` on ``sys.path``, so test
modules import this one as ``stored_rows``.
"""

import os
import sys


def built_rows(database):
    """``(relation, key)`` of every row a database has built into a
    ``Tuple``; a row still unread is an int in its store, and a restored
    relation not loaded yet has no store."""
    return {
        (name, key)
        for name, store in dict.items(database._tuples)
        for key, record in store.items()
        if record.__class__ is not int
    }


def contents(database):
    """Per relation, in store order: key, values and label of each row,
    read without building one."""
    state = {}
    for relation in database.schema.relations:
        keys, tids, columns = database.rows(relation.name)
        names = relation.attribute_names
        state[relation.name] = [
            (key, dict(zip(names, values)), database.label(tid))
            for key, tid, values in zip(
                keys, tids, zip(*[columns[name] for name in names])
            )
        ]
    return state


def bib_corpus(size="tiny", seed=7):
    """The end-to-end benchmark's bibliographic corpus."""
    sys.path.insert(0, os.path.join(
        os.path.dirname(__file__), os.pardir, "benchmarks", "e2e"
    ))
    try:
        import corpus
    finally:
        del sys.path[0]
    return corpus.generate(size, seed)
