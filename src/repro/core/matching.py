"""Keyword-to-tuple matching.

A keyword matches a tuple when it equals a whole attribute value or occurs
as a word inside a (text) attribute — both modes are served by the inverted
index.  :func:`match_keywords` resolves a whole query and keeps the posting
provenance so results can explain *why* a tuple matched (attribute name,
whole-value vs word match).

**Role-qualified keywords** (in the spirit of MeanKS, which the paper
cites): ``smith@EMPLOYEE`` restricts the keyword's matches to tuples of
one relation, letting the user disambiguate which role a keyword plays.
The qualifier is case-insensitive and applies per keyword.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import QueryError
from repro.relational.database import TupleId
from repro.relational.index import InvertedIndex, Posting

__all__ = ["KeywordMatch", "match_keywords", "parse_query", "split_role"]


@dataclass(frozen=True)
class KeywordMatch:
    """All matches of one keyword."""

    keyword: str
    tuple_ids: tuple[TupleId, ...]
    postings: tuple[Posting, ...]

    @property
    def is_empty(self) -> bool:
        return not self.tuple_ids

    def matched_attributes(self, tid: TupleId) -> tuple[str, ...]:
        """Attribute names in which the keyword occurred for one tuple."""
        return tuple(
            dict.fromkeys(p.attribute for p in self.postings if p.tid == tid)
        )

    def __len__(self) -> int:
        return len(self.tuple_ids)


def parse_query(query: str) -> tuple[str, ...]:
    """Split a query string into keywords.

    Whitespace separates keywords; duplicates collapse case-insensitively
    (first-seen spelling wins, order preserved) — matching is always case
    insensitive but results render keywords as the user typed them, like
    the paper's ``d1(XML) – e1(Smith)``.  An empty query raises
    :class:`~repro.errors.QueryError`.
    """
    seen: dict[str, str] = {}
    for token in query.split():
        seen.setdefault(token.lower(), token)
    if not seen:
        raise QueryError("empty keyword query", query=query)
    return tuple(seen.values())


def split_role(keyword: str) -> tuple[str, Optional[str]]:
    """Split ``term@RELATION`` into (term, relation); relation is optional.

    A trailing or leading ``@`` (no term or no relation) is a query error;
    at most one qualifier is allowed.
    """
    keyword = keyword.strip()
    if "@" not in keyword:
        return keyword, None
    term, __, relation = keyword.partition("@")
    if not term or not relation or "@" in relation:
        raise QueryError("malformed role-qualified keyword", keyword=keyword)
    return term, relation


def match_keywords(
    index: InvertedIndex, keywords: Sequence[str]
) -> tuple[KeywordMatch, ...]:
    """Resolve each keyword against the index, preserving query order.

    Role-qualified keywords (``term@RELATION``) match only tuples of the
    named relation; the :attr:`KeywordMatch.keyword` keeps the full
    qualified spelling so rendered answers show the user's intent.
    """
    if not keywords:
        raise QueryError("no keywords to match")
    matches = []
    for keyword in keywords:
        term, role = split_role(keyword)
        postings = index.postings(term)
        # Distinct tuples in first-posting order: ``matching_tuples``.
        tuple_ids = tuple(dict.fromkeys([posting.tid for posting in postings]))
        if role is not None:
            wanted = role.upper()
            tuple_ids = tuple(
                tid for tid in tuple_ids if tid.relation.upper() == wanted
            )
            postings = tuple(
                posting
                for posting in postings
                if posting.tid.relation.upper() == wanted
            )
        matches.append(
            KeywordMatch(
                keyword=keyword.strip(),
                tuple_ids=tuple_ids,
                postings=postings,
            )
        )
    return tuple(matches)
