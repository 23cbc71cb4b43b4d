"""The deterministic ``bib`` corpus and everything generated from it.

One seed fixes the database rows, the keyword vocabulary, the query
texts, the Zipf read stream and the mutation batches.  Relation sizes,
per-tuple degree caps and the document frequency of every query keyword
are the same for every seed, so two seeds ask the same *mix* of work and
differ only in which tuples match and in what order (README, "Decided").

Row generation is plain Python; only :meth:`Corpus.database` and the
mutation batches import ``repro``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import accumulate

#: Relation sizes per scale.  ``full`` is the measured default
#: (~2*10^4 tuples); ``tiny`` is the smoke test; ``large`` is ROADMAP's
#: 10^5 and is never run by the driver.
SCALES = {
    "tiny": dict(authors=300, venues=20, papers=400, writes=800, cites=500),
    "full": dict(authors=3000, venues=200, papers=4000, writes=8000, cites=5000),
    "large": dict(
        authors=15000, venues=1000, papers=20000, writes=40000, cites=25000
    ),
}

#: Degree caps: an uncapped hub made the first probe's p95 seventy times
#: its p50.
VENUE_CAP = 40
AUTHOR_CAP = 30
CITED_CAP = 30
CITING_CAP = 10
HEAD_WORD_CAP = 30

TITLE_WORDS, NAME_WORDS, TOPIC_WORDS = 6, 2, 3

#: (df of first keyword, df of second keyword) of consecutive texts.
DF_CYCLE = ((2, 3), (3, 4), (2, 6), (4, 4), (3, 5), (5, 2), (6, 3), (4, 5))
#: Keywords of each df one cycle consumes.
DF_USE = {2: 3, 3: 4, 4: 4, 5: 3, 6: 2}

MUTATIONS_PER_APPLY = 4
_CONSONANTS = "bcdfghjklmnpqrstvwxyz"
_VOWELS = "aeiou"
_WORD_SPACE = (len(_CONSONANTS) * len(_VOWELS)) ** 3


def _word(index: int, seed: int) -> str:
    """The ``index``-th six-letter word of a seed; distinct per index."""
    code = (index * 611953 + seed * 7919) % _WORD_SPACE
    letters = []
    for __ in range(3):
        code, consonant = divmod(code, len(_CONSONANTS))
        code, vowel = divmod(code, len(_VOWELS))
        letters.append(_CONSONANTS[consonant] + _VOWELS[vowel])
    return "".join(letters)


def _zipf_weights(count: int) -> list[float]:
    return [1.0 / (rank + 1) for rank in range(count)]


def _capped_draws(rng, population: int, draws: int, cap: int) -> list[int]:
    """``draws`` Zipf-weighted picks from ``range(population)``, each
    value at most ``cap`` times."""
    cumulative = list(accumulate(_zipf_weights(population)))
    order = list(range(population))
    rng.shuffle(order)  # rank -> member, so hubs move with the seed
    used = [0] * population
    picks = []
    while len(picks) < draws:
        member = order[
            rng.choices(range(population), cum_weights=cumulative)[0]
        ]
        if used[member] < cap:
            used[member] += 1
            picks.append(member)
    return picks


def zipf_counts(ranks: int, total: int) -> list[int]:
    """Exactly ``total`` reads split over ``ranks`` by Zipf(1.0).

    Largest-remainder rounding: a seed changes which text holds a rank,
    never how often a rank is read.
    """
    weights = _zipf_weights(ranks)
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(
        range(ranks), key=lambda rank: (counts[rank] - exact[rank], rank)
    )
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return counts


@dataclass
class Corpus:
    scale: str
    seed: int
    authors: list  # (id, name)
    venues: list  # (id, topic)
    papers: list  # (id, title, venue id)
    writes: list  # (author id, paper id)
    cites: list  # (citing id, cited id)
    #: df -> query keywords with exactly that document frequency.
    keywords: dict
    head_words: list

    def tuple_count(self) -> int:
        return sum(
            len(rows)
            for rows in (
                self.authors, self.venues, self.papers, self.writes, self.cites
            )
        )

    def database(self):
        """A fresh ``repro`` database holding the generated rows."""
        from repro.relational.database import Database

        database = Database(bib_schema(), enforce_foreign_keys=False)
        for key, name in self.authors:
            database.insert("AUTHOR", {"ID": key, "NAME": name})
        for key, topic in self.venues:
            database.insert("VENUE", {"ID": key, "TOPIC": topic})
        for key, title, venue in self.papers:
            database.insert(
                "PAPER", {"ID": key, "TITLE": title, "V_ID": venue}
            )
        for author, paper in self.writes:
            database.insert("WRITES", {"A_ID": author, "P_ID": paper})
        for citing, cited in self.cites:
            database.insert("CITES", {"CITING": citing, "CITED": cited})
        database.check_integrity()
        database.enforce_foreign_keys = True
        return database

    # ------------------------------------------------------------------
    # query texts
    # ------------------------------------------------------------------
    def texts(self, count: int) -> list[str]:
        """``count`` distinct two-keyword texts following ``DF_CYCLE``.

        Keywords of one df are used round-robin, so one is not reused
        within ``vocabulary / 8`` texts.  A shorter list is a prefix of a
        longer one; callers slice one list into warm-up, timed and probe
        texts so the three never coincide.
        """
        rng = random.Random(self.seed * 1_000_003 + 5)
        pools = {df: list(words) for df, words in self.keywords.items()}
        for words in pools.values():
            rng.shuffle(words)
        cursor = {df: 0 for df in pools}

        def take(df: int) -> str:
            words = pools[df]
            position = cursor[df]
            cursor[df] = position + 1
            if position and position % len(words) == 0:
                # New pass over the pool: re-deal so pairs differ.
                rng.shuffle(words)
            return words[position % len(words)]

        seen: set[str] = set()
        texts = []
        while len(texts) < count:
            first_df, second_df = DF_CYCLE[len(texts) % len(DF_CYCLE)]
            first, second = take(first_df), take(second_df)
            text = f"{first} {second}"
            if first == second or text in seen:
                continue
            seen.add(text)
            texts.append(text)
        return texts

    # ------------------------------------------------------------------
    # mutation batches
    # ------------------------------------------------------------------
    def mutation_batches(self, count: int) -> list[list]:
        """``count`` FK-valid batches of four mutations each.

        Cycle: publish, retitle, publish, retract.  Publishing adds a
        paper with two authors and one citation of an original paper;
        retracting removes a paper published three cycles earlier, rows
        referencing it first; retitling rewrites the head words of four
        original papers and keeps their query keywords, so a query
        keyword's document frequency never moves.  Original papers are
        never deleted and published papers are never cited, so no batch
        can fail.
        """
        from repro.live.changes import Delete, Insert, Update
        from repro.relational.database import TupleId

        rng = random.Random(self.seed * 1_000_003 + 99)
        query_words = {
            word for words in self.keywords.values() for word in words
        }
        titles = {key: title for key, title, __ in self.papers}
        original = [key for key, __, __ in self.papers]
        author_ids = [key for key, __ in self.authors]
        venue_ids = [key for key, __ in self.venues]
        published: list[tuple] = []
        next_paper = len(self.papers)
        batches = []
        for number in range(count):
            kind = ("publish", "retitle", "publish", "retract")[number % 4]
            if kind == "retract" and len(published) < 4:
                kind = "retitle"
            if kind == "publish":
                next_paper += 1
                paper = f"p{next_paper}"
                first, second = rng.sample(author_ids, 2)
                cited = rng.choice(original)
                title = " ".join(rng.sample(self.head_words, TITLE_WORDS))
                published.append((paper, first, second, cited))
                batch = [
                    Insert(
                        "PAPER",
                        {
                            "ID": paper,
                            "TITLE": title,
                            "V_ID": rng.choice(venue_ids),
                        },
                    ),
                    Insert("WRITES", {"A_ID": first, "P_ID": paper}),
                    Insert("WRITES", {"A_ID": second, "P_ID": paper}),
                    Insert("CITES", {"CITING": paper, "CITED": cited}),
                ]
            elif kind == "retract":
                paper, first, second, cited = published.pop(0)
                batch = [
                    Delete(TupleId("CITES", (paper, cited))),
                    Delete(TupleId("WRITES", (first, paper))),
                    Delete(TupleId("WRITES", (second, paper))),
                    Delete(TupleId("PAPER", (paper,))),
                ]
            else:
                batch = []
                for paper in rng.sample(original, MUTATIONS_PER_APPLY):
                    words = [
                        word
                        if word in query_words
                        else rng.choice(self.head_words)
                        for word in titles[paper].split()
                    ]
                    titles[paper] = " ".join(words)
                    batch.append(
                        Update(
                            TupleId("PAPER", (paper,)),
                            {"TITLE": titles[paper]},
                        )
                    )
            batches.append(batch)
        return batches


def bib_schema():
    from repro.relational.schema import (
        AttributeDef,
        DatabaseSchema,
        ForeignKey,
        Relation,
    )

    schema = DatabaseSchema(name="bib")
    schema.add_relation(
        Relation(
            "AUTHOR",
            [AttributeDef("ID"), AttributeDef("NAME", data_type="text")],
            primary_key=["ID"],
        )
    )
    schema.add_relation(
        Relation(
            "VENUE",
            [AttributeDef("ID"), AttributeDef("TOPIC", data_type="text")],
            primary_key=["ID"],
        )
    )
    schema.add_relation(
        Relation(
            "PAPER",
            [
                AttributeDef("ID"),
                AttributeDef("TITLE", data_type="text"),
                AttributeDef("V_ID"),
            ],
            primary_key=["ID"],
        )
    )
    schema.add_relation(
        Relation(
            "WRITES",
            [
                AttributeDef("A_ID", nullable=False),
                AttributeDef("P_ID", nullable=False),
            ],
            primary_key=["A_ID", "P_ID"],
            is_middle=True,
            implements_relationship="WRITES",
        )
    )
    schema.add_relation(
        Relation(
            "CITES",
            [
                AttributeDef("CITING", nullable=False),
                AttributeDef("CITED", nullable=False),
            ],
            primary_key=["CITING", "CITED"],
            is_middle=True,
            implements_relationship="CITES",
        )
    )
    for name, source, column, target in (
        ("fk_paper_venue", "PAPER", "V_ID", "VENUE"),
        ("fk_writes_author", "WRITES", "A_ID", "AUTHOR"),
        ("fk_writes_paper", "WRITES", "P_ID", "PAPER"),
        ("fk_cites_citing", "CITES", "CITING", "PAPER"),
        ("fk_cites_cited", "CITES", "CITED", "PAPER"),
    ):
        schema.add_foreign_key(
            ForeignKey(name, source, (column,), target, ("ID",))
        )
    schema.validate()
    return schema


def generate(scale: str, seed: int) -> Corpus:
    """The ``bib`` rows and vocabulary of one ``(scale, seed)``."""
    sizes = SCALES[scale]
    rng = random.Random(seed * 1_000_003 + 1)
    author_ids = [f"a{n + 1}" for n in range(sizes["authors"])]
    venue_ids = [f"v{n + 1}" for n in range(sizes["venues"])]
    paper_ids = [f"p{n + 1}" for n in range(sizes["papers"])]

    paper_venue = _capped_draws(
        rng, sizes["venues"], sizes["papers"], VENUE_CAP
    )

    # Every author has a paper and every paper an author, so the graph
    # is one component; the remaining rows follow capped Zipf
    # productivity.
    writes: dict[tuple[int, int], None] = {}
    productivity = [1] * sizes["authors"]
    for author in range(sizes["authors"]):
        writes[(author, rng.randrange(sizes["papers"]))] = None
    authored = {paper for __, paper in writes}
    for paper in range(sizes["papers"]):
        if paper not in authored:
            author = rng.randrange(sizes["authors"])
            writes[(author, paper)] = None
            productivity[author] += 1
    while len(writes) < sizes["writes"]:
        extra = _capped_draws(
            rng, sizes["authors"], sizes["writes"] - len(writes), AUTHOR_CAP
        )
        for author in extra:
            paper = rng.randrange(sizes["papers"])
            if (
                productivity[author] < AUTHOR_CAP
                and (author, paper) not in writes
            ):
                writes[(author, paper)] = None
                productivity[author] += 1

    cites: dict[tuple[int, int], None] = {}
    out_degree = [0] * sizes["papers"]
    while len(cites) < sizes["cites"]:
        cited_draws = _capped_draws(
            rng, sizes["papers"], sizes["cites"] - len(cites), CITED_CAP
        )
        in_degree = [0] * sizes["papers"]
        for __, cited in cites:
            in_degree[cited] += 1
        for cited in cited_draws:
            citing = rng.randrange(sizes["papers"])
            if (
                citing != cited
                and out_degree[citing] < CITING_CAP
                and in_degree[cited] < CITED_CAP
                and (citing, cited) not in cites
                and (cited, citing) not in cites
            ):
                cites[(citing, cited)] = None
                out_degree[citing] += 1
                in_degree[cited] += 1

    # Text fields, dealt word by word so every document frequency is
    # exact: query keywords first, then capped-Zipf head words, then
    # singletons for whatever positions are left.
    fields = (
        [TITLE_WORDS] * sizes["papers"]
        + [NAME_WORDS] * sizes["authors"]
        + [TOPIC_WORDS] * sizes["venues"]
    )
    words_of: list[list[str]] = [[] for __ in fields]
    positions = [
        field for field, length in enumerate(fields) for __ in range(length)
    ]
    rng.shuffle(positions)
    word_index = 0

    def fresh_word() -> str:
        nonlocal word_index
        word_index += 1
        return _word(word_index, seed)

    def deal(word: str, frequency: int) -> int:
        """Put ``word`` into ``frequency`` distinct fields; returns how
        many it placed (fewer only when the positions run out)."""
        placed, skipped = [], []
        while positions and len(placed) < frequency:
            field = positions.pop()
            (skipped if field in placed else placed).append(field)
        positions[:0] = skipped
        for field in placed:
            words_of[field].append(word)
        return len(placed)

    cycles = max(1, sizes["papers"] // 40)
    keywords: dict[int, list[str]] = {}
    for frequency, per_cycle in DF_USE.items():
        keywords[frequency] = []
        for __ in range(per_cycle * cycles):
            word = fresh_word()
            if deal(word, frequency) != frequency:
                raise ValueError("scale too small for the query vocabulary")
            keywords[frequency].append(word)
    head_words = []
    rank = 0
    while positions:
        rank += 1
        frequency = max(8, min(HEAD_WORD_CAP, len(fields) // (4 * rank)))
        word = fresh_word()
        if deal(word, frequency) >= 8:
            head_words.append(word)

    def text(field: int) -> str:
        return " ".join(words_of[field])

    papers = [
        (key, text(number), venue_ids[paper_venue[number]])
        for number, key in enumerate(paper_ids)
    ]
    authors = [
        (key, text(sizes["papers"] + number))
        for number, key in enumerate(author_ids)
    ]
    venues = [
        (key, text(sizes["papers"] + sizes["authors"] + number))
        for number, key in enumerate(venue_ids)
    ]
    return Corpus(
        scale=scale,
        seed=seed,
        authors=authors,
        venues=venues,
        papers=papers,
        writes=[(author_ids[a], paper_ids[p]) for a, p in writes],
        cites=[(paper_ids[a], paper_ids[b]) for a, b in cites],
        keywords=keywords,
        head_words=head_words,
    )


def digest(items) -> str:
    """Short stable digest of an iterable of reprs (ops, answers)."""
    state = hashlib.sha256()
    for item in items:
        state.update(repr(item).encode("utf-8"))
        state.update(b"\n")
    return state.hexdigest()[:16]
