"""Benchmark inputs, all derived from ``--seed``: collections and write scripts.

The program under test only ever receives what this module generates —
collections through ``build_workspace``, statements through
``POST /mutate`` — so two runs with one seed measure the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: the query every read path runs (the legacy service benchmark's S1 query)
QUERY_SQL = "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R1.Doc SIMILAR_TO(3) R2.Doc"

#: the read interleaved with writes: same join, first 50 outer documents
WRITE_MIX_QUERY_SQL = QUERY_SQL + " AND R2.Id < 50"


@dataclass(frozen=True)
class Shape:
    """One pair of collection profiles (documents, terms/doc, vocabulary)."""

    name: str
    c1_documents: int
    c1_terms: int
    c2_documents: int
    c2_terms: int
    vocabulary: int
    #: rough seconds of one (mutate, query) pair plus its share of freezes
    #: and compactions at the seed commit on the 2-core sandbox; only used
    #: to turn ``--seconds`` into a fixed operation count
    pair_seconds: float


SHAPES = {
    # the legacy service benchmark's S1 collections
    "small": Shape("small", 120, 12, 90, 12, 400, pair_seconds=0.2),
    # the legacy kernel benchmark's K1 collections
    "medium": Shape("medium", 800, 30, 600, 25, 2000, pair_seconds=0.5),
}


def collection_seed(seed: int, shape: Shape, side: int) -> int:
    """A distinct generator seed per (run seed, shape, side)."""
    return seed * 8 + 2 * sorted(SHAPES).index(shape.name) + (side - 1)


def generate(shape: Shape, seed: int) -> tuple[Any, Any]:
    """The two collections of ``shape`` for this run seed."""
    from repro.workloads.synthetic import SyntheticSpec, generate_collection

    c1 = generate_collection(
        SyntheticSpec(
            f"{shape.name}-c1",
            n_documents=shape.c1_documents,
            avg_terms_per_doc=shape.c1_terms,
            vocabulary_size=shape.vocabulary,
            seed=collection_seed(seed, shape, 1),
        )
    )
    c2 = generate_collection(
        SyntheticSpec(
            f"{shape.name}-c2",
            n_documents=shape.c2_documents,
            avg_terms_per_doc=shape.c2_terms,
            vocabulary_size=shape.vocabulary,
            seed=collection_seed(seed, shape, 2),
        )
    )
    return c1, c2


def build(shape: Shape, seed: int, directory: Path) -> Path:
    """Generate ``shape``'s collections and persist them as a workspace."""
    from repro.workspace import build_workspace

    c1, c2 = generate(shape, seed)
    build_workspace(directory, c1, c2)
    return directory


# --- the write script ---------------------------------------------------------

#: script steps: ("mutate", sql) | ("query",) | ("freeze",) | ("compact",)
Step = tuple


@dataclass(frozen=True)
class WriteScript:
    """A fixed sequence of writes and reads, plus what it must leave behind."""

    #: one tuple of steps per epoch; an epoch ends with its compaction
    epochs: tuple[tuple[Step, ...], ...]
    #: live document counts after each mutate step, in step order
    counts_after: tuple[tuple[int, int], ...]

    def count(self, kind: str) -> int:
        return sum(1 for epoch in self.epochs for step in epoch if step[0] == kind)


#: every this-many-th mutation of a write script is a DELETE
DELETE_EVERY = 8


def insert_statement(shape: Shape, rng: random.Random, table: int) -> tuple[str, list[int]]:
    """A single-row INSERT into R``table`` and the term numbers it holds.

    The workspace has no vocabulary, so INSERT text is whitespace-separated
    term numbers below the shape's vocabulary size.
    """
    n_terms = shape.c1_terms if table == 1 else shape.c2_terms
    terms = sorted(rng.sample(range(shape.vocabulary), n_terms))
    text = " ".join(str(term) for term in terms)
    return f"INSERT INTO R{table} (Doc) VALUES ('{text}')", terms


def write_script(
    shape: Shape, seed: int, epochs: int, *, bursts: int, pairs: int
) -> WriteScript:
    """``epochs`` x (``bursts`` x (``pairs`` x (mutate, query), freeze), compact).

    The operation count is fixed by the arguments, never by the clock,
    so page counts repeat exactly; reads run over up to ``bursts + 1``
    segments.

    Mutations are single-row INSERTs alternating R1/R2; every
    ``DELETE_EVERY``-th statement is a ``DELETE ... WHERE Id = k``
    instead.
    """
    rng = random.Random(f"write-script:{seed}:{shape.name}")
    live = [shape.c1_documents, shape.c2_documents]
    script: list[tuple[Step, ...]] = []
    counts: list[tuple[int, int]] = []
    statement = 0
    for _ in range(epochs):
        steps: list[Step] = []
        for _ in range(bursts):
            for _ in range(pairs):
                statement += 1
                index = (statement - 1) % 2  # R1, R2, R1, ...
                table = f"R{index + 1}"
                if statement % DELETE_EVERY == 0:
                    victim = rng.randrange(live[index])
                    sql = f"DELETE FROM {table} WHERE Id = {victim}"
                    live[index] -= 1
                else:
                    sql, _ = insert_statement(shape, rng, index + 1)
                    live[index] += 1
                steps.append(("mutate", sql))
                counts.append((live[0], live[1]))
                steps.append(("query",))
            steps.append(("freeze",))
        steps.append(("compact",))
        script.append(tuple(steps))
    return WriteScript(epochs=tuple(script), counts_after=tuple(counts))
