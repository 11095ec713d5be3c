"""Execute SQL mutation statements against a workspace directory.

The read path binds a workspace into the catalog as relations ``R1``
(inner collection, role ``c1``) and ``R2`` (outer, role ``c2``) with an
ordinary ``Id`` attribute and a textual ``Doc`` attribute
(:func:`repro.workspace.catalog.workspace_catalog`).  This module is the
matching write path: an ``INSERT INTO R1 (Doc) VALUES ('...')`` or
``DELETE FROM R2 WHERE Id = 3`` statement becomes one atomic
:class:`~repro.workspace.mutate.MutationBatch` against the directory.

Text becomes term numbers the same way the build path's
:meth:`~repro.text.collection.DocumentCollection.from_texts` does: a
workspace with a vocabulary tokenizes the inserted prose
(:class:`~repro.text.tokenizer.Tokenizer`) and resolves each term
through the standard mapping — unknown terms are an error, because a
published standard admits no new words; a workspace *without* a
vocabulary was built from pre-vectorised term numbers, so its INSERT
text is whitespace-separated integers.

DELETE's WHERE conjunction reuses the planner's local-predicate
evaluator over the live ``Id`` rows, so selection semantics are
identical between reading and deleting.  Deleted ids are live global
document numbers — the numbering query results use *right now*; after
the batch commits, survivors renumber densely, exactly as a rebuilt
collection would.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import SqlSemanticError
from repro.sql.ast_nodes import (
    DeleteStatement,
    InsertStatement,
    Statement,
)
from repro.sql.catalog import Relation
from repro.sql.planner import _predicate_survivors
from repro.text.tokenizer import Tokenizer
from repro.text.vocabulary import Vocabulary
from repro.workspace.manifest import load_manifest
from repro.workspace.mutate import MutationBatch, MutationStats, apply_mutations
from repro.workspace.segments import HeldSnapshot

#: relation name (upper-cased) to workspace collection role
ROLE_BY_TABLE = {"R1": "c1", "R2": "c2"}

#: the one textual attribute workspace relations expose
TEXT_ATTRIBUTE = "Doc"


def _role_for(table_name: str, self_join: bool) -> str:
    role = ROLE_BY_TABLE.get(table_name.upper())
    if role is None:
        raise SqlSemanticError(
            f"unknown relation {table_name!r}; a workspace exposes "
            f"{sorted(ROLE_BY_TABLE)}"
        )
    if self_join and role == "c2":
        # A self-join workspace holds one collection; R2 is the same
        # stored data as R1, so mutations through either name land there.
        return "c1"
    return role


def _terms_for_text(
    text: str, vocabulary: Vocabulary | None, position: int
) -> list[int]:
    """One inserted document's term numbers, vocabulary-aware."""
    if vocabulary is not None:
        tokens = Tokenizer().tokenize(text)
        terms = []
        for token in tokens:
            if token not in vocabulary:
                raise SqlSemanticError(
                    f"VALUES tuple {position}: term {token!r} is not in the "
                    "workspace vocabulary; the standard mapping admits no "
                    "new words"
                )
            terms.append(vocabulary.number(token))
        if not terms:
            raise SqlSemanticError(
                f"VALUES tuple {position}: no indexable terms survive "
                f"tokenization of {text!r}"
            )
        return terms
    terms = []
    for token in text.split():
        try:
            terms.append(int(token))
        except ValueError:
            raise SqlSemanticError(
                f"VALUES tuple {position}: this workspace has no vocabulary, "
                f"so INSERT text must be whitespace-separated term numbers; "
                f"{token!r} is not an integer"
            ) from None
    if not terms:
        raise SqlSemanticError(
            f"VALUES tuple {position}: no term numbers in {text!r}"
        )
    return terms


def _insert_batch(
    statement: InsertStatement, directory: Path, manifest: dict
) -> tuple[MutationBatch, Vocabulary | None]:
    role = _role_for(statement.table.name, manifest["self_join"])
    if statement.column != TEXT_ATTRIBUTE:
        raise SqlSemanticError(
            f"INSERT targets column {statement.column!r}; the only "
            f"insertable column is the textual attribute {TEXT_ATTRIBUTE!r}"
        )
    vocabulary = None
    if manifest["vocabulary"] is not None:
        vocabulary = Vocabulary.load(directory / manifest["vocabulary"])
    term_lists = [
        _terms_for_text(text, vocabulary, position)
        for position, text in enumerate(statement.values)
    ]
    return MutationBatch.from_term_lists(inserts={role: term_lists}), vocabulary


def _delete_batch(statement: DeleteStatement, manifest: dict) -> MutationBatch:
    role = _role_for(statement.table.name, manifest["self_join"])
    n_live = manifest["collections"][role]["n_documents"]
    relation = Relation.from_rows(
        statement.table.name, [{"Id": i} for i in range(n_live)]
    )
    binding = statement.table.binding
    survivors = set(range(n_live))
    for predicate in statement.predicates:
        column = getattr(predicate, "column", None)
        if column is None:
            raise SqlSemanticError(f"unsupported DELETE predicate {predicate!r}")
        if column.table is not None and column.table.upper() != binding.upper():
            raise SqlSemanticError(
                f"predicate column {column} does not belong to "
                f"{binding!r}, the one relation of this DELETE"
            )
        survivors &= _predicate_survivors(relation, column.column, predicate)
    if not survivors:
        raise SqlSemanticError(
            f"DELETE matches no rows of {statement.table.name}; nothing to do"
        )
    return MutationBatch.from_term_lists(deletes={role: sorted(survivors)})


def execute_mutation(
    statement: Statement | str,
    directory: str | Path,
    held: HeldSnapshot | None = None,
) -> MutationStats:
    """Apply one INSERT or DELETE statement to a workspace directory.

    Accepts a parsed statement or raw SQL text.  Returns the
    :class:`~repro.workspace.mutate.MutationStats` of the atomically
    committed batch; any validation failure (unknown relation or
    column, term outside the vocabulary, no matching rows, deleting the
    last document) raises before anything is written.  ``held`` is
    passed through to :func:`~repro.workspace.mutate.apply_mutations`,
    as are the manifest and vocabulary read here, so a statement reads
    each of them once.
    """
    if isinstance(statement, str):
        from repro.sql.parser import parse_statement

        statement = parse_statement(statement)
    directory = Path(directory)
    manifest = load_manifest(directory)
    vocabulary = None
    if isinstance(statement, InsertStatement):
        batch, vocabulary = _insert_batch(statement, directory, manifest)
    elif isinstance(statement, DeleteStatement):
        batch = _delete_batch(statement, manifest)
    else:
        raise SqlSemanticError(
            "execute_mutation handles INSERT and DELETE; run SELECT "
            "statements through repro.sql.execute"
        )
    return apply_mutations(
        directory, batch, held=held, manifest=manifest, vocabulary=vocabulary
    )


__all__ = ["ROLE_BY_TABLE", "TEXT_ATTRIBUTE", "execute_mutation"]
