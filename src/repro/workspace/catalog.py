"""Bind a workspace to the SQL layer: one call, zero rebuilds.

:func:`workspace_catalog` loads a workspace directory and exposes it in
the shape the synthetic SQL catalog uses — relations ``R1`` (inner,
collection ``c1``) and ``R2`` (outer) with an ordinary ``Id`` attribute
and a textual ``Doc`` attribute — and registers the pre-populated
:class:`~repro.core.environment.EnvironmentFactory` with the catalog so
:func:`repro.sql.executor.execute` assembles join environments from the
stored artifacts instead of re-inverting per query.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.environment import EnvironmentFactory
from repro.sql.catalog import Catalog, Relation
from repro.workspace.loader import load_workspace
from repro.workspace.segments import HeldSnapshot


def workspace_catalog(
    directory: str | Path, held: HeldSnapshot | None = None
) -> tuple[Catalog, EnvironmentFactory]:
    """A catalog (``R1``/``R2`` over ``Id`` + textual ``Doc``) plus its factory.

    ``R1.Doc`` is the workspace's inner collection and ``R2.Doc`` the
    outer one; for a self-join workspace both relations bind the same
    collection, and a ``R1 JOIN R2`` query runs the shared-storage
    self-join path.  The returned factory is already registered with the
    catalog — queries whose plan joins exactly these collections reuse
    its artifacts.  ``held`` is passed through to
    :func:`~repro.workspace.loader.load_workspace`.
    """
    factory = load_workspace(directory, held)
    catalog = Catalog()
    catalog.register(
        Relation.from_rows(
            "R1", [{"Id": i} for i in range(factory.collection1.n_documents)]
        ).bind_text("Doc", factory.collection1)
    )
    catalog.register(
        Relation.from_rows(
            "R2", [{"Id": i} for i in range(factory.collection2.n_documents)]
        ).bind_text("Doc", factory.collection2)
    )
    catalog.register_factory(factory)
    return catalog, factory


__all__ = ["workspace_catalog"]
