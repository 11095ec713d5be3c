"""Build-once environment construction: spec, factory, shared artifacts.

Historically every ``JoinEnvironment(...)`` call re-derived the whole
physical dataset — laid the collections out, inverted them and
bulk-loaded the term trees — even though the paper's Section 5 cost
models price only the *join*.  This module splits those phases:

* an :class:`EnvironmentSpec` is the frozen recipe (page size, whether
  to invert, tree order, compression);
* an :class:`EnvironmentFactory` derives the immutable artifacts —
  document extents, inverted files, inverted extents, B+-trees,
  collection statistics — lazily, caches them, and assembles any number
  of :class:`~repro.core.join.JoinEnvironment` instances over them.

Each :meth:`EnvironmentFactory.create` call gets a **fresh**
:class:`~repro.storage.disk.SimulatedDisk` with a fresh root
:class:`~repro.storage.iostats.IOStats`, so executions over a shared
factory never see each other's page counts; the extents themselves are
append-only and read-only once built, which is what makes sharing them
safe.  A factory can be warmed from memory (byte-identical to direct
construction) or pre-populated from a :mod:`repro.workspace` directory
via :meth:`EnvironmentFactory.preload_side`, in which case the expensive
derivations never run at all.

Every derivation is appended to :attr:`EnvironmentFactory.build_log` as
a ``"kind:target"`` event (kinds: ``layout``, ``invert``, ``compress``,
``bulk-load``, ``stats``, ``load``, ``merge``), which is how callers
*prove* that a warm or workspace-backed factory did zero
tokenization/inversion work.  ``merge`` records that a side's artifacts
are the merged view of a segmented workspace (base segments + delta,
tombstones applied); it is deliberately *not* a derivation kind — the
merge works over already-derived per-segment artifacts, never
re-tokenising or re-inverting documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.errors import JoinError
from repro.index.bptree import BPlusTree
from repro.index.inverted import InvertedFile, bulk_load_terms
from repro.index.stats import CollectionStats
from repro.storage.disk import SimulatedDisk  # repro: ignore[RA-CORE-IO] -- environment layout boundary
from repro.storage.extents import Extent  # repro: ignore[RA-CORE-IO] -- environment layout boundary
from repro.storage.iostats import IOStats
from repro.storage.pages import PageGeometry  # repro: ignore[RA-CORE-IO] -- environment layout boundary
from repro.text.collection import DocumentCollection
from repro.text.vocabulary import Vocabulary

if TYPE_CHECKING:  # pragma: no cover — import cycle broken at runtime
    from repro.core.join import JoinEnvironment

#: a record's stored size, as an extent lays it out
_N_BYTES = attrgetter("n_bytes")

#: build-log event kinds that represent expensive dataset derivation
#: (as opposed to cheap extent layout, statistics or artifact loads)
DERIVATION_KINDS = ("invert", "compress", "bulk-load")


@dataclass(frozen=True)
class EnvironmentSpec:
    """The frozen recipe for one physical dataset layout.

    ``codec`` names the :mod:`repro.index.codecs` postings codec the
    inverted extents are stored in (``"vbyte"`` for compressed postings).
    """

    page_bytes: int = PageGeometry().page_bytes
    build_inverted: bool = True
    btree_order: int = 64
    codec: str = "raw"

    def __post_init__(self) -> None:
        if self.page_bytes <= 0:
            raise JoinError(f"page_bytes must be positive, got {self.page_bytes}")
        if self.btree_order < 3:
            raise JoinError(f"btree_order must be at least 3, got {self.btree_order}")
        from repro.index.codecs import resolve_codec

        resolve_codec(self.codec)  # rejects an unknown codec name

    def geometry(self) -> PageGeometry:
        """The page geometry every artifact of this spec is laid out in."""
        return PageGeometry(self.page_bytes)


class EnvironmentFactory:
    """Derives and caches the immutable artifacts behind environments.

    ``collection2=None`` declares a self-join: C2 *is* C1 and every
    side-2 artifact aliases side 1, exactly as Group 1 of the paper's
    simulations assumes.  All artifact accessors take the side number
    (1 or 2) and build on first use; :meth:`create` assembles a full
    :class:`~repro.core.join.JoinEnvironment` from whatever the cache
    holds, deriving the rest on demand.

    ``previous`` is the factory of the snapshot this one replaces (a
    resident service's, across a mutation): each extent laid out here
    shares the spans of the leading records whose place did not move.
    """

    def __init__(
        self,
        collection1: DocumentCollection,
        collection2: DocumentCollection | None = None,
        spec: EnvironmentSpec | None = None,
        *,
        kernel: str = "auto",
        previous: EnvironmentFactory | None = None,
    ) -> None:
        self.spec = spec or EnvironmentSpec()
        #: kernel backend name resolved per assembled environment; mutable
        #: (it selects arithmetic, not physical layout) and pickled with
        #: the factory, so shard workers inherit the parent's choice
        self.kernel = kernel
        self.collection1 = collection1
        self.collection2 = collection1 if collection2 is None else collection2
        #: the shared term↔number mapping, when known (workspaces carry it)
        self.vocabulary: Vocabulary | None = None
        #: ordered ``"kind:target"`` derivation events — the instrumentation
        #: that proves a warm factory rebuilds nothing
        self.build_log: list[str] = []
        self._geometry = self.spec.geometry()
        self._docs_extents: dict[int, Extent] = {}
        self._inverted: dict[int, InvertedFile] = {}
        self._inv_extents: dict[int, Extent] = {}
        self._btrees: dict[int, BPlusTree] = {}
        self._stats: dict[int, CollectionStats] = {}
        #: the extents of the snapshot this factory replaces, by name, each
        #: taken once as the ``like`` of its successor (never a chain)
        self._replaced: dict[str, Extent] = (
            {}
            if previous is None
            else {
                extent.name: extent
                for extent in (
                    *previous._docs_extents.values(),
                    *previous._inv_extents.values(),
                )
            }
        )

    # --- identity -----------------------------------------------------------

    @property
    def self_join(self) -> bool:
        """True when both sides are the same collection object."""
        return self.collection2 is self.collection1

    def collection(self, side: int) -> DocumentCollection:
        """The collection of one side (1 or 2)."""
        if side == 1:
            return self.collection1
        if side == 2:
            return self.collection2
        raise JoinError(f"side must be 1 or 2, got {side}")

    # --- artifacts (lazy, cached, immutable once built) ----------------------

    def docs_extent(self, side: int) -> Extent:
        """The packed document extent of one side (``cN.docs``)."""
        if self.self_join and side == 2:
            return self.docs_extent(1)
        if side not in self._docs_extents:
            name = f"c{side}.docs"
            documents = self.collection(side).documents
            self._docs_extents[side] = Extent.from_records(
                name,
                self._geometry,
                documents,
                map(_N_BYTES, documents),
                like=self._replaced.pop(name, None),
            )
            self.build_log.append(f"layout:{name}")
        return self._docs_extents[side]

    def inverted(self, side: int) -> InvertedFile:
        """The inverted file of one side, in the spec's codec."""
        if self.self_join and side == 2:
            return self.inverted(1)
        if side not in self._inverted:
            from repro.index.codecs import resolve_codec

            inverted = InvertedFile.build(self.collection(side))
            self.build_log.append(f"invert:c{side}")
            codec = resolve_codec(self.spec.codec)
            if codec.compressed:
                inverted = codec.build(inverted)
                self.build_log.append(f"compress:c{side}")
            self._inverted[side] = inverted
        return self._inverted[side]

    def inverted_extent(self, side: int) -> Extent:
        """The packed inverted-file extent of one side (``cN.inv``)."""
        if self.self_join and side == 2:
            return self.inverted_extent(1)
        if side not in self._inv_extents:
            name = f"c{side}.inv"
            entries = self.inverted(side).entries
            self._inv_extents[side] = Extent.from_records(
                name,
                self._geometry,
                entries,
                map(_N_BYTES, entries),
                like=self._replaced.pop(name, None),
            )
            self.build_log.append(f"layout:{name}")
        return self._inv_extents[side]

    def btree(self, side: int) -> BPlusTree:
        """The term tree of one side, bulk-loaded over its inverted file."""
        if self.self_join and side == 2:
            return self.btree(1)
        if side not in self._btrees:
            self._btrees[side] = bulk_load_terms(
                self.inverted(side).document_frequencies(), self.spec.btree_order
            )
            self.build_log.append(f"bulk-load:c{side}")
        return self._btrees[side]

    def stats(self, side: int) -> CollectionStats:
        """Measured collection statistics of one side.

        With a compressed codec the inverted-side figures (``J``, ``I``
        and everything derived from them) are overridden by the measured
        compression ratio, so the analytic cost models price the same
        extent sizes the simulated disk actually charges for.
        """
        if self.self_join and side == 2:
            return self.stats(1)
        if side not in self._stats:
            from repro.index.codecs import resolve_codec

            stats = CollectionStats.from_collection(
                self.collection(side), self._geometry
            )
            codec = resolve_codec(self.spec.codec)
            if codec.compressed and self.spec.build_inverted:
                from repro.constants import I_CELL_BYTES

                compressed_total = self.inverted(side).total_bytes
                # the inverted file is the transpose: one i-cell per d-cell
                uncompressed_total = I_CELL_BYTES * self.collection(side).total_cells
                if compressed_total and uncompressed_total > compressed_total:
                    stats = stats.with_compressed_inverted(
                        uncompressed_total / compressed_total
                    )
                # Adversarial data can compress to >= raw size; the raw
                # figures are then already the measured layout.
            self._stats[side] = stats
            self.build_log.append(f"stats:c{side}")
        return self._stats[side]

    def preload_side(
        self, side: int, inverted: InvertedFile, btree: BPlusTree
    ) -> None:
        """Install artifacts loaded from durable storage for one side.

        Used by the workspace loader: the inverted file and term tree
        came off disk, so the factory must never re-derive them.  The
        install is refused once the side's artifacts exist — a factory's
        artifacts are immutable after first use, and silently swapping
        them would desynchronise environments already assembled over the
        old ones.
        """
        if self.self_join and side == 2:
            raise JoinError("a self-join factory preloads side 1 only")
        if side not in (1, 2):
            raise JoinError(f"side must be 1 or 2, got {side}")
        if side in self._inverted or side in self._btrees:
            raise JoinError(
                f"side {side} artifacts already exist; preload before first use"
            )
        self._inverted[side] = inverted
        self._btrees[side] = btree
        self.build_log.append(f"load:c{side}.inv")
        self.build_log.append(f"load:c{side}.btree")

    def preload_merged_side(
        self,
        side: int,
        inverted: InvertedFile,
        btree: BPlusTree,
        *,
        n_segments: int,
    ) -> None:
        """Install one side's merged multi-segment view.

        Same contract as :meth:`preload_side`, plus a ``merge:cN[k]``
        build-log event recording that the side is the tombstone-applied
        merge of ``k`` workspace segments.  HHNL/HVNL/VVM — and every
        kernel backend — see one logical collection; nothing downstream
        can tell the view from a cold rebuild of the live document set.
        """
        self.preload_side(side, inverted, btree)
        self.build_log.append(f"merge:c{side}[{n_segments}]")

    # --- instrumentation ------------------------------------------------------

    def build_counts(self) -> dict[str, int]:
        """Histogram of build-log events by kind."""
        counts: dict[str, int] = {}
        for event in self.build_log:
            kind = event.split(":", 1)[0]
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def derivation_events(self) -> list[str]:
        """The expensive events only (:data:`DERIVATION_KINDS`).

        Empty for a factory whose artifacts all came from a workspace —
        the acceptance test for "build once, join many".
        """
        return [
            event
            for event in self.build_log
            if event.split(":", 1)[0] in DERIVATION_KINDS
        ]

    # --- assembly -------------------------------------------------------------

    def create(self) -> "JoinEnvironment":
        """A fresh environment over the shared artifacts.

        The returned environment is indistinguishable from one built
        directly with ``JoinEnvironment(c1, c2, ...)`` — same extents
        byte-for-byte, same tree layout, same statistics — but its disk
        and root :class:`~repro.storage.iostats.IOStats` are brand new,
        so per-execution I/O accounting starts at zero.
        """
        from repro.core.join import JoinEnvironment

        return self._assemble(JoinEnvironment.__new__(JoinEnvironment))

    def _assemble(self, environment: "JoinEnvironment") -> "JoinEnvironment":
        """Wire one environment instance onto the cached artifacts."""
        from repro.kernels import resolve_kernels

        spec = self.spec
        environment.geometry = self._geometry
        environment.collection1 = self.collection1
        environment.collection2 = self.collection2
        environment.codec = spec.codec
        environment.kernels = resolve_kernels(self.kernel)
        environment.disk = SimulatedDisk(IOStats(), self._geometry)  # repro: ignore[RA-CONTEXT] -- the factory creates each environment's root counter before execution
        environment.docs1 = environment.disk.attach_extent(self.docs_extent(1))
        if self.self_join:
            environment.docs2 = environment.docs1
        else:
            environment.docs2 = environment.disk.attach_extent(self.docs_extent(2))
        environment.inverted1 = None
        environment.inverted2 = None
        environment.inv1_extent = None
        environment.inv2_extent = None
        environment.btree1 = None
        environment.btree2 = None
        if spec.build_inverted:
            environment.inverted1 = self.inverted(1)
            environment.inv1_extent = environment.disk.attach_extent(
                self.inverted_extent(1)
            )
            environment.btree1 = self.btree(1)
            if self.self_join:
                environment.inverted2 = environment.inverted1
                environment.inv2_extent = environment.inv1_extent
                environment.btree2 = environment.btree1
            else:
                environment.inverted2 = self.inverted(2)
                environment.inv2_extent = environment.disk.attach_extent(
                    self.inverted_extent(2)
                )
                environment.btree2 = self.btree(2)
        environment.stats1 = self.stats(1)
        environment.stats2 = self.stats(2)
        environment._norms1 = None
        environment._norms2 = None
        return environment


__all__ = ["DERIVATION_KINDS", "EnvironmentFactory", "EnvironmentSpec"]
