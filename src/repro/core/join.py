"""Join specification, execution environment and result types.

The executable half of the reproduction: a :class:`JoinEnvironment` lays
two collections (and their inverted files and B+-trees) onto a
:class:`~repro.storage.disk.SimulatedDisk`, the executors in
:mod:`repro.core.hhnl` / :mod:`repro.core.hvnl` / :mod:`repro.core.vvm`
run the actual algorithms over it, and every page they touch lands in an
:class:`~repro.storage.iostats.IOStats` that can be compared against the
Section 5 formulas.

Join semantics (``C1 SIMILAR_TO(lambda) C2`` in forward order): for each
participating document of the *outer* collection C2, return the up-to-
``lambda`` *inner* (C1) documents with the largest positive similarity.
All three executors produce identical matches by construction; only
their I/O differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.cost.params import JoinSide, QueryParams, SystemParams
from repro.errors import JoinError
from repro.index.bptree import BPlusTree
from repro.index.inverted import InvertedFile
from repro.index.stats import CollectionStats
from repro.storage.disk import SimulatedDisk  # repro: ignore[RA-CORE-IO] -- environment layout boundary
from repro.storage.extents import Extent  # repro: ignore[RA-CORE-IO] -- environment layout boundary
from repro.storage.iostats import IOStats
from repro.storage.pages import PageGeometry  # repro: ignore[RA-CORE-IO] -- environment layout boundary
from repro.text.collection import DocumentCollection

if TYPE_CHECKING:  # pragma: no cover — import cycle broken at runtime
    from repro.kernels import Kernels
    from repro.kernels.base import Matches


@dataclass(frozen=True)
class TextJoinSpec:
    """What the query asks for: SIMILAR_TO(``lam``), optionally normalised.

    ``normalized=True`` divides every similarity by the product of the
    two documents' norms (cosine) — executed via pre-computed norms, the
    strategy Section 3 describes, so it changes no I/O.
    """

    lam: int = 20
    normalized: bool = False

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise JoinError(f"lambda must be positive, got {self.lam}")


class JoinEnvironment:
    """Two collections laid out on one simulated disk, ready to join.

    For a self-join (``collection2 is collection1``) the storage and
    indexes are shared, exactly as Group 1 of the simulations assumes.

    Construction is a thin assembly over
    :class:`~repro.core.environment.EnvironmentFactory`: calling this
    constructor spins up a one-shot factory (deriving every artifact
    right here, as always), while a long-lived factory can stamp out
    many environments over the *same* immutable artifacts — each with a
    fresh disk and root :class:`~repro.storage.iostats.IOStats` — via
    :meth:`~repro.core.environment.EnvironmentFactory.create`.

    Attributes (``docs1``/``docs2``, ``inverted1``/``inverted2``,
    ``inv1_extent``/``inv2_extent``, ``btree1``/``btree2``,
    ``stats1``/``stats2``, ``disk``, ``geometry``) are identical either
    way; with ``codec="vbyte"`` the stored entries are d-gap/vbyte
    coded (:mod:`repro.index.compression`) and the executors run
    unchanged over the smaller pages.
    """

    geometry: PageGeometry
    collection1: DocumentCollection
    collection2: DocumentCollection
    codec: str
    kernels: "Kernels"
    disk: SimulatedDisk
    docs1: Extent
    docs2: Extent
    inverted1: InvertedFile | None
    inverted2: InvertedFile | None
    inv1_extent: Extent | None
    inv2_extent: Extent | None
    btree1: BPlusTree | None
    btree2: BPlusTree | None
    stats1: CollectionStats
    stats2: CollectionStats
    _norms1: dict[int, float] | None
    _norms2: dict[int, float] | None

    def __init__(
        self,
        collection1: DocumentCollection,
        collection2: DocumentCollection,
        geometry: PageGeometry | None = None,
        *,
        build_inverted: bool = True,
        btree_order: int = 64,
        codec: str = "raw",
        kernel: str = "auto",
    ) -> None:
        from repro.core.environment import EnvironmentFactory, EnvironmentSpec

        spec = EnvironmentSpec(
            page_bytes=(geometry or PageGeometry()).page_bytes,
            build_inverted=build_inverted,
            btree_order=btree_order,
            codec=codec,
        )
        factory = EnvironmentFactory(
            collection1,
            None if collection2 is collection1 else collection2,
            spec,
            kernel=kernel,
        )
        factory._assemble(self)

    # --- norms (pre-computed, no I/O — Section 3's normalisation strategy) ---

    def norms1(self) -> dict[int, float]:
        """Pre-computed norms of the C1 documents (cached, no I/O)."""
        if self._norms1 is None:
            self._norms1 = {doc.doc_id: doc.norm() for doc in self.collection1}
        return self._norms1

    def norms2(self) -> dict[int, float]:
        """Pre-computed norms of the C2 documents (cached, no I/O)."""
        if self.collection2 is self.collection1:
            return self.norms1()
        if self._norms2 is None:
            self._norms2 = {doc.doc_id: doc.norm() for doc in self.collection2}
        return self._norms2

    # --- cost-model bridge ---------------------------------------------------

    def cost_sides(
        self,
        outer_ids: Sequence[int] | None = None,
        inner_ids: Sequence[int] | None = None,
    ) -> tuple[JoinSide, JoinSide]:
        """``(side1, side2)`` with measured statistics and the selections."""
        side1 = JoinSide(
            self.stats1,
            participating=len(inner_ids) if inner_ids is not None else None,
        )
        side2 = JoinSide(
            self.stats2,
            participating=len(outer_ids) if outer_ids is not None else None,
        )
        return side1, side2

    def measured_q(self) -> float:
        """Measured probability that a C2 term also appears in C1."""
        return self.collection2.term_overlap_with(self.collection1)

    def measured_p(self) -> float:
        """Measured probability that a C1 term also appears in C2."""
        return self.collection1.term_overlap_with(self.collection2)

    def reset_io(self) -> None:
        """Zero the disk's I/O counters."""
        self.disk.stats.reset()

    def execution_scope(self, context):
        """Guard this environment's disk with an execution context.

        Convenience over
        :meth:`~repro.storage.disk.SimulatedDisk.execution_scope`: the
        ``iter_*`` operators open one scope around their whole run so
        page budgets and metric hooks observe every charged read.
        """
        return self.disk.execution_scope(context)


@dataclass
class TextJoinResult:
    """Matches plus measured I/O for one executed join."""

    algorithm: str
    spec: TextJoinSpec
    matches: dict[int, list[tuple[int, float]]]
    io: IOStats
    extras: dict[str, Any] = field(default_factory=dict)

    def weighted_cost(self, alpha: float) -> float:
        """The paper's metric over the measured reads."""
        return self.io.weighted_cost(alpha)

    def pairs(self) -> Iterator[tuple[int, int, float]]:
        """Flat ``(outer doc, inner doc, similarity)`` stream, outer-major."""
        for outer_doc in sorted(self.matches):
            for inner_doc, similarity in self.matches[outer_doc]:
                yield outer_doc, inner_doc, similarity

    def n_matches(self) -> int:
        """Total matched pairs across all outer documents."""
        return sum(len(hits) for hits in self.matches.values())

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable summary for downstream pipelines.

        Contains the algorithm, the spec, the matches (outer doc →
        ranked ``[inner doc, similarity]`` pairs) and the I/O counters;
        non-serialisable extras (plans, decisions) are represented by
        their ``repr``.
        """
        return {
            "algorithm": self.algorithm,
            "lambda": self.spec.lam,
            "normalized": self.spec.normalized,
            "matches": {
                str(outer): [[inner, sim] for inner, sim in hits]
                for outer, hits in sorted(self.matches.items())
            },
            "io": {
                "sequential_reads": self.io.sequential_reads,
                "random_reads": self.io.random_reads,
                "by_extent": {
                    name: {"sequential": seq, "random": rnd}
                    for name, (seq, rnd) in sorted(self.io.by_extent.items())
                },
            },
            "extras": {
                key: value
                if isinstance(value, (int, float, str, bool, type(None)))
                else repr(value)
                for key, value in self.extras.items()
            },
        }

    def to_json(self, **dumps_kwargs: Any) -> str:
        """The :meth:`to_dict` summary as a JSON string."""
        import json

        return json.dumps(self.to_dict(), **dumps_kwargs)

    def same_matches_as(self, other: "TextJoinResult", tolerance: float = 1e-9) -> bool:
        """True when both results pair the same documents with the same
        similarities (the cross-algorithm agreement invariant)."""
        if set(self.matches) != set(other.matches):
            return False
        for outer_doc, hits in self.matches.items():
            other_hits = other.matches[outer_doc]
            if len(hits) != len(other_hits):
                return False
            for (d_a, s_a), (d_b, s_b) in zip(hits, other_hits):
                if d_a != d_b or abs(s_a - s_b) > tolerance:
                    return False
        return True

    def __repr__(self) -> str:
        return (
            f"TextJoinResult({self.algorithm}, outer_docs={len(self.matches)}, "
            f"matches={self.n_matches()}, {self.io})"
        )


def scan_with_block_seeks(disk: SimulatedDisk, extent: Extent, leftover_pages: float):
    """Scan an extent under interference, buffering blocks in spare memory.

    The worst-case formulas (Sections 5.1-5.2) let an algorithm with
    leftover buffer read a collection in blocks of that many pages, so an
    interrupted scan seeks once per *block* rather than once per record:
    ``ceil(total / leftover)`` random reads, the rest sequential.  Each of
    those page groups is charged when the walk first yields a record
    ending in it, so an abandoned scan pays only for the blocks it pulled.
    """
    import math

    total = extent.n_pages
    blocks = total
    if leftover_pages > 0:
        blocks = min(max(1, math.ceil(total / leftover_pages)), total)
    groups_read = 0
    pages_read_through = -1  # last page of the last group charged
    for span, payload in extent.records():
        last_page = span.last_page
        while pages_read_through < last_page < total:
            groups_read += 1
            group_end = groups_read * total // blocks - 1
            disk.stats.record(
                extent.name, random=1, sequential=group_end - pages_read_through - 1
            )
            pages_read_through = group_end
        yield span, payload


#: outer documents scored per :meth:`Kernels.rank` call, in score cells
#: (documents x inner documents): a 2 MB float64 matrix
RANK_BLOCK_CELLS = 1 << 18


def compute_ahead(
    environment: JoinEnvironment,
    spec: TextJoinSpec,
    inner_ids: Sequence[int] | None,
    order: Sequence[int],
    block_cells: int,
    grow: bool,
) -> Iterator[tuple[int, Matches, int]]:
    """``(doc_id, matches, cells)`` per C2 id of ``order``, scored from the
    in-memory snapshot with one :meth:`Kernels.rank` per block of at most
    ``block_cells // N1`` ids, the next block only once this one is
    drained; with ``grow`` blocks start at one id and double (for LIMIT).
    Nothing here reads or charges a page."""
    kernels, inverted1 = environment.kernels, environment.inverted1
    n_docs = environment.collection1.n_documents
    norms1 = environment.norms1() if spec.normalized else None
    norms2 = environment.norms2() if spec.normalized else None
    prepared_norms1 = kernels.prepare_norms(norms1, n_docs)
    prepared_filter = kernels.prepare_filter(inner_ids, n_docs)
    cap = max(block_cells // max(n_docs, 1), 1)
    size, position = (1 if grow else cap), 0
    while position < len(order):
        block = order[position : position + size]
        position += len(block)
        size = min(2 * size, cap)
        norms = [norms2[doc_id] if norms2 is not None else 0.0 for doc_id in block]
        ranked = kernels.rank(
            block, environment.collection2, inverted1, spec.lam,
            prepared_norms1, norms, prepared_filter, n_docs,
        )
        yield from zip(block, *ranked)


def _resolve_ids(
    ids: Sequence[int] | None, n_documents: int, label: str
) -> list[int] | None:
    if ids is None:
        return None
    unique = sorted(set(ids))
    if len(unique) != len(ids):
        raise JoinError(f"{label} contains duplicates")
    if unique and (unique[0] < 0 or unique[-1] >= n_documents):
        raise JoinError(f"{label} out of range 0..{n_documents - 1}")
    return unique


def resolve_outer_ids(
    environment: JoinEnvironment, outer_ids: Sequence[int] | None
) -> list[int] | None:
    """Validate and sort an explicit participating C2 document list."""
    return _resolve_ids(
        outer_ids, environment.collection2.n_documents, "outer_ids"
    )


def resolve_inner_ids(
    environment: JoinEnvironment, inner_ids: Sequence[int] | None
) -> list[int] | None:
    """Validate and sort an explicit participating C1 document list."""
    return _resolve_ids(
        inner_ids, environment.collection1.n_documents, "inner_ids"
    )


__all__ = [
    "JoinEnvironment",
    "JoinSide",
    "QueryParams",
    "RANK_BLOCK_CELLS",
    "SystemParams",
    "TextJoinResult",
    "TextJoinSpec",
    "compute_ahead",
    "resolve_inner_ids",
    "resolve_outer_ids",
    "scan_with_block_seeks",
]
