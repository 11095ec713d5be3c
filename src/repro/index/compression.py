"""Compressed inverted files: d-gaps + variable-byte coding.

An extension beyond the paper: production IR systems store posting
lists compressed, which directly shrinks the ``I`` and ``J`` figures
every formula in Section 5 depends on.  The classic scheme is used —
document ids become gaps (``d_i - d_{i-1}``, small because postings are
sorted) and each gap/weight is variable-byte coded: 7 payload bits per
byte, high bit set on the final byte.

:class:`CompressedInvertedEntry` mirrors the uncompressed entry's
interface (``term``, ``postings``, ``document_frequency``, ``n_bytes``),
so :class:`~repro.core.join.JoinEnvironment` can lay either form onto
the simulated disk and the executors run unchanged — only the page
counts (and therefore measured I/O) move.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import InvertedFileError
from repro.index.inverted import InvertedEntry, InvertedFile


def encode_vbyte(value: int) -> bytes:
    """Variable-byte encode one non-negative integer.

    Little-endian 7-bit groups; the final byte has its high bit set.
    """
    if value < 0:
        raise InvertedFileError(f"cannot vbyte-encode negative value {value}")
    out = bytearray()
    while True:
        if value < 128:
            out.append(value | 0x80)
            return bytes(out)
        out.append(value & 0x7F)
        value >>= 7


def decode_vbyte(data: bytes, position: int) -> tuple[int, int]:
    """Decode one integer starting at ``position``; returns (value, next)."""
    value = 0
    shift = 0
    while position < len(data):
        byte = data[position]
        position += 1
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            return value, position
        shift += 7
    raise InvertedFileError("truncated vbyte stream")


def compress_postings(postings: tuple[tuple[int, int], ...]) -> bytes:
    """Encode i-cells as (d-gap, weight) vbyte pairs."""
    out = bytearray()
    previous = -1
    for doc_id, weight in postings:
        if doc_id <= previous:
            raise InvertedFileError("postings must be strictly increasing")
        out += encode_vbyte(doc_id - previous - 1)
        out += encode_vbyte(weight)
        previous = doc_id
    return bytes(out)


def decompress_postings(data: bytes) -> tuple[tuple[int, int], ...]:
    """Inverse of :func:`compress_postings`."""
    postings: list[tuple[int, int]] = []
    position = 0
    doc_id = -1
    while position < len(data):
        gap, position = decode_vbyte(data, position)
        weight, position = decode_vbyte(data, position)
        doc_id += gap + 1
        postings.append((doc_id, weight))
    return tuple(postings)


class CompressedInvertedEntry:
    """One term's posting list, stored compressed.

    Decoding is lazy and cached: the executors touch ``postings`` many
    times per resident entry, but the stored (charged) size is the
    compressed one.
    """

    __slots__ = ("term", "data", "document_frequency", "n_bytes", "_decoded", "_packed")

    def __init__(self, term: int, data: bytes, document_frequency: int) -> None:
        self.term = term
        self.data = data
        self.document_frequency = document_frequency
        #: stored (compressed) size
        self.n_bytes = len(data)
        self._decoded: tuple[tuple[int, int], ...] | None = None
        #: kernel-backend pack cache: ``(backend_tag, data)`` or None
        self._packed: tuple[str, object] | None = None

    def __getstate__(self) -> tuple[int, bytes, int]:
        # Decode/pack caches are process-local; rebuilt lazily after unpickling.
        return (self.term, self.data, self.document_frequency)

    def __setstate__(self, state: tuple[int, bytes, int]) -> None:
        self.term, self.data, self.document_frequency = state
        self.n_bytes = len(self.data)
        self._decoded = None
        self._packed = None

    @classmethod
    def from_entry(cls, entry: InvertedEntry) -> "CompressedInvertedEntry":
        return cls(
            entry.term, compress_postings(entry.postings), entry.document_frequency
        )

    @property
    def postings(self) -> tuple[tuple[int, int], ...]:
        if self._decoded is None:
            self._decoded = decompress_postings(self.data)
        return self._decoded

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.postings)

    def __len__(self) -> int:
        return self.document_frequency

    def __repr__(self) -> str:
        return (
            f"CompressedInvertedEntry(term={self.term}, "
            f"df={self.document_frequency}, bytes={self.n_bytes})"
        )


class CompressedInvertedFile:
    """A whole inverted file in compressed form."""

    def __init__(self, collection_name: str, entries: list[CompressedInvertedEntry]) -> None:
        self.collection_name = collection_name
        self.entries = entries
        self._by_term = {entry.term: index for index, entry in enumerate(entries)}

    @classmethod
    def from_inverted(cls, inverted: InvertedFile) -> "CompressedInvertedFile":
        # An already-compressed entry (a stored payload the merged view
        # shares with its leading segment) is canonical: it passes through.
        return cls(
            inverted.collection_name,
            [
                entry
                if isinstance(entry, CompressedInvertedEntry)
                else CompressedInvertedEntry.from_entry(entry)
                for entry in inverted.entries
            ],
        )

    def entry(self, term: int) -> CompressedInvertedEntry:
        """The compressed posting list for ``term``; raises if absent."""
        index = self._by_term.get(term)
        if index is None:
            raise InvertedFileError(
                f"collection {self.collection_name!r} has no entry for term {term}"
            )
        return self.entries[index]

    def get(self, term: int) -> CompressedInvertedEntry | None:
        """The entry for ``term`` or ``None``."""
        index = self._by_term.get(term)
        return None if index is None else self.entries[index]

    def entry_index(self, term: int) -> int:
        """Storage position (record id) of the entry for ``term``."""
        index = self._by_term.get(term)
        if index is None:
            raise InvertedFileError(
                f"collection {self.collection_name!r} has no entry for term {term}"
            )
        return index

    def __contains__(self, term: int) -> bool:
        return term in self._by_term

    def __iter__(self) -> Iterator[CompressedInvertedEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def n_terms(self) -> int:
        return len(self.entries)

    @property
    def total_bytes(self) -> int:
        return sum(entry.n_bytes for entry in self.entries)

    def document_frequencies(self) -> dict[int, int]:
        """``{term: document frequency}`` for every entry, in term order."""
        return {entry.term: entry.document_frequency for entry in self.entries}

    def compression_ratio(self, inverted: InvertedFile) -> float:
        """Uncompressed bytes / compressed bytes (> 1 is a win)."""
        compressed = self.total_bytes
        if compressed == 0:
            return 1.0
        return inverted.total_bytes / compressed
