"""The paper's physical format, for real files.

Section 3 fixes the on-disk layout this library simulates everywhere:
documents are lists of 5-byte d-cells — a 3-byte term number and a
2-byte occurrence count — packed back to back with no alignment, and
inverted files store 5-byte i-cells the same way.  This module writes
and reads that exact format, so a collection's file size on disk equals
``collection.total_bytes`` to the byte and the simulated page counts
describe a real file.

Layout of a ``.docs`` / ``.inv`` pair of files:

* ``<name>.docs`` — the packed cells, nothing else;
* ``<name>.dir``  — the directory: magic, record count, then one u32
  *end offset* per record (start offsets are implied by packing).

The 3/2-byte widths make the paper's capacity limits concrete: term
numbers above ``2**24 - 1`` or occurrence counts above ``2**16 - 1``
cannot be represented and raise — occurrence counts may be clamped
instead by passing ``clamp_weights=True`` (real IR systems cap term
frequency anyway).
"""

from __future__ import annotations

import struct
from pathlib import Path

from repro.constants import (
    D_CELL_BYTES,
    OCCURRENCE_BYTES,
    TERM_NUMBER_BYTES,
)
from repro.errors import DocumentFormatError, InvertedFileError
from repro.index.inverted import InvertedEntry, InvertedFile
from repro.text.collection import DocumentCollection
from repro.text.document import Document

MAX_TERM_NUMBER = (1 << (8 * TERM_NUMBER_BYTES)) - 1
MAX_OCCURRENCES = (1 << (8 * OCCURRENCE_BYTES)) - 1

_DIR_MAGIC = b"TJR1"
_DIR_HEADER = struct.Struct("<4sI")
_DIR_OFFSET = struct.Struct("<I")
#: one 5-byte cell: the 3-byte number as u16 low + u8 high, then the u16 weight
_CELL = struct.Struct("<HBH")


def cells_to_bytes(
    cells: tuple[tuple[int, int], ...], *, clamp_weights: bool = False
) -> bytes:
    """Pack ``(number, weight)`` cells into the 5-byte wire format."""
    out = bytearray()
    for number, weight in cells:
        if number > MAX_TERM_NUMBER or number < 0:
            raise DocumentFormatError(
                f"number {number} does not fit the paper's {TERM_NUMBER_BYTES}-byte field"
            )
        if weight > MAX_OCCURRENCES:
            if not clamp_weights:
                raise DocumentFormatError(
                    f"occurrence count {weight} does not fit the paper's "
                    f"{OCCURRENCE_BYTES}-byte field (pass clamp_weights=True to cap)"
                )
            weight = MAX_OCCURRENCES
        out += number.to_bytes(TERM_NUMBER_BYTES, "little")
        out += weight.to_bytes(OCCURRENCE_BYTES, "little")
    return bytes(out)


def cells_from_bytes(data: bytes) -> tuple[tuple[int, int], ...]:
    """Inverse of :func:`cells_to_bytes`."""
    if len(data) % D_CELL_BYTES:
        raise DocumentFormatError(
            f"cell stream length {len(data)} is not a multiple of {D_CELL_BYTES}"
        )
    return tuple(
        [(low | high << 16, weight) for low, high, weight in _CELL.iter_unpack(data)]
    )


def _write_records(
    base: Path, records: list[bytes]
) -> tuple[Path, Path]:
    docs_path = base.with_suffix(base.suffix + ".cells")
    dir_path = base.with_suffix(base.suffix + ".dir")
    end = 0
    with open(docs_path, "wb") as cells_file, open(dir_path, "wb") as dir_file:
        dir_file.write(_DIR_HEADER.pack(_DIR_MAGIC, len(records)))
        for record in records:
            cells_file.write(record)
            end += len(record)
            dir_file.write(_DIR_OFFSET.pack(end))
    return docs_path, dir_path


def _read_records(base: Path) -> list[tuple[int, bytes]]:
    """Read ``(start_byte, record)`` pairs, validating both files first.

    Every malformed condition — truncated directory header or offset
    table, non-monotonic end offsets, a cell file shorter or longer than
    the directory promises — raises :class:`DocumentFormatError` naming
    the file, the record index and the byte offset of the damage, so a
    corrupt workspace points at its own broken artifact instead of
    surfacing a bare ``struct.error``.
    """
    docs_path = base.with_suffix(base.suffix + ".cells")
    dir_path = base.with_suffix(base.suffix + ".dir")
    raw = dir_path.read_bytes()
    if len(raw) < _DIR_HEADER.size:
        raise DocumentFormatError(
            f"{dir_path}: truncated header: {len(raw)} bytes, "
            f"need {_DIR_HEADER.size}"
        )
    magic, count = _DIR_HEADER.unpack_from(raw, 0)
    if magic != _DIR_MAGIC:
        raise DocumentFormatError(f"{dir_path} is not a textjoin directory file")
    table_end = _DIR_HEADER.size + count * _DIR_OFFSET.size
    if len(raw) < table_end:
        short_record = (len(raw) - _DIR_HEADER.size) // _DIR_OFFSET.size
        raise DocumentFormatError(
            f"{dir_path}: offset table truncated at byte {len(raw)}: "
            f"record {short_record} of {count} is incomplete "
            f"(need {table_end} bytes)"
        )
    ends = struct.unpack_from(f"<{count}I", raw, _DIR_HEADER.size)
    previous = 0
    for index, end in enumerate(ends):
        if end < previous:
            offset = _DIR_HEADER.size + index * _DIR_OFFSET.size
            raise DocumentFormatError(
                f"{dir_path}: record {index} at byte {offset}: end offset "
                f"{end} precedes the previous record's end {previous}"
            )
        previous = end
    data = docs_path.read_bytes()
    if ends and ends[-1] != len(data):
        raise DocumentFormatError(
            f"{docs_path} has {len(data)} bytes but the directory expects "
            f"{ends[-1]} (record {len(ends) - 1} ends there)"
        )
    if not ends and data:
        raise DocumentFormatError(
            f"{docs_path} has {len(data)} bytes but the directory lists no records"
        )
    records = []
    start = 0
    for end in ends:
        records.append((start, data[start:end]))
        start = end
    return records


def save_collection(
    collection: DocumentCollection, directory: str | Path, *, clamp_weights: bool = False
) -> Path:
    """Write a collection in the Section 3 format; returns the base path.

    Creates ``<name>.docs.cells`` (packed d-cells; its size equals
    ``collection.total_bytes`` exactly) and ``<name>.docs.dir``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    base = directory / f"{collection.name}.docs"
    _write_records(
        base,
        [cells_to_bytes(doc.cells, clamp_weights=clamp_weights) for doc in collection],
    )
    return base


def load_collection(name: str, directory: str | Path) -> DocumentCollection:
    """Read a collection written by :func:`save_collection`.

    The cell files store *term numbers* only (the whole point of the
    Section 3 format), so the returned documents are number-only vectors:
    joins and similarities work immediately, but mapping numbers back to
    term strings needs the :class:`~repro.text.vocabulary.Vocabulary`
    the collection was built with — save it alongside
    (:meth:`~repro.text.vocabulary.Vocabulary.save`) and attach it after
    loading, as :mod:`repro.workspace` does via its manifest.

    Corrupt or truncated files raise
    :class:`~repro.errors.DocumentFormatError` carrying the file name,
    the record index and the byte offset of the damage.
    """
    base = Path(directory) / f"{name}.docs"
    docs_path = base.with_suffix(base.suffix + ".cells")
    documents = []
    for doc_id, (start, record) in enumerate(_read_records(base)):
        try:
            documents.append(Document(doc_id, cells_from_bytes(record)))
        except DocumentFormatError as exc:
            raise DocumentFormatError(
                f"{docs_path}: record {doc_id} at byte {start}: {exc}"
            ) from exc
    return DocumentCollection(name, documents)


def save_inverted(
    inverted, directory: str | Path, *, clamp_weights: bool = False, codec=None
) -> Path:
    """Write an inverted file: one record per entry, terms in the
    directory file's companion ``.terms`` listing.

    With no ``codec`` (or the raw one) the records are packed i-cells;
    a compressed :class:`~repro.index.codecs.PostingsCodec` stores its
    encoded payload instead — for an already-compressed inverted file
    the stored ``data`` is written as-is, so what lands on disk is
    byte-identical to what the simulated extents charged for.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    base = directory / f"{inverted.collection_name}.inv"
    records = []
    for entry in inverted.entries:
        data = getattr(entry, "data", None)
        if data is not None:
            records.append(data)
        elif codec is not None:
            records.append(codec.encode_postings(entry.postings))
        else:
            records.append(
                cells_to_bytes(entry.postings, clamp_weights=clamp_weights)
            )
    _write_records(base, records)
    terms_path = base.with_suffix(".inv.terms")
    with open(terms_path, "wb") as terms_file:
        for entry in inverted.entries:
            terms_file.write(entry.term.to_bytes(TERM_NUMBER_BYTES, "little"))
    return base


def load_inverted(name: str, directory: str | Path, *, codec=None):
    """Read an inverted file written by :func:`save_inverted`.

    As with :func:`load_collection`, corruption raises
    :class:`~repro.errors.DocumentFormatError` naming the file, the
    entry index and the byte offset — including postings that decode but
    violate the i-cell invariants (a bit flip can scramble document
    order without changing the record length).

    With a compressed ``codec`` the records are its encoded payloads
    and the result is a
    :class:`~repro.index.compression.CompressedInvertedFile`; every
    record is decoded once on the way in — both to validate the stream
    and to pre-warm the entry's decode cache — and kept compressed, so
    the simulated extents charge the stored size.
    """
    base = Path(directory) / f"{name}.inv"
    cells_path = base.with_suffix(base.suffix + ".cells")
    terms_path = base.with_suffix(".inv.terms")
    records = _read_records(base)
    terms_data = terms_path.read_bytes()
    if len(terms_data) != TERM_NUMBER_BYTES * len(records):
        raise DocumentFormatError(
            f"{terms_path}: term listing for {name!r} has {len(terms_data)} "
            f"bytes, expected {TERM_NUMBER_BYTES * len(records)}"
        )
    compressed = codec is not None and codec.compressed
    if compressed:
        from repro.index.compression import (
            CompressedInvertedEntry,
            CompressedInvertedFile,
        )
    entries = []
    for index, (start, record) in enumerate(records):
        term = int.from_bytes(
            terms_data[index * TERM_NUMBER_BYTES : (index + 1) * TERM_NUMBER_BYTES],
            "little",
        )
        try:
            if compressed:
                postings = codec.decode_postings(record)
                entry = CompressedInvertedEntry(term, record, len(postings))
                entry._decoded = postings
            elif codec is not None:
                entry = InvertedEntry(term, codec.decode_postings(record))
            else:
                entry = InvertedEntry(term, cells_from_bytes(record))
            entries.append(entry)
        except (DocumentFormatError, InvertedFileError) as exc:
            raise DocumentFormatError(
                f"{cells_path}: entry {index} (term {term}) at byte {start}: {exc}"
            ) from exc
    if compressed:
        return CompressedInvertedFile(name, entries)
    return InvertedFile(name, entries)
