"""The Section 3 physical format, written to real files."""

import pytest

from repro.errors import DocumentFormatError
from repro.index.inverted import InvertedFile
from repro.text.collection import DocumentCollection
from repro.text.document import Document
from repro.text.serialization import (
    MAX_OCCURRENCES,
    MAX_TERM_NUMBER,
    cells_from_bytes,
    cells_to_bytes,
    load_collection,
    load_inverted,
    save_collection,
    save_inverted,
)
from repro.workloads.synthetic import SyntheticSpec, generate_collection


class TestCellCodec:
    def test_five_bytes_per_cell(self):
        data = cells_to_bytes(((1, 2), (500, 3)))
        assert len(data) == 10

    def test_roundtrip(self):
        cells = ((0, 1), (12_345, 99), (MAX_TERM_NUMBER, MAX_OCCURRENCES))
        assert cells_from_bytes(cells_to_bytes(cells)) == cells

    def test_empty(self):
        assert cells_from_bytes(cells_to_bytes(())) == ()

    def test_term_overflow_raises(self):
        with pytest.raises(DocumentFormatError):
            cells_to_bytes(((MAX_TERM_NUMBER + 1, 1),))

    def test_weight_overflow_raises(self):
        with pytest.raises(DocumentFormatError):
            cells_to_bytes(((1, MAX_OCCURRENCES + 1),))

    def test_weight_clamping(self):
        data = cells_to_bytes(((1, MAX_OCCURRENCES + 7),), clamp_weights=True)
        assert cells_from_bytes(data) == ((1, MAX_OCCURRENCES),)

    def test_misaligned_stream_rejected(self):
        with pytest.raises(DocumentFormatError):
            cells_from_bytes(b"\x00\x01\x02")

    @pytest.mark.parametrize("length", [1, 4, 6, 11])
    def test_misaligned_stream_message_names_the_length(self, length):
        with pytest.raises(
            DocumentFormatError,
            match=f"cell stream length {length} is not a multiple of 5",
        ):
            cells_from_bytes(bytes(length))

    def test_decode_matches_the_byte_at_a_time_reference(self):
        """The struct decode splits the 3-byte number as u16 + u8: pin it
        against plain ``int.from_bytes`` around every field boundary."""
        numbers = (0, 1, 255, 256, 65_535, 65_536, 65_537, MAX_TERM_NUMBER - 1,
                   MAX_TERM_NUMBER)
        weights = (1, 255, 256, MAX_OCCURRENCES - 1, MAX_OCCURRENCES)
        cells = tuple((n, w) for n in numbers for w in weights)
        data = cells_to_bytes(cells)
        reference = tuple(
            (
                int.from_bytes(data[at : at + 3], "little"),
                int.from_bytes(data[at + 3 : at + 5], "little"),
            )
            for at in range(0, len(data), 5)
        )
        decoded = cells_from_bytes(data)
        assert decoded == reference == cells
        assert all(type(cell) is tuple for cell in decoded)


class TestClampBoundaries:
    """clamp_weights at the exact edges of the 2-byte/3-byte cells."""

    def test_max_occurrences_exactly_needs_no_clamping(self):
        cells = ((7, MAX_OCCURRENCES),)
        assert cells_from_bytes(cells_to_bytes(cells)) == cells
        assert cells_from_bytes(cells_to_bytes(cells, clamp_weights=True)) == cells

    def test_one_past_max_occurrences_raises_without_clamping(self):
        with pytest.raises(DocumentFormatError):
            cells_to_bytes(((7, MAX_OCCURRENCES + 1),))

    def test_one_past_max_occurrences_clamps_to_the_boundary(self):
        data = cells_to_bytes(((7, MAX_OCCURRENCES + 1),), clamp_weights=True)
        assert cells_from_bytes(data) == ((7, MAX_OCCURRENCES),)

    def test_clamping_never_applies_to_term_numbers(self):
        # clamp_weights caps *weights*; a term number past 3 bytes is a
        # vocabulary-corruption signal and must raise either way
        with pytest.raises(DocumentFormatError):
            cells_to_bytes(((MAX_TERM_NUMBER + 1, 1),), clamp_weights=True)

    def test_max_term_number_exactly_survives(self):
        cells = ((MAX_TERM_NUMBER, 1),)
        assert cells_from_bytes(cells_to_bytes(cells)) == cells


class TestCollectionFiles:
    @pytest.fixture(scope="class")
    def collection(self):
        return generate_collection(
            SyntheticSpec("persisted", n_documents=60, avg_terms_per_doc=12,
                          vocabulary_size=300, seed=55)
        )

    def test_roundtrip(self, collection, tmp_path):
        save_collection(collection, tmp_path)
        loaded = load_collection("persisted", tmp_path)
        assert loaded.n_documents == collection.n_documents
        for original, restored in zip(collection, loaded):
            assert original.cells == restored.cells

    def test_file_size_is_exactly_total_bytes(self, collection, tmp_path):
        # the headline property: the paper's size model is the file size
        base = save_collection(collection, tmp_path)
        cells_file = base.with_suffix(base.suffix + ".cells")
        assert cells_file.stat().st_size == collection.total_bytes

    def test_empty_collection(self, tmp_path):
        empty = DocumentCollection("empty", [])
        save_collection(empty, tmp_path)
        assert load_collection("empty", tmp_path).n_documents == 0

    def test_documents_with_empty_cells(self, tmp_path):
        collection = DocumentCollection(
            "sparse", [Document(0, ()), Document(1, ((5, 2),))]
        )
        save_collection(collection, tmp_path)
        loaded = load_collection("sparse", tmp_path)
        assert loaded[0].cells == ()
        assert loaded[1].cells == ((5, 2),)

    def test_corrupt_directory_detected(self, collection, tmp_path):
        base = save_collection(collection, tmp_path)
        dir_file = base.with_suffix(base.suffix + ".dir")
        dir_file.write_bytes(b"XXXX" + dir_file.read_bytes()[4:])
        with pytest.raises(DocumentFormatError):
            load_collection("persisted", tmp_path)

    def test_truncated_cells_detected(self, collection, tmp_path):
        base = save_collection(collection, tmp_path)
        cells_file = base.with_suffix(base.suffix + ".cells")
        cells_file.write_bytes(cells_file.read_bytes()[:-5])
        with pytest.raises(DocumentFormatError):
            load_collection("persisted", tmp_path)


class TestInvertedFiles:
    @pytest.fixture(scope="class")
    def inverted(self):
        collection = generate_collection(
            SyntheticSpec("inv", n_documents=50, avg_terms_per_doc=10,
                          vocabulary_size=200, seed=66)
        )
        return InvertedFile.build(collection), collection

    def test_roundtrip(self, inverted, tmp_path):
        inv, _ = inverted
        save_inverted(inv, tmp_path)
        loaded = load_inverted("inv", tmp_path)
        assert loaded.n_terms == inv.n_terms
        for original, restored in zip(inv, loaded):
            assert original.term == restored.term
            assert original.postings == restored.postings

    def test_loaded_file_still_transposes_collection(self, inverted, tmp_path):
        inv, collection = inverted
        save_inverted(inv, tmp_path)
        load_inverted("inv", tmp_path).verify_against(collection)

    def test_inverted_size_equals_collection(self, inverted, tmp_path):
        inv, collection = inverted
        base = save_inverted(inv, tmp_path)
        cells_file = base.with_suffix(base.suffix + ".cells")
        # Section 3: same total size as the collection file
        assert cells_file.stat().st_size == collection.total_bytes


class TestCorruptionContext:
    """Damage reports carry the file, the record index and the byte offset."""

    @pytest.fixture()
    def saved(self, tmp_path):
        collection = DocumentCollection(
            "ctx",
            [Document(0, ((1, 2), (5, 1))), Document(1, ((1, 1), (2, 3))),
             Document(2, ((0, 1), (4, 2), (9, 1)))],
        )
        save_collection(collection, tmp_path)
        save_inverted(InvertedFile.build(collection), tmp_path)
        return collection, tmp_path

    def test_bit_flip_in_docs_names_record_and_offset(self, saved, tmp_path):
        _, directory = saved
        cells_file = directory / "ctx.docs.cells"
        data = bytearray(cells_file.read_bytes())
        # Records 0 and 1 hold two cells each, so record 2 starts at
        # byte 20.  Zero the term number of its second cell so the
        # d-cells stop increasing — the length stays valid, only the
        # per-record decode can notice.
        start_record2 = 20
        for byte in range(start_record2 + 5, start_record2 + 8):
            data[byte] = 0
        cells_file.write_bytes(bytes(data))
        with pytest.raises(DocumentFormatError) as excinfo:
            load_collection("ctx", directory)
        message = str(excinfo.value)
        assert "ctx.docs.cells" in message
        assert "record 2" in message
        assert f"byte {start_record2}" in message

    def test_truncated_dir_header_names_the_file(self, saved):
        _, directory = saved
        dir_file = directory / "ctx.docs.dir"
        dir_file.write_bytes(dir_file.read_bytes()[:3])
        with pytest.raises(DocumentFormatError) as excinfo:
            load_collection("ctx", directory)
        assert "truncated header" in str(excinfo.value)

    def test_truncated_offset_table_names_the_record(self, saved):
        _, directory = saved
        dir_file = directory / "ctx.docs.dir"
        dir_file.write_bytes(dir_file.read_bytes()[:-2])
        with pytest.raises(DocumentFormatError) as excinfo:
            load_collection("ctx", directory)
        message = str(excinfo.value)
        assert "offset table truncated" in message
        assert "record 2" in message

    def test_non_monotonic_directory_names_the_offsets(self, saved):
        _, directory = saved
        dir_file = directory / "ctx.docs.dir"
        data = bytearray(dir_file.read_bytes())
        # swap the end offsets of records 0 and 1 (u32s after the header)
        data[8:12], data[12:16] = data[12:16], data[8:12]
        dir_file.write_bytes(bytes(data))
        with pytest.raises(DocumentFormatError) as excinfo:
            load_collection("ctx", directory)
        assert "precedes the previous record's end" in str(excinfo.value)

    def test_bit_flip_in_inverted_names_entry_and_term(self, saved):
        collection, directory = saved
        cells_file = directory / "ctx.inv.cells"
        data = bytearray(cells_file.read_bytes())
        # term 0 posts one cell; term 1 posts one cell starting at byte 5.
        # Zero the doc id of a later entry's second posting so postings
        # stop increasing — find an entry with >= 2 postings first.
        inverted = InvertedFile.build(collection)
        offset = 0
        target = None
        for index, entry in enumerate(inverted.entries):
            if len(entry.postings) >= 2:
                target = (index, entry.term, offset)
                break
            offset += entry.n_bytes
        assert target is not None
        index, term, start = target
        for byte in range(start + 5, start + 8):
            data[byte] = 0
        cells_file.write_bytes(bytes(data))
        with pytest.raises(DocumentFormatError) as excinfo:
            load_inverted("ctx", directory)
        message = str(excinfo.value)
        assert "ctx.inv.cells" in message
        assert f"entry {index} (term {term})" in message
        assert f"byte {start}" in message

    def test_truncated_inverted_terms_listing(self, saved):
        _, directory = saved
        terms_file = directory / "ctx.inv.terms"
        terms_file.write_bytes(terms_file.read_bytes()[:-1])
        with pytest.raises(DocumentFormatError) as excinfo:
            load_inverted("ctx", directory)
        assert "term listing" in str(excinfo.value)
