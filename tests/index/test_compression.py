"""Compressed inverted files: vbyte coding, round trips, I/O savings."""

import pytest

from repro.core.hvnl import run_hvnl
from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.core.vvm import run_vvm
from repro.cost.params import SystemParams
from repro.errors import InvertedFileError
from repro.index.compression import (
    CompressedInvertedEntry,
    CompressedInvertedFile,
    compress_postings,
    decode_vbyte,
    decompress_postings,
    encode_vbyte,
)
from repro.index.inverted import InvertedEntry, InvertedFile
from repro.storage.pages import PageGeometry
from repro.workloads.synthetic import SyntheticSpec, generate_collection


class TestVByte:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 129, 16_383, 16_384, 10**9])
    def test_roundtrip(self, value):
        data = encode_vbyte(value)
        decoded, position = decode_vbyte(data, 0)
        assert decoded == value
        assert position == len(data)

    def test_small_values_take_one_byte(self):
        assert len(encode_vbyte(0)) == 1
        assert len(encode_vbyte(127)) == 1
        assert len(encode_vbyte(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(InvertedFileError):
            encode_vbyte(-1)

    def test_truncated_stream(self):
        data = bytes([0x01])  # continuation bit never set
        with pytest.raises(InvertedFileError):
            decode_vbyte(data, 0)

    def test_sequential_decode(self):
        data = encode_vbyte(5) + encode_vbyte(300) + encode_vbyte(0)
        v1, p = decode_vbyte(data, 0)
        v2, p = decode_vbyte(data, p)
        v3, p = decode_vbyte(data, p)
        assert (v1, v2, v3) == (5, 300, 0)
        assert p == len(data)


class TestPostingsCodec:
    def test_roundtrip(self):
        postings = ((0, 3), (1, 1), (7, 2), (1000, 9))
        assert decompress_postings(compress_postings(postings)) == postings

    def test_empty(self):
        assert decompress_postings(compress_postings(())) == ()

    def test_dense_postings_compress_well(self):
        # consecutive doc ids -> gaps of 0 -> 2 bytes per posting vs 5
        postings = tuple((i, 1) for i in range(1000))
        data = compress_postings(postings)
        assert len(data) == 2 * 1000

    def test_unsorted_rejected(self):
        with pytest.raises(InvertedFileError):
            compress_postings(((5, 1), (2, 1)))


class TestCompressedEntry:
    def test_from_entry_roundtrip(self):
        entry = InvertedEntry(42, ((0, 2), (9, 1), (10, 5)))
        compressed = CompressedInvertedEntry.from_entry(entry)
        assert compressed.term == 42
        assert compressed.document_frequency == 3
        assert compressed.postings == entry.postings

    def test_smaller_than_original(self):
        entry = InvertedEntry(1, tuple((i * 2, 1) for i in range(500)))
        compressed = CompressedInvertedEntry.from_entry(entry)
        assert compressed.n_bytes < entry.n_bytes

    def test_iter_and_len(self):
        entry = InvertedEntry(1, ((0, 1), (4, 2)))
        compressed = CompressedInvertedEntry.from_entry(entry)
        assert list(compressed) == [(0, 1), (4, 2)]
        assert len(compressed) == 2


class TestCompressedFile:
    @pytest.fixture(scope="class")
    def collection(self):
        return generate_collection(
            SyntheticSpec("zc", n_documents=120, avg_terms_per_doc=15,
                          vocabulary_size=300, seed=17)
        )

    def test_all_entries_roundtrip(self, collection):
        inverted = InvertedFile.build(collection)
        compressed = CompressedInvertedFile.from_inverted(inverted)
        assert compressed.n_terms == inverted.n_terms
        for entry in inverted:
            assert compressed.entry(entry.term).postings == entry.postings

    def test_compression_ratio_above_one(self, collection):
        inverted = InvertedFile.build(collection)
        compressed = CompressedInvertedFile.from_inverted(inverted)
        assert compressed.compression_ratio(inverted) > 1.5

    def test_lookup_api(self, collection):
        inverted = InvertedFile.build(collection)
        compressed = CompressedInvertedFile.from_inverted(inverted)
        term = inverted.entries[0].term
        assert term in compressed
        assert compressed.get(term) is not None
        assert compressed.get(10**9) is None
        with pytest.raises(InvertedFileError):
            compressed.entry(10**9)
        assert compressed.entry_index(term) == 0


class TestEnvironmentIntegration:
    @pytest.fixture(scope="class")
    def pair(self):
        c1 = generate_collection(
            SyntheticSpec("ci1", n_documents=100, avg_terms_per_doc=15,
                          vocabulary_size=400, seed=23)
        )
        c2 = generate_collection(
            SyntheticSpec("ci2", n_documents=80, avg_terms_per_doc=12,
                          vocabulary_size=400, seed=24)
        )
        return c1, c2

    def test_results_identical_with_compression(self, pair):
        c1, c2 = pair
        system = SystemParams(buffer_pages=24, page_bytes=512)
        plain_env = JoinEnvironment(c1, c2, PageGeometry(512))
        packed_env = JoinEnvironment(c1, c2, PageGeometry(512), codec="vbyte")
        spec = TextJoinSpec(lam=3)
        for runner in (run_hvnl, run_vvm):
            plain = runner(plain_env, spec, system)
            packed = runner(packed_env, spec, system)
            assert plain.same_matches_as(packed)

    def test_compression_reduces_measured_io(self, pair):
        c1, c2 = pair
        system = SystemParams(buffer_pages=24, page_bytes=512)
        plain_env = JoinEnvironment(c1, c2, PageGeometry(512))
        packed_env = JoinEnvironment(c1, c2, PageGeometry(512), codec="vbyte")
        spec = TextJoinSpec(lam=3)
        plain = run_vvm(plain_env, spec, system)
        packed = run_vvm(packed_env, spec, system)
        assert packed.io.total_reads < plain.io.total_reads

    def test_extent_size_shrinks(self, pair):
        c1, c2 = pair
        plain_env = JoinEnvironment(c1, c2, PageGeometry(512))
        packed_env = JoinEnvironment(c1, c2, PageGeometry(512), codec="vbyte")
        assert packed_env.inv1_extent.total_bytes < plain_env.inv1_extent.total_bytes


class TestCompressionAwareCostModel:
    def test_with_compressed_inverted_scales_j_and_i(self):
        from repro.index.stats import CollectionStats

        stats = CollectionStats("c", 1000, 100, 5000)
        packed = stats.with_compressed_inverted(2.5)
        assert packed.J == pytest.approx(stats.J / 2.5)
        assert packed.I == pytest.approx(stats.I / 2.5)
        assert packed.D == pytest.approx(stats.D)  # documents untouched
        assert packed.Bt == pytest.approx(stats.Bt)

    def test_rejects_ratio_below_one(self):
        from repro.errors import CostModelError
        from repro.index.stats import CollectionStats

        with pytest.raises(CostModelError):
            CollectionStats("c", 10, 10, 50).with_compressed_inverted(0.5)

    def test_model_predicts_compressed_vvm_measurement(self):
        """The adjusted statistics price the compressed executable run."""
        from repro.cost.params import JoinSide, QueryParams
        from repro.cost.vvm import vvm_cost
        from repro.index.stats import CollectionStats

        c1 = generate_collection(
            SyntheticSpec("cm1", n_documents=120, avg_terms_per_doc=16,
                          vocabulary_size=400, seed=88)
        )
        c2 = generate_collection(
            SyntheticSpec("cm2", n_documents=90, avg_terms_per_doc=14,
                          vocabulary_size=400, seed=89)
        )
        geometry = PageGeometry(512)
        system = SystemParams(buffer_pages=32, page_bytes=512)
        env = JoinEnvironment(c1, c2, geometry, codec="vbyte")

        # measure the true codec ratios and adjust the statistics
        stats1 = CollectionStats.from_collection(c1, geometry)
        stats2 = CollectionStats.from_collection(c2, geometry)
        ratio1 = stats1.I / geometry.fractional_pages(env.inv1_extent.total_bytes)
        ratio2 = stats2.I / geometry.fractional_pages(env.inv2_extent.total_bytes)
        side1 = JoinSide(stats1.with_compressed_inverted(ratio1))
        side2 = JoinSide(stats2.with_compressed_inverted(ratio2))

        predicted = vvm_cost(side1, side2, system, QueryParams(lam=3, delta=0.5))
        measured = run_vvm(env, TextJoinSpec(lam=3), system, delta=0.5)
        ratio = measured.weighted_cost(system.alpha) / predicted.sequential
        assert 0.7 < ratio < 1.4, ratio
