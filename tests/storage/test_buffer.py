"""The budgeted object buffer HVNL caches inverted entries in."""

import pytest

from repro.errors import StorageError
from repro.storage.buffer import ObjectBuffer
from repro.storage.policies import LowestDocFrequencyPolicy, LRUPolicy


def make_buffer(budget=100, policy=None):
    return ObjectBuffer(budget, policy or LRUPolicy())


class TestInsertAndGet:
    def test_roundtrip(self):
        buf = make_buffer()
        assert buf.insert("t1", "entry1", 40)
        assert buf.get("t1") == "entry1"
        assert buf.hits == 1

    def test_miss_counts(self):
        buf = make_buffer()
        assert buf.get("absent") is None
        assert buf.misses == 1

    def test_peek_does_not_touch_counters(self):
        buf = make_buffer()
        buf.insert("t1", "x", 10)
        assert buf.peek("t1") == "x"
        assert buf.peek("nope") is None
        assert buf.hits == 0 and buf.misses == 0

    def test_reinsert_same_size_keeps_accounting(self):
        buf = make_buffer()
        buf.insert("t1", "x", 10)
        assert buf.insert("t1", "x", 10)
        assert buf.used_bytes == 10

    def test_exact_fit_insert(self):
        buf = make_buffer(budget=100)
        assert buf.insert("full", "F", 100)
        assert buf.used_bytes == 100
        assert buf.free_bytes == 0
        assert buf.evictions == 0 and buf.rejected == 0

    def test_contains(self):
        buf = make_buffer()
        buf.insert("t1", "x", 10)
        assert "t1" in buf
        assert "t2" not in buf

    def test_rejects_negative_size(self):
        with pytest.raises(StorageError):
            make_buffer().insert("x", "p", -1)

    def test_rejects_negative_budget(self):
        with pytest.raises(StorageError):
            ObjectBuffer(-1, LRUPolicy())


class TestEviction:
    def test_evicts_to_fit(self):
        buf = make_buffer(budget=100)
        buf.insert("a", "A", 60)
        buf.insert("b", "B", 60)  # must evict a
        assert "a" not in buf
        assert "b" in buf
        assert buf.evictions == 1

    def test_evicts_multiple_if_needed(self):
        buf = make_buffer(budget=100)
        buf.insert("a", "A", 40)
        buf.insert("b", "B", 40)
        buf.insert("c", "C", 90)  # must evict both
        assert buf.n_resident == 1
        assert buf.evictions == 2

    def test_oversized_object_rejected_not_evicting(self):
        buf = make_buffer(budget=100)
        buf.insert("a", "A", 50)
        assert not buf.insert("huge", "H", 200)
        assert "a" in buf  # nothing evicted for a hopeless insert
        assert buf.rejected == 1

    def test_paper_policy_evicts_lowest_df(self):
        buf = ObjectBuffer(100, LowestDocFrequencyPolicy())
        buf.insert("rare", "R", 50, priority=1)
        buf.insert("common", "C", 50, priority=99)
        buf.insert("new", "N", 50, priority=10)
        assert "rare" not in buf
        assert "common" in buf

    def test_used_and_free_bytes(self):
        buf = make_buffer(budget=100)
        buf.insert("a", "A", 30)
        assert buf.used_bytes == 30
        assert buf.free_bytes == 70


class TestResidentUpdate:
    """Re-offering a resident key refreshes payload, size and priority."""

    def test_payload_refreshed(self):
        buf = make_buffer()
        buf.insert("t1", "stale", 10)
        assert buf.insert("t1", "fresh", 10)
        assert buf.peek("t1") == "fresh"

    def test_grow_adjusts_used_bytes(self):
        buf = make_buffer(budget=100)
        buf.insert("t1", "x", 10)
        assert buf.insert("t1", "xx", 35)
        assert buf.used_bytes == 35

    def test_shrink_adjusts_used_bytes(self):
        buf = make_buffer(budget=100)
        buf.insert("t1", "xx", 40)
        assert buf.insert("t1", "x", 15)
        assert buf.used_bytes == 15
        assert buf.free_bytes == 85

    def test_growth_overflow_evicts_other_objects(self):
        buf = make_buffer(budget=100)
        buf.insert("old", "O", 50)
        buf.insert("grows", "g", 40)
        # growing 'grows' to 80 overflows; LRU evicts 'old'
        assert buf.insert("grows", "G", 80)
        assert "old" not in buf
        assert buf.used_bytes == 80
        assert buf.evictions == 1

    def test_growth_may_evict_the_updated_object_itself(self):
        # With LRU the refreshed key becomes most-recent, so eviction
        # lands elsewhere first — but a policy preferring the updated key
        # may evict it; insert's return value reports residency honestly.
        buf = ObjectBuffer(100, LowestDocFrequencyPolicy())
        buf.insert("common", "C", 50, priority=99)
        buf.insert("rare", "r", 40, priority=1)
        assert not buf.insert("rare", "R", 80, priority=1)
        assert "rare" not in buf
        assert "common" in buf
        assert buf.used_bytes == 50

    def test_update_to_oversized_drops_and_rejects(self):
        buf = make_buffer(budget=100)
        buf.insert("t1", "x", 10)
        assert not buf.insert("t1", "huge", 200)
        assert "t1" not in buf
        assert buf.used_bytes == 0
        assert buf.rejected == 1

    def test_update_refreshes_replacement_priority(self):
        buf = ObjectBuffer(100, LowestDocFrequencyPolicy())
        buf.insert("a", "A", 50, priority=1)
        buf.insert("b", "B", 50, priority=10)
        # 'a' was the lowest-df victim candidate; refresh makes it safe
        buf.insert("a", "A2", 50, priority=999)
        buf.insert("c", "C", 50, priority=20)  # must evict someone
        assert "a" in buf
        assert "b" not in buf

    def test_exact_fit_update(self):
        buf = make_buffer(budget=100)
        buf.insert("t1", "x", 60)
        assert buf.insert("t1", "X", 100)
        assert buf.used_bytes == 100
        assert buf.n_resident == 1


class TestOfferRun:
    def test_every_lookup_precedes_every_admission(self):
        buf = make_buffer(budget=20)
        buf.insert("b", "pb", 10)
        buf.insert("c", "pc", 10)  # full: admitting "a" evicts the LRU key
        hits, rows = buf.offer_run(["a", "b", "c"], {"a": ("pa", 10, 0)}.get)
        assert hits == ["pb", "pc"]  # "a" was admitted after both hit
        assert rows == [("pa", 10, 0)]
        assert (buf.hits, buf.misses, buf.evictions) == (2, 1, 1)
        assert sorted(buf.keys()) == ["a", "c"]

    def test_unpriced_and_oversize_misses(self):
        buf = make_buffer(budget=20)
        table = {"big": ("pbig", 30, 0), "none": None}
        hits, rows = buf.offer_run(["big", "none", "gone"], table.get)
        assert hits == [] and rows == [("pbig", 30, 0)]
        assert (buf.misses, buf.rejected, buf.n_resident) == (3, 1, 0)


class TestDiscardAndClear:
    def test_discard(self):
        buf = make_buffer()
        buf.insert("a", "A", 10)
        assert buf.discard("a")
        assert "a" not in buf
        assert buf.used_bytes == 0
        assert buf.evictions == 0  # explicit drop, not an eviction

    def test_discard_absent(self):
        assert not make_buffer().discard("ghost")

    def test_clear(self):
        buf = make_buffer()
        buf.insert("a", "A", 10)
        buf.insert("b", "B", 10)
        buf.clear()
        assert len(buf) == 0
        assert buf.used_bytes == 0


class TestHitRate:
    def test_zero_lookups(self):
        assert make_buffer().hit_rate == 0.0

    def test_mixed_lookups(self):
        buf = make_buffer()
        buf.insert("a", "A", 10)
        buf.get("a")
        buf.get("a")
        buf.get("missing")
        assert buf.hit_rate == pytest.approx(2 / 3)

    def test_zero_budget_buffer_caches_nothing_but_zero_size(self):
        buf = make_buffer(budget=0)
        assert not buf.insert("a", "A", 1)
        assert buf.insert("empty", "E", 0)
