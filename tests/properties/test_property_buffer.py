"""Property-based tests: ObjectBuffer byte accounting never drifts.

The invariant under test is the one the re-insert bug violated:
``used_bytes`` must equal the sum of the resident objects' ``n_bytes``
after *any* interleaving of inserts, re-inserts with new sizes,
discards and lookups — and must never exceed the budget.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.storage.buffer import ObjectBuffer
from repro.storage.policies import (
    FIFOPolicy,
    LowestDocFrequencyPolicy,
    LRUPolicy,
    RandomPolicy,
)

keys = st.integers(min_value=0, max_value=9)

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            keys,
            st.integers(min_value=0, max_value=60),   # n_bytes
            st.floats(min_value=0.0, max_value=100.0,  # priority
                      allow_nan=False),
        ),
        st.tuples(st.just("discard"), keys),
        st.tuples(st.just("get"), keys),
    ),
    max_size=80,
)

policies = st.sampled_from([LRUPolicy, FIFOPolicy, LowestDocFrequencyPolicy])


def apply(buf: ObjectBuffer, ops) -> None:
    for op in ops:
        if op[0] == "insert":
            _, key, n_bytes, priority = op
            buf.insert(key, f"payload-{key}", n_bytes, priority)
        elif op[0] == "discard":
            buf.discard(op[1])
        else:
            buf.get(op[1])


class TestAccounting:
    @given(ops=operations, budget=st.integers(min_value=0, max_value=120),
           policy=policies)
    def test_used_bytes_equals_sum_of_resident_sizes(self, ops, budget, policy):
        buf = ObjectBuffer(budget, policy())
        apply(buf, ops)
        resident_total = sum(
            buf._resident[key].n_bytes for key in buf.keys()
        )
        assert buf.used_bytes == resident_total
        assert 0 <= buf.used_bytes <= buf.budget_bytes
        assert buf.free_bytes == buf.budget_bytes - buf.used_bytes

    @given(ops=operations, budget=st.integers(min_value=0, max_value=120),
           policy=policies)
    def test_resident_set_matches_policy_view(self, ops, budget, policy):
        # every resident key must be evictable: run the buffer empty and
        # check the policy can name a victim for each resident object
        buf = ObjectBuffer(budget, policy())
        apply(buf, ops)
        n = buf.n_resident
        buf.clear()
        assert buf.n_resident == 0
        assert buf.used_bytes == 0
        assert n >= 0


# --- model check: one eviction loop against one eviction per call -----------
#
# ``offer_run`` rides along: one probe round must equal the ``get``-then-
# ``insert`` sequence HVNL made per document before it was one call.


class ReferenceLDF(LowestDocFrequencyPolicy):
    """The paper's policy as it was: ``evicted`` leaves the heap alone and
    ``victim`` pops every stale top lazily."""

    def evicted(self, key):
        self._live.pop(key, None)


class ReferenceBuffer:
    """ObjectBuffer's accounting with one ``_evict_one`` call per victim."""

    def __init__(self, budget_bytes, policy):
        self.budget_bytes = budget_bytes
        self.policy = policy
        self.resident = {}
        self.used_bytes = 0
        self.hits = self.misses = self.evictions = self.rejected = 0

    def get(self, key):
        if key not in self.resident:
            self.misses += 1
            return None
        self.hits += 1
        self.policy.accessed(key)
        return self.resident[key][0]

    def insert(self, key, payload, n_bytes, priority=0.0):
        if key in self.resident:
            if n_bytes > self.budget_bytes:
                self.discard(key)
                self.rejected += 1
                return False
            self.used_bytes += n_bytes - self.resident[key][1]
            self.resident[key] = (payload, n_bytes)
            self.policy.evicted(key)
            self.policy.admitted(key, priority)
            while self.used_bytes > self.budget_bytes:
                self._evict_one()
            return key in self.resident
        if n_bytes > self.budget_bytes:
            self.rejected += 1
            return False
        while self.used_bytes + n_bytes > self.budget_bytes:
            self._evict_one()
        self.resident[key] = (payload, n_bytes)
        self.used_bytes += n_bytes
        self.policy.admitted(key, priority)
        return True

    def discard(self, key):
        if key not in self.resident:
            return False
        self.used_bytes -= self.resident.pop(key)[1]
        self.policy.evicted(key)
        return True

    def offer_run(self, keys, lookup):
        """The probe round as HVNL made it: every ``get``, then one
        ``insert`` per missing key its lookup prices."""
        hits, missing, rows = [], [], []
        for key in keys:
            payload = self.get(key)
            if payload is None:
                missing.append(key)
            else:
                hits.append(payload)
        for key in missing:
            row = lookup(key)
            if row is not None:
                rows.append(row)
                self.insert(key, row[0], row[1], row[2])
        return hits, rows

    def _evict_one(self):
        victim = self.policy.victim()
        self.used_bytes -= self.resident.pop(victim)[1]
        self.policy.evicted(victim)
        self.evictions += 1


class Recording:
    """Delegates to a policy and logs every victim it names."""

    def __init__(self, policy):
        self.policy = policy
        self.victims = []

    def admitted(self, key, priority):
        self.policy.admitted(key, priority)

    def accessed(self, key):
        self.policy.accessed(key)

    def evicted(self, key):
        self.policy.evicted(key)

    def victim(self):
        key = self.policy.victim()
        self.victims.append(key)
        return key

    def __len__(self):
        return len(self.policy)


#: name -> (policy under test, reference policy); Random shares one seed
MODEL_POLICIES = {
    "ldf": (LowestDocFrequencyPolicy, ReferenceLDF),
    "lru": (LRUPolicy, LRUPolicy),
    "fifo": (FIFOPolicy, FIFOPolicy),
    "random": (lambda: RandomPolicy(seed=3), lambda: RandomPolicy(seed=3)),
}

#: few keys and coarse sizes, so exact fits, re-offers and ties are common
model_keys = st.integers(min_value=0, max_value=5)
model_sizes = st.sampled_from([0, 10, 20, 30, 40, 60])
model_frequencies = st.integers(min_value=0, max_value=3)

model_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), model_keys, model_sizes, model_frequencies),
        st.tuples(st.just("discard"), model_keys),
        st.tuples(st.just("get"), model_keys),
        # re-offer a key with a grown size (a plain insert when absent)
        st.tuples(st.just("grow"), model_keys, st.sampled_from([10, 20, 40]), model_frequencies),
        st.tuples(st.just("oversize"), model_keys, st.integers(1, 20)),
        # one probe round: the keys, and per key no entry or (size, frequency)
        st.tuples(
            st.just("offer"),
            st.lists(model_keys, unique=True, max_size=5),
            st.dictionaries(
                model_keys,
                st.one_of(
                    st.none(),
                    st.tuples(
                        st.one_of(model_sizes, st.just("oversize")), model_frequencies
                    ),
                ),
            ),
        ),
    ),
    max_size=80,
)


def play(buf, ops, size_of):
    results = []
    for op in ops:
        kind, key = op[0], op[1]
        if kind == "insert":
            results.append(buf.insert(key, f"p{key}", op[2], op[3]))
        elif kind == "grow":
            results.append(buf.insert(key, f"g{key}", size_of(key) + op[2], op[3]))
        elif kind == "oversize":
            results.append(buf.insert(key, f"o{key}", buf.budget_bytes + op[2]))
        elif kind == "offer":
            table = {}
            for term, row in op[2].items():
                if row is not None:
                    size = buf.budget_bytes + 1 if row[0] == "oversize" else row[0]
                    row = (f"f{term}", size, row[1])
                table[term] = row
            results.append(buf.offer_run(key, table.get))
        elif kind == "discard":
            results.append(buf.discard(key))
        else:
            results.append(buf.get(key))
    return results


class TestEvictionModel:
    @given(
        ops=model_operations,
        budget=st.sampled_from([0, 30, 40, 60, 100]),
        policy=st.sampled_from(sorted(MODEL_POLICIES)),
    )
    def test_matches_one_eviction_per_call(self, ops, budget, policy):
        make, make_reference = MODEL_POLICIES[policy]
        tested = Recording(make())
        buf = ObjectBuffer(budget, tested)
        modelled = Recording(make_reference())
        ref = ReferenceBuffer(budget, modelled)

        def buffered_size(key):
            return buf._resident[key].n_bytes if key in buf else 0

        def reference_size(key):
            return ref.resident[key][1] if key in ref.resident else 0

        assert play(buf, ops, buffered_size) == play(ref, ops, reference_size)
        assert tested.victims == modelled.victims
        assert (buf.hits, buf.misses, buf.evictions, buf.rejected) == (
            ref.hits,
            ref.misses,
            ref.evictions,
            ref.rejected,
        )
        assert buf.used_bytes == ref.used_bytes
        assert {key: buf.peek(key) for key in buf.keys()} == {
            key: payload for key, (payload, _) in ref.resident.items()
        }
