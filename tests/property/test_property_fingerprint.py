"""Property: an element's fingerprint fixes its future.

The model checker merges states whose fingerprints are equal, and the
prover compares hardware by fingerprint.  Both are sound only if two
elements with equal ``fingerprint()`` behave the same under every
continuation.  For each fingerprinted element kind, a history is drawn
and compared with its reversal, a reordering of it (which is where a
fingerprint that forgets replacement order goes wrong) and an
independent history.  Whenever two fingerprints are equal, one random
continuation must produce the same outcome sequence on both -- hit,
miss, victim and write-back for caches, hit and frame for the TLB,
prefetches for the prefetcher, predictions and mispredicts for the
branch predictor -- and the fingerprints must stay equal at every step.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.hardware.branch import BranchPredictor
from repro.hardware.cache import Cache, LatencyParams, ReplacementPolicy
from repro.hardware.geometry import CacheGeometry, TlbGeometry
from repro.hardware.prefetcher import StridePrefetcher
from repro.hardware.state import Instrumentation, Scope, StateCategory
from repro.hardware.tlb import Tlb

LINE = 32


def _cache_kind(policy, sets, ways, quotas):
    def make():
        cache = Cache(
            name="prop.cache",
            geometry=CacheGeometry(sets=sets, ways=ways, line_size=LINE),
            category=StateCategory.FLUSHABLE,
            scope=Scope.CORE_LOCAL,
            latency=LatencyParams(hit_cycles=4),
            page_size=256,
            policy=policy,
            instrumentation=Instrumentation(),
        )
        if quotas:
            cache.set_way_quotas(quotas)
        return cache

    def apply(cache, op):
        # Under quotas the filling context owns the line; "C" has no
        # quota, so its lines form the shared pool.
        owner, tag, set_index, write = op
        cache.instr.set_context(owner)
        result = cache.access((tag * sets + set_index) * LINE, write=write)
        return (result.hit, result.evicted_tag, result.dirty_writeback)

    ops = st.tuples(
        st.sampled_from("ABC"),
        st.integers(min_value=0, max_value=ways),
        st.integers(min_value=0, max_value=sets - 1),
        st.booleans(),
    )
    return make, ops, apply


def _tlb_kind():
    def make():
        return Tlb("prop.tlb", TlbGeometry(entries=3))

    def apply(tlb, op):
        # A translation as the core performs it: look up, fill on a miss.
        asid, vpage = op
        result = tlb.lookup(asid, vpage)
        if not result.hit:
            tlb.fill(asid, vpage, frame_number=asid * 16 + vpage,
                     writable=True, generation=0)
        return (result.hit, result.frame_number)

    ops = st.tuples(st.integers(min_value=1, max_value=2),
                    st.integers(min_value=0, max_value=2))
    return make, ops, apply


def _prefetcher_kind():
    def make():
        return StridePrefetcher("prop.pf", table_entries=2, region_bits=6)

    def apply(prefetcher, op):
        region, offset = op
        return tuple(prefetcher.observe((region << 6) + offset * 8))

    ops = st.tuples(st.integers(min_value=0, max_value=2),
                    st.integers(min_value=0, max_value=3))
    return make, ops, apply


def _branch_kind():
    def make():
        # Bimodal (no global history) with a two-entry BTB, so branches
        # share counters and the BTB evicts often.
        return BranchPredictor("prop.bp", table_bits=2, btb_entries=2,
                               history_bits=0)

    def apply(predictor, op):
        pc, taken, target = op
        result = predictor.predict_and_update(pc * 0x10, taken, target)
        return (result.predicted_taken, result.predicted_target,
                result.mispredicted)

    ops = st.tuples(st.integers(min_value=1, max_value=4), st.booleans(),
                    st.sampled_from((0x100, 0x200)))
    return make, ops, apply


#: Way quotas for the quota'd caches: one 4-way set, so that every
#: access competes for it.
QUOTAS = {"A": 2, "B": 1}

KINDS = {
    "cache-lru": _cache_kind(ReplacementPolicy.LRU, 2, 2, None),
    "cache-fifo": _cache_kind(ReplacementPolicy.FIFO, 2, 2, None),
    "cache-plru": _cache_kind(ReplacementPolicy.PLRU, 2, 2, None),
    "cache-lru-quotas": _cache_kind(ReplacementPolicy.LRU, 1, 4, QUOTAS),
    "cache-fifo-quotas": _cache_kind(ReplacementPolicy.FIFO, 1, 4, QUOTAS),
    "cache-plru-quotas": _cache_kind(ReplacementPolicy.PLRU, 1, 4, QUOTAS),
    "tlb": _tlb_kind(),
    "prefetcher": _prefetcher_kind(),
    "branch": _branch_kind(),
}


def _replay(make, apply, history):
    element = make()
    for op in history:
        apply(element, op)
    return element


def _future(make, apply, history, continuation):
    """The fingerprint after ``history``, then per continuation step
    its outcome and the fingerprint after it."""
    element = _replay(make, apply, history)
    fingerprint = element.fingerprint()
    outcomes, fingerprints = [], []
    for op in continuation:
        outcomes.append(apply(element, op))
        fingerprints.append(element.fingerprint())
    return fingerprint, outcomes, fingerprints


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_equal_fingerprints_have_equal_futures(kind, data):
    make, ops, apply = KINDS[kind]
    first = data.draw(st.lists(ops, max_size=6), label="first history")
    # The reversal and a reordering keep the same accesses in another
    # order; an independent history may reach the same state otherwise.
    others = [
        first[::-1],
        data.draw(st.permutations(first), label="reordered history"),
        data.draw(st.lists(ops, max_size=6), label="other history"),
    ]
    continuation = data.draw(st.lists(ops, min_size=1, max_size=8),
                             label="continuation")
    fingerprint, outcomes, fingerprints = _future(
        make, apply, first, continuation)
    for history in others:
        other_fingerprint, other_outcomes, other_fingerprints = _future(
            make, apply, history, continuation)
        if other_fingerprint == fingerprint:
            # Equal states behave alike, and stay equal step by step.
            assert other_outcomes == outcomes, history
            assert other_fingerprints == fingerprints, history


def test_fill_order_is_part_of_the_fingerprint():
    # The smallest case of the class: one 2-way LRU set filled A then B
    # and B then A.  The next miss evicts A in one and B in the other.
    make, _ops, apply = KINDS["cache-lru"]
    a = _replay(make, apply, [("A", 0, 0, False), ("A", 1, 0, False)])
    b = _replay(make, apply, [("A", 1, 0, False), ("A", 0, 0, False)])
    assert a.fingerprint() != b.fingerprint()
    assert apply(a, ("A", 2, 0, False)) != apply(b, ("A", 2, 0, False))


def test_plru_quota_victim_follows_fill_order():
    # Under way quotas a PLRU fill evicts the owner's oldest line by
    # stamp, not by tree bits.  Both histories leave [A3, A2] in ways 0
    # and 1 with equal tree bits, but A3 is the newer line in one and
    # the older in the other; the next fill by A evicts A2 or A3.
    make, _ops, apply = KINDS["cache-plru-quotas"]
    a = _replay(make, apply, [("A", 1, 0, False), ("A", 2, 0, False),
                              ("A", 3, 0, False), ("A", 2, 0, False)])
    b = _replay(make, apply, [("A", 3, 0, False), ("A", 2, 0, False)])
    assert [tag for tag, _dirty, _owner in a._sets[0]] == [3, 2]
    assert [tag for tag, _dirty, _owner in b._sets[0]] == [3, 2]
    assert a._plru_bits == b._plru_bits
    assert a.fingerprint() != b.fingerprint()
    assert apply(a, ("A", 4, 0, False)) != apply(b, ("A", 4, 0, False))


def test_fingerprint_memo_sees_a_reordering_hit():
    # An LRU read hit on a line other than the newest reorders the set
    # and nothing else; the memoised fingerprint and digest must change.
    make, _ops, apply = KINDS["cache-lru"]
    cache = _replay(make, apply, [("A", 0, 0, False), ("A", 1, 0, False)])
    before = (cache.cached_fingerprint(), cache.cached_digest())
    apply(cache, ("A", 0, 0, False))
    assert cache.cached_fingerprint() == cache.fingerprint()
    assert (cache.cached_fingerprint(), cache.cached_digest()) != before
