"""Property: order-kept caches and TLBs match the stamp-based reference.

``Cache`` keeps each set as a list in replacement order and ``Tlb`` keeps
its entries in an insertion-ordered dict in recency order.  The compact
reference models below keep the older representation instead: lines
stay in their ways and carry the tick of their last use (LRU) or fill
(FIFO, PLRU), entries carry a stamp, and victims and fingerprint order
are read off the stamps.  Random operation sequences replay on both,
and after every operation the two must agree on the access outcome,
the fingerprint, what a flush would return and leave, and the resident
tags and lines.  The memoised fingerprint and digest must equal freshly
computed ones (the memo keys on the mutation version alone), digests
must be equal exactly when fingerprints are, and a clone and its parent
must each follow their own reference after they diverge.
"""

import copy

from hypothesis import given, settings, strategies as st

import pytest

from repro.hardware.cache import Cache, LatencyParams, ReplacementPolicy
from repro.hardware.geometry import CacheGeometry, TlbGeometry
from repro.hardware.state import Instrumentation, Scope, StateCategory
from repro.hardware.tlb import Tlb

LRU, FIFO, PLRU = ReplacementPolicy.LRU, ReplacementPolicy.FIFO, ReplacementPolicy.PLRU
SETS, WAYS, LINE = 2, 4, 32
#: Quotas that fill the associativity, so a fill by "Mid" (no quota)
#: into a set of quota'd lines takes the over-commit path.
QUOTAS = {"Hi": 2, "Lo": 1, "@kernel": 1}
#: Contexts as the kernel sets them: a domain's user and kernel modes
#: and the switch path, whose fills charge "@kernel".  The names are
#: longer than one character, which CPython would share as one object.
CONTEXTS = ("Hi", "Hi/kernel", "Lo", "Mid", "@switch:Hi>Lo")
FLUSH_BASE, WRITEBACK = 8, 6


class _Line:
    __slots__ = ("tag", "dirty", "stamp", "owner")

    def __init__(self, tag, dirty, stamp, owner):
        self.tag, self.dirty, self.stamp, self.owner = tag, dirty, stamp, owner


class RefCache:
    """The stamp-based cache: lines in ways, order read off stamps."""

    def __init__(self, policy, broken, quotas):
        self.policy, self.broken = policy, broken
        self.sets = [[] for _ in range(SETS)]
        self.bits = [0] * SETS
        self.tick = 0
        self.quotas = dict(quotas or {})
        self.context = None

    def _oldest(self, lines, ways):
        return min(ways, key=lambda way: lines[way].stamp)

    def _plru_victim(self, s):
        node = 1
        while node < WAYS:
            node = 2 * node + ((self.bits[s] >> node) & 1)
        return node - WAYS

    def _point_away(self, s, way):
        node, depth, bits = 1, WAYS.bit_length() - 2, self.bits[s]
        while node < WAYS:
            direction = (way >> depth) & 1
            bits = bits & ~(1 << node) if direction else bits | (1 << node)
            node, depth = 2 * node + direction, depth - 1
        self.bits[s] = bits

    def _select(self, s, lines):
        if self.policy is PLRU:
            return self._plru_victim(s)
        return self._oldest(lines, range(len(lines)))

    def _owner(self):
        if self.context is None:
            return None
        if self.context.startswith("@switch"):
            return "@kernel"
        return self.context.partition("/")[0]

    def _fill_victim(self, s, lines, owner):
        quota = self.quotas.get(owner) if owner is not None else None
        own = [way for way, line in enumerate(lines) if line.owner == owner]
        if quota is not None and len(own) >= quota:
            return self._oldest(lines, own)
        if len(lines) < WAYS:
            return None
        shared = [way for way, line in enumerate(lines)
                  if line.owner is None or line.owner not in self.quotas]
        if shared:
            return self._oldest(lines, shared)
        if own:
            return self._oldest(lines, own)
        return self._select(s, lines)

    def access(self, s, tag, write):
        lines = self.sets[s]
        self.tick += 1
        for way, line in enumerate(lines):
            if line.tag == tag:
                if self.policy is LRU:
                    line.stamp = self.tick
                if self.policy is PLRU:
                    self._point_away(s, way)
                line.dirty = line.dirty or write
                return (True, None, False)
        if self.quotas:
            owner = self._owner()
            victim = self._fill_victim(s, lines, owner)
        else:
            owner = None
            victim = self._select(s, lines) if len(lines) >= WAYS else None
        new = _Line(tag, write, self.tick, owner)
        if victim is None:
            lines.append(new)
            way, outcome = len(lines) - 1, (False, None, False)
        else:
            old = lines[victim]
            lines[victim] = new
            way, outcome = victim, (False, old.tag, old.dirty)
        if self.policy is PLRU:
            self._point_away(s, way)
        return outcome

    def invalidate(self, s, tag):
        for line in self.sets[s]:
            if line.tag == tag:
                self.sets[s].remove(line)
                return True
        return False

    def flush(self):
        dirty = sum(1 for lines in self.sets for line in lines if line.dirty)
        if self.broken:
            for s, lines in enumerate(self.sets):
                if s % 4:
                    self.sets[s] = []
                for line in lines:
                    line.dirty = False
        else:
            self.sets = [[] for _ in range(SETS)]
            self.bits = [0] * SETS
        return (FLUSH_BASE + dirty * WRITEBACK, dirty)

    def fingerprint(self):
        by_way = self.policy is PLRU
        occupancy = []
        for s, lines in enumerate(self.sets):
            if lines:
                ordered = lines if by_way else sorted(lines, key=lambda l: l.stamp)
                entry = tuple((l.tag, l.dirty, l.owner) for l in ordered)
                if by_way and self.quotas:
                    entry = (entry, tuple(sorted(
                        range(len(lines)), key=lambda way: lines[way].stamp)))
                occupancy.append((s, entry))
        plru = tuple((s, bits) for s, bits in enumerate(self.bits) if bits)
        return (tuple(occupancy), plru)

    def resident_tags(self, s):
        return tuple(sorted(line.tag for line in self.sets[s]))

    def resident_lines(self, s):
        return tuple(sorted(
            (line.tag, line.owner if line.owner is not None else "@shared")
            for line in self.sets[s]))


class RefTlb:
    """The stamp-based TLB: LRU by per-entry stamps."""

    def __init__(self, size):
        self.size, self.entries, self.tick = size, {}, 0

    def lookup(self, asid, vpage):
        self.tick += 1
        entry = self.entries.get((asid, vpage))
        if entry is None:
            return (False, None, True)
        entry[4] = self.tick
        return (True, entry[2], entry[3])

    def fill(self, asid, vpage, frame, writable):
        self.tick += 1
        if len(self.entries) >= self.size:
            victim = min(self.entries, key=lambda key: self.entries[key][4])
            del self.entries[victim]
        self.entries[(asid, vpage)] = [asid, vpage, frame, writable, self.tick]

    def invalidate_asid(self, asid):
        victims = [key for key in self.entries if key[0] == asid]
        for key in victims:
            del self.entries[key]
        return len(victims)

    def invalidate_page(self, asid, vpage):
        return self.entries.pop((asid, vpage), None) is not None

    def flush(self):
        self.entries.clear()

    def fingerprint(self):
        return tuple(tuple(entry[:4]) for entry in
                     sorted(self.entries.values(), key=lambda e: e[4]))

    def keys_for_asid(self, asid):
        return sorted(vpage for (a, vpage) in self.entries if a == asid)


def _fresh(element):
    """A copy with empty memos: its cached values are computed anew."""
    other = element.clone_for_mc(Instrumentation())
    other._fp_cache = other._fp_digest = None
    return other


def _check_memos(element):
    """Memoised fingerprint and digest equal freshly computed ones."""
    assert element.cached_fingerprint() == element.fingerprint()
    assert element.cached_digest() == _fresh(element).cached_digest()
    return (element.fingerprint(), element.cached_digest())


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------


def _make_cache(policy, broken, quotas):
    cache = Cache(
        name="prop.cache",
        geometry=CacheGeometry(sets=SETS, ways=WAYS, line_size=LINE),
        category=StateCategory.FLUSHABLE,
        scope=Scope.CORE_LOCAL,
        latency=LatencyParams(hit_cycles=4, flush_base_cycles=FLUSH_BASE,
                              writeback_cycles_per_line=WRITEBACK),
        page_size=256,
        policy=policy,
        instrumentation=Instrumentation(),
        flush_is_broken=broken,
    )
    if quotas:
        cache.set_way_quotas(quotas)
    return cache, RefCache(policy, broken, quotas)


_cache_ops = st.one_of(
    st.tuples(st.just("access"), st.sampled_from(CONTEXTS),
              st.integers(0, 5), st.integers(0, SETS - 1), st.booleans()),
    st.tuples(st.just("access"), st.sampled_from(CONTEXTS),
              st.integers(0, 5), st.integers(0, SETS - 1), st.booleans()),
    st.tuples(st.just("access"), st.sampled_from(CONTEXTS),
              st.integers(0, 5), st.integers(0, SETS - 1), st.booleans()),
    st.tuples(st.just("invalidate"), st.integers(0, 5),
              st.integers(0, SETS - 1)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("quotas")),
)


def _cache_step(cache, ref, op):
    """Apply ``op`` to both and check that they agree afterwards."""
    kind = op[0]
    if kind == "access":
        _, context, tag, set_index, write = op
        cache.instr.set_context(context)
        ref.context = context
        result = cache.access((tag * SETS + set_index) * LINE, write=write)
        assert (result.hit, result.evicted_tag, result.dirty_writeback) == (
            ref.access(set_index, tag, write))
        assert result.set_index == set_index
    elif kind == "invalidate":
        _, tag, set_index = op
        assert cache.invalidate_line((tag * SETS + set_index) * LINE) == (
            ref.invalidate(set_index, tag))
    elif kind == "flush":
        flushed = cache.flush()
        assert (flushed.cycles, flushed.lines_written_back) == ref.flush()
    else:
        cache.set_way_quotas(QUOTAS)
        ref.quotas = dict(QUOTAS)
    assert cache.fingerprint() == ref.fingerprint()
    for set_index in range(SETS):
        assert cache.resident_tags(set_index) == ref.resident_tags(set_index)
        assert cache.resident_lines(set_index) == ref.resident_lines(set_index)
        assert cache.occupancy(set_index) == len(ref.sets[set_index])
    # What a flush would return and leave, on a copy of each.
    probe, ref_probe = _fresh(cache), copy.deepcopy(ref)
    flushed = probe.flush()
    assert (flushed.cycles, flushed.lines_written_back) == ref_probe.flush()
    assert probe.fingerprint() == ref_probe.fingerprint()
    return _check_memos(cache)


def _assert_digests_match_fingerprints(states):
    for fingerprint, digest in states:
        for other_fingerprint, other_digest in states:
            assert (fingerprint == other_fingerprint) == (digest == other_digest)


CACHE_KINDS = [
    (policy, quotas)
    for policy in (LRU, FIFO, PLRU)
    for quotas in (None, QUOTAS)
]


@pytest.mark.parametrize(
    "policy,quotas", CACHE_KINDS,
    ids=[f"{p.value}-{'quotas' if q else 'free'}" for p, q in CACHE_KINDS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cache_matches_the_stamp_reference(policy, quotas, data):
    broken = data.draw(st.booleans(), label="flush_is_broken")
    histories = [
        data.draw(st.lists(_cache_ops, max_size=24), label="history"),
        data.draw(st.lists(_cache_ops, max_size=24), label="other history"),
    ]
    states = []
    for history in histories:
        cache, ref = _make_cache(policy, broken, quotas)
        states.append(_check_memos(cache))
        for op in history:
            states.append(_cache_step(cache, ref, op))
    _assert_digests_match_fingerprints(states)


@pytest.mark.parametrize(
    "policy,quotas", CACHE_KINDS,
    ids=[f"{p.value}-{'quotas' if q else 'free'}" for p, q in CACHE_KINDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cache_clone_and_parent_stay_isolated(policy, quotas, data):
    broken = data.draw(st.booleans(), label="flush_is_broken")
    history = data.draw(st.lists(_cache_ops, max_size=16), label="history")
    parent, ref = _make_cache(policy, broken, quotas)
    for op in history:
        _cache_step(parent, ref, op)
    clone = parent.clone_for_mc(Instrumentation())
    clone_ref = copy.deepcopy(ref)
    steps = data.draw(st.lists(st.tuples(st.booleans(), _cache_ops),
                               min_size=1, max_size=16), label="diverging")
    for on_clone, op in steps:
        if on_clone:
            _cache_step(clone, clone_ref, op)
        else:
            _cache_step(parent, ref, op)
        # The other side has not moved.
        assert parent.fingerprint() == ref.fingerprint()
        assert clone.fingerprint() == clone_ref.fingerprint()
        _check_memos(parent)
        _check_memos(clone)


def test_owners_from_user_and_kernel_contexts_digest_alike():
    # A domain's user context is its name and its kernel context
    # "<name>/kernel"; both charge the same owner.  Two sets holding the
    # same lines with the same owners must digest equal whichever mode
    # filled them.
    user, kernel = _make_cache(LRU, False, QUOTAS)[0], _make_cache(LRU, False, QUOTAS)[0]
    for cache, contexts in ((user, ("Hi", "Hi")), (kernel, ("Hi", "Hi/kernel"))):
        for tag, context in zip((1, 2), contexts):
            cache.instr.set_context(context)
            cache.access(tag * SETS * LINE)
    assert user.fingerprint() == kernel.fingerprint()
    assert user.cached_digest() == kernel.cached_digest()


def test_set_way_quotas_invalidates_the_fingerprint_memo():
    # Under PLRU, quotas add each set's fill order to the fingerprint, so
    # a fingerprint memoised before they are installed is stale after.
    cache, _ref = _make_cache(PLRU, False, None)
    for tag in (1, 2):
        cache.access(tag * SETS * LINE)
    before = (cache.cached_fingerprint(), cache.cached_digest())
    cache.set_way_quotas(QUOTAS)
    assert cache.cached_fingerprint() == cache.fingerprint() != before[0]
    assert cache.cached_digest() == _fresh(cache).cached_digest() != before[1]


# ----------------------------------------------------------------------
# TLB
# ----------------------------------------------------------------------

TLB_ENTRIES = 3

_tlb_ops = st.one_of(
    st.tuples(st.just("translate"), st.integers(1, 2), st.integers(0, 3)),
    st.tuples(st.just("translate"), st.integers(1, 2), st.integers(0, 3)),
    st.tuples(st.just("translate"), st.integers(1, 2), st.integers(0, 3)),
    st.tuples(st.just("refill"), st.integers(1, 2), st.integers(0, 3),
              st.booleans()),
    st.tuples(st.just("invalidate_asid"), st.integers(1, 2)),
    st.tuples(st.just("invalidate_page"), st.integers(1, 2),
              st.integers(0, 3)),
    st.tuples(st.just("flush")),
)


def _tlb_step(tlb, ref, op):
    kind = op[0]
    if kind == "translate":
        # As the core translates: look up, fill on a miss.
        _, asid, vpage = op
        result = tlb.lookup(asid, vpage)
        assert (result.hit, result.frame_number, result.writable) == (
            ref.lookup(asid, vpage))
        if not result.hit:
            tlb.fill(asid, vpage, asid * 16 + vpage, True, generation=0)
            ref.fill(asid, vpage, asid * 16 + vpage, True)
    elif kind == "refill":
        _, asid, vpage, writable = op
        tlb.fill(asid, vpage, asid * 16 + vpage + 8, writable, generation=1)
        ref.fill(asid, vpage, asid * 16 + vpage + 8, writable)
    elif kind == "invalidate_asid":
        assert tlb.invalidate_asid(op[1]) == ref.invalidate_asid(op[1])
    elif kind == "invalidate_page":
        assert tlb.invalidate_page(op[1], op[2]) == (
            ref.invalidate_page(op[1], op[2]))
    else:
        tlb.flush()
        ref.flush()
    assert tlb.fingerprint() == ref.fingerprint()
    for asid in (1, 2):
        assert sorted(tlb.entries_for_asid(asid)) == ref.keys_for_asid(asid)
    return _check_memos(tlb)


def _make_tlb():
    return Tlb("prop.tlb", TlbGeometry(entries=TLB_ENTRIES)), RefTlb(TLB_ENTRIES)


@settings(max_examples=150, deadline=None)
@given(histories=st.lists(st.lists(_tlb_ops, max_size=24),
                          min_size=2, max_size=2))
def test_tlb_matches_the_stamp_reference(histories):
    states = []
    for history in histories:
        tlb, ref = _make_tlb()
        states.append(_check_memos(tlb))
        for op in history:
            states.append(_tlb_step(tlb, ref, op))
    _assert_digests_match_fingerprints(states)


@settings(max_examples=100, deadline=None)
@given(history=st.lists(_tlb_ops, max_size=16),
       steps=st.lists(st.tuples(st.booleans(), _tlb_ops),
                      min_size=1, max_size=16))
def test_tlb_clone_and_parent_stay_isolated(history, steps):
    parent, ref = _make_tlb()
    for op in history:
        _tlb_step(parent, ref, op)
    clone = parent.clone_for_mc(Instrumentation())
    clone_ref = copy.deepcopy(ref)
    for on_clone, op in steps:
        if on_clone:
            _tlb_step(clone, clone_ref, op)
        else:
            _tlb_step(parent, ref, op)
        assert parent.fingerprint() == ref.fingerprint()
        assert clone.fingerprint() == clone_ref.fingerprint()
