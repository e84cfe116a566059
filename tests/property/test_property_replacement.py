"""Property-based tests over replacement policies and colour arithmetic.

The fast-path work specialises the LRU hit loop and precomputes the
address-slicing masks, so these properties pin down exactly the
behaviour those optimisations must preserve: who gets evicted under
each policy, and that slicing/colour arithmetic is a lossless
partition of the address space.
"""

from hypothesis import given, settings, strategies as st

from repro.hardware.cache import Cache, LatencyParams, ReplacementPolicy
from repro.hardware.geometry import CacheGeometry, colour_of_frame
from repro.hardware.state import Scope, StateCategory


def make_cache(sets=4, ways=4, policy=ReplacementPolicy.LRU):
    return Cache(
        name="prop.cache",
        geometry=CacheGeometry(sets=sets, ways=ways, line_size=32),
        category=StateCategory.FLUSHABLE,
        scope=Scope.CORE_LOCAL,
        latency=LatencyParams(hit_cycles=4),
        page_size=256,
        policy=policy,
    )


addresses = st.integers(min_value=0, max_value=0x3FFF)
access_sequences = st.lists(
    st.tuples(addresses, st.booleans()), min_size=1, max_size=150
)
policies = st.sampled_from(list(ReplacementPolicy))


class TestEvictionVictims:
    @given(access_sequences, policies)
    @settings(max_examples=60, deadline=None)
    def test_victim_was_resident_and_is_gone(self, sequence, policy):
        """Every evicted tag was resident before the access and not after."""
        cache = make_cache(policy=policy)
        for address, write in sequence:
            tag = cache.geometry.tag(address)
            set_index = cache.geometry.set_index(address)
            before = cache.resident_tags(set_index)
            result = cache.access(address, write=write)
            if result.evicted_tag is not None:
                assert result.evicted_tag in before
                assert result.evicted_tag != tag
                after = cache.resident_tags(set_index)
                assert result.evicted_tag not in after
                assert tag in after

    @given(access_sequences, policies)
    @settings(max_examples=60, deadline=None)
    def test_eviction_only_from_full_sets(self, sequence, policy):
        """A fill evicts iff its set is already at full associativity."""
        cache = make_cache(policy=policy)
        for address, write in sequence:
            set_index = cache.geometry.set_index(address)
            occupancy_before = cache.occupancy(set_index)
            result = cache.access(address, write=write)
            if not result.hit:
                evicted = result.evicted_tag is not None
                assert evicted == (occupancy_before == cache.geometry.ways)

    @given(access_sequences)
    @settings(max_examples=60, deadline=None)
    def test_lru_evicts_least_recently_used(self, sequence):
        """LRU's victim is the tag untouched for the longest time."""
        cache = make_cache(policy=ReplacementPolicy.LRU)
        recency = {}  # (set_index, tag) -> last-use sequence number
        for step, (address, write) in enumerate(sequence):
            tag = cache.geometry.tag(address)
            set_index = cache.geometry.set_index(address)
            result = cache.access(address, write=write)
            if result.evicted_tag is not None:
                resident = [
                    t
                    for (s, t) in recency
                    if s == set_index and t != tag
                ]
                oldest = min(resident, key=lambda t: recency[(set_index, t)])
                assert result.evicted_tag == oldest
                del recency[(set_index, result.evicted_tag)]
            recency[(set_index, tag)] = step

    @given(access_sequences)
    @settings(max_examples=60, deadline=None)
    def test_fifo_evicts_oldest_fill(self, sequence):
        """FIFO's victim is the earliest-filled tag; hits never refresh."""
        cache = make_cache(policy=ReplacementPolicy.FIFO)
        fill_order = {}  # (set_index, tag) -> fill sequence number
        for step, (address, write) in enumerate(sequence):
            tag = cache.geometry.tag(address)
            set_index = cache.geometry.set_index(address)
            result = cache.access(address, write=write)
            if result.hit:
                continue  # a hit must not change the fill order
            if result.evicted_tag is not None:
                resident = [t for (s, t) in fill_order if s == set_index]
                oldest = min(
                    resident, key=lambda t: fill_order[(set_index, t)]
                )
                assert result.evicted_tag == oldest
                del fill_order[(set_index, result.evicted_tag)]
            fill_order[(set_index, tag)] = step

    @given(access_sequences)
    @settings(max_examples=60, deadline=None)
    def test_plru_never_evicts_the_just_touched_line(self, sequence):
        """Tree-PLRU's next victim is never the most recently used way."""
        cache = make_cache(policy=ReplacementPolicy.PLRU)
        for address, write in sequence:
            tag = cache.geometry.tag(address)
            set_index = cache.geometry.set_index(address)
            cache.access(address, write=write)
            if cache.occupancy(set_index) == cache.geometry.ways:
                victim_way = cache._plru_victim(set_index)
                assert 0 <= victim_way < cache.geometry.ways
                victim_tag, _dirty, _owner = cache._sets[set_index][victim_way]
                assert victim_tag != tag


class TestGeometryRoundTrips:
    geometries = st.builds(
        CacheGeometry,
        sets=st.sampled_from([1, 4, 8, 64, 256]),
        ways=st.integers(min_value=1, max_value=16),
        line_size=st.sampled_from([16, 32, 64]),
    )

    @given(geometries, addresses)
    def test_slicing_is_lossless_up_to_line_offset(self, geometry, paddr):
        """(tag, set_index) reassemble to exactly the line address."""
        rebuilt = (
            (geometry.tag(paddr) << geometry.index_bits)
            | geometry.set_index(paddr)
        ) << geometry.offset_bits
        assert rebuilt == geometry.line_address(paddr)
        assert 0 <= paddr - rebuilt < geometry.line_size

    @given(geometries, addresses)
    def test_mask_slicing_matches_method_slicing(self, geometry, paddr):
        """The precomputed masks agree with the arithmetic definition."""
        assert geometry.set_index(paddr) == (
            paddr // geometry.line_size
        ) % geometry.sets
        assert geometry.tag(paddr) == paddr // (
            geometry.line_size * geometry.sets
        )
        assert geometry.line_address(paddr) == (
            paddr // geometry.line_size
        ) * geometry.line_size

    @given(
        st.sampled_from([64, 256]),  # page sizes
        st.integers(min_value=0, max_value=4_000),
    )
    def test_frame_and_paddr_colours_agree(self, page_size, frame):
        """colour_of_frame matches colour_of_paddr for every page offset."""
        geometry = CacheGeometry(sets=64, ways=8, line_size=32)
        n = geometry.n_colours(page_size)
        expected = colour_of_frame(frame, n)
        for offset in (0, page_size // 2, page_size - 1):
            paddr = frame * page_size + offset
            assert geometry.colour_of_paddr(paddr, page_size) == expected

    @given(st.sampled_from([32, 64, 128, 256, 512, 2048, 4096]))
    def test_colour_partition_is_exact(self, page_size):
        """Colours partition the sets into equal consecutive runs."""
        geometry = CacheGeometry(sets=64, ways=8, line_size=32)
        n = geometry.n_colours(page_size)
        per_colour = geometry.sets_per_colour(page_size)
        if n > 1:
            assert n * per_colour == geometry.sets
        counts = {}
        for set_index in range(geometry.sets):
            colour = geometry.colour_of_set(set_index, page_size)
            assert 0 <= colour < n
            counts[colour] = counts.get(colour, 0) + 1
        assert len(counts) == n
        assert len(set(counts.values())) == 1  # equal-size classes
