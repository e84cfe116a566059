"""Property-based tests for CAT-style way partitioning."""

from hypothesis import given, settings, strategies as st

from repro.hardware.cache import Cache, LatencyParams
from repro.hardware.geometry import CacheGeometry
from repro.hardware.state import Scope, StateCategory


def make_cache(quotas):
    cache = Cache(
        name="prop.llc",
        geometry=CacheGeometry(sets=8, ways=8, line_size=32),
        category=StateCategory.PARTITIONABLE,
        scope=Scope.SHARED,
        latency=LatencyParams(hit_cycles=40),
        page_size=256,
    )
    cache.set_way_quotas(quotas)
    return cache


owners = st.sampled_from(["A", "B", "@kernel"])
accesses = st.lists(
    st.tuples(owners, st.integers(min_value=0, max_value=0x3FFF), st.booleans()),
    min_size=1,
    max_size=300,
)

QUOTAS = {"A": 3, "B": 3, "@kernel": 2}

# Way quotas partition *capacity*, not *addresses*: a hit is served from
# whichever way holds the line, whoever filled it.  If two partitions
# accessed the same physical line, one could observe the other evicting
# its own copy -- which is why the kernel never maps one user frame into
# two partitions (colour allocator / clone both enforce frame
# disjointness).  The tests model that discipline by giving each owner a
# disjoint physical region.
OWNER_BASE = {"A": 0x0000, "B": 0x10000, "@kernel": 0x20000}


def run_sequence(cache, sequence):
    for owner, offset, write in sequence:
        cache.instr.set_context(owner)
        cache.access(OWNER_BASE[owner] + offset, write=write)


class TestWayQuotaProperties:
    @given(accesses)
    @settings(max_examples=60, deadline=None)
    def test_quotas_never_exceeded(self, sequence):
        cache = make_cache(QUOTAS)
        run_sequence(cache, sequence)
        assert cache.quotas_respected()
        assert cache.quota_violations == []

    @given(accesses)
    @settings(max_examples=60, deadline=None)
    def test_capacity_still_never_exceeded(self, sequence):
        cache = make_cache(QUOTAS)
        run_sequence(cache, sequence)
        for set_index in range(cache.geometry.sets):
            assert cache.occupancy(set_index) <= cache.geometry.ways

    @given(accesses)
    @settings(max_examples=60, deadline=None)
    def test_partition_isolation(self, sequence):
        """Whatever B and the kernel do, A's most recent quota-many
        distinct lines per set remain resident."""
        cache = make_cache(QUOTAS)
        run_sequence(cache, sequence)
        # Reconstruct A's expected resident lines: last 3 distinct line
        # addresses per set.
        expected = {}
        for owner, offset, _write in sequence:
            if owner != "A":
                continue
            address = OWNER_BASE[owner] + offset
            line = cache.geometry.line_address(address)
            set_index = cache.geometry.set_index(address)
            bucket = expected.setdefault(set_index, [])
            if line in bucket:
                bucket.remove(line)
            bucket.append(line)
        cache.instr.set_context("A")
        for set_index, lines in expected.items():
            for line in lines[-QUOTAS["A"]:]:
                assert cache.probe(line), (
                    f"A's line {line:#x} (set {set_index}) was evicted by "
                    f"another partition"
                )

    @given(accesses)
    @settings(max_examples=40, deadline=None)
    def test_flush_resets_partition_state(self, sequence):
        cache = make_cache(QUOTAS)
        run_sequence(cache, sequence)
        cache.flush()
        assert cache.fingerprint() == cache.reset_fingerprint()
        for set_index in range(cache.geometry.sets):
            assert cache.occupancy_by_owner(set_index) == {}
