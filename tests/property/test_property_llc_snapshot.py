"""Property: the memoised per-colour LLC snapshot is never stale.

``Cache.resident_tags_by_colour`` keeps, per page colour, the snapshot it
last built and copies of the raw tag lists it built it from, and
rebuilds a colour only when those lists changed.  Random operation
sequences (reads and writes from several contexts, ``invalidate_line``,
flushes that work or are broken, way quotas, and a ``clone_for_mc``
part-way through) run on LRU, FIFO and PLRU caches of one and of
several colours.  Whenever a snapshot is taken, on the parent or the
clone, it must equal one rebuilt from ``resident_tags`` and the
geometry's colour arithmetic, so a memo entry that outlives a change
fails the test.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.hardware.cache import Cache, LatencyParams, ReplacementPolicy
from repro.hardware.geometry import CacheGeometry
from repro.hardware.state import Instrumentation, Scope, StateCategory

SETS, WAYS, LINE = 8, 4, 32
#: Page sizes giving four colours of two sets each, and one colour.
PAGE_SIZES = (64, SETS * LINE)
QUOTAS = {"Hi": 2, "Lo": 1, "@kernel": 1}
CONTEXTS = ("Hi", "Hi/kernel", "Lo", "Mid", "@switch:Hi>Lo")


def _make_cache(policy, page_size, broken):
    return Cache(
        name="prop.llc",
        geometry=CacheGeometry(sets=SETS, ways=WAYS, line_size=LINE),
        category=StateCategory.PARTITIONABLE,
        scope=Scope.SHARED,
        latency=LatencyParams(hit_cycles=20),
        page_size=page_size,
        policy=policy,
        instrumentation=Instrumentation(),
        flush_is_broken=broken,
    )


def _rebuilt(cache):
    """The snapshot from scratch: sorted resident tags per set, by colour."""
    by_colour = {}
    for set_index in range(cache.geometry.sets):
        colour = cache.geometry.colour_of_set(set_index, cache.page_size)
        by_colour.setdefault(colour, []).append(
            (set_index, cache.resident_tags(set_index)))
    return {colour: tuple(sets) for colour, sets in by_colour.items()}


_ops = st.one_of(
    st.tuples(st.just("access"), st.sampled_from(CONTEXTS),
              st.integers(0, 6), st.integers(0, SETS - 1), st.booleans()),
    st.tuples(st.just("access"), st.sampled_from(CONTEXTS),
              st.integers(0, 6), st.integers(0, SETS - 1), st.booleans()),
    st.tuples(st.just("invalidate"), st.integers(0, 6),
              st.integers(0, SETS - 1)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("quotas")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("clone")),
)


def _apply(cache, op):
    kind = op[0]
    if kind == "access":
        _, context, tag, set_index, write = op
        cache.instr.set_context(context)
        cache.access((tag * SETS + set_index) * LINE, write=write)
    elif kind == "invalidate":
        _, tag, set_index = op
        cache.invalidate_line((tag * SETS + set_index) * LINE)
    elif kind == "flush":
        cache.flush()
    elif kind == "quotas":
        cache.set_way_quotas(QUOTAS)
    elif kind == "snapshot":
        assert cache.resident_tags_by_colour() == _rebuilt(cache)


KINDS = [
    (policy, page_size)
    for policy in ReplacementPolicy
    for page_size in PAGE_SIZES
]


@pytest.mark.parametrize(
    "policy,page_size", KINDS,
    ids=[f"{p.value}-{SETS * LINE // s}colour" for p, s in KINDS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_snapshot_equals_a_rebuild(policy, page_size, data):
    broken = data.draw(st.booleans(), label="flush_is_broken")
    history = data.draw(st.lists(st.tuples(st.booleans(), _ops),
                                 max_size=40), label="history")
    caches = [_make_cache(policy, page_size, broken)]
    for on_clone, op in history:
        if op[0] == "clone":
            if len(caches) == 1:
                caches.append(caches[0].clone_for_mc(Instrumentation()))
            continue
        # Before the clone exists, every operation runs on the parent.
        _apply(caches[-1] if on_clone else caches[0], op)
    for cache in caches:
        assert cache.resident_tags_by_colour() == _rebuilt(cache)
