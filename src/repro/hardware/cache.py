"""Set-associative write-back caches with deterministic replacement.

Caches are the canonical shared hardware resource behind
microarchitectural timing channels (Sect. 3.1): a domain's hit/miss
pattern -- and therefore its execution time -- depends on what earlier (or
concurrent) occupants left in each set.  The simulator models this
faithfully at the granularity the paper's argument needs: per-set
occupancy, dirty lines (whose write-back makes *flush latency itself*
history dependent, motivating padding, Sect. 4.2), and deterministic
replacement so that whole-system runs are reproducible.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from .geometry import CacheGeometry
from .state import (
    FlushResult,
    Instrumentation,
    Scope,
    StateCategory,
    StateElement,
    TouchKind,
)


class ReplacementPolicy(enum.Enum):
    LRU = "lru"
    FIFO = "fifo"
    PLRU = "plru"


# Hot-path aliases: enum attribute lookups cost a class-dict hash per
# access, and ``Cache.access`` runs millions of times per experiment.
_READ = TouchKind.READ
_WRITE = TouchKind.WRITE
_EVICT = TouchKind.EVICT
_FILL = TouchKind.FILL

_by_stamp = operator.attrgetter("stamp")


@dataclass(slots=True)
class CacheLine:
    """One cache line: tag plus replacement/coherence metadata."""

    tag: int
    dirty: bool = False
    stamp: int = 0  # LRU: last-use order; FIFO: fill order.
    # Owning partition tag under way partitioning (None = shared pool).
    owner: Optional[str] = None


@dataclass(slots=True)
class AccessResult:
    """Outcome of a single cache lookup.

    A hit returns the cache's prebuilt result for its set, shared by
    every hit on that set (and by ``clone_for_mc`` copies), so callers
    read these results and never mutate them.
    """

    hit: bool
    set_index: int
    dirty_writeback: bool = False
    evicted_tag: Optional[int] = None


@dataclass
class LatencyParams:
    """Deterministic latency constants for one cache level.

    These constants instantiate the paper's "deterministic yet unspecified
    function" from microarchitectural state to elapsed time: nothing in
    the proof layer depends on their values, only on *which* state the
    resulting latency reads.
    """

    hit_cycles: int
    flush_base_cycles: int = 8
    writeback_cycles_per_line: int = 6


class Cache(StateElement):
    """A set-associative, write-back, write-allocate cache.

    Args:
        name: unique element name (e.g. ``"core0.l1d"``).
        geometry: set/way/line-size description.
        category: how the OS may manage this cache (PARTITIONABLE for a
            shared, physically-indexed LLC; FLUSHABLE for core-private
            levels).
        scope: CORE_LOCAL or SHARED.
        latency: latency constants for this level.
        page_size: machine page size, used for colour arithmetic.
        policy: replacement policy (deterministic variants only).
        instrumentation: shared touch recorder.
        flush_is_broken: if True, ``flush()`` claims success but leaves a
            fraction of lines resident -- a contract-violating machine for
            experiment E9.
    """

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        category: StateCategory,
        scope: Scope,
        latency: LatencyParams,
        page_size: int,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
        instrumentation: Optional[Instrumentation] = None,
        flush_is_broken: bool = False,
    ):
        super().__init__(name, category, scope, instrumentation)
        self.geometry = geometry
        self.latency = latency
        self.page_size = page_size
        self.policy = policy
        self.flush_is_broken = flush_is_broken
        # Hot-path constants, precomputed once: address-slicing masks from
        # the (frozen) geometry, policy dispatch flags, and the latency
        # constants the hierarchy reads on every access.
        self._offset_bits = geometry.offset_bits
        self._index_mask = geometry.index_mask
        self._tag_shift = geometry.tag_shift
        self._ways = geometry.ways
        self._is_lru = policy is ReplacementPolicy.LRU
        self._is_plru = policy is ReplacementPolicy.PLRU
        self._n_colours = geometry.n_colours(page_size)
        self._sets_per_colour = geometry.sets_per_colour(page_size)
        self.hit_cycles = latency.hit_cycles
        self.writeback_cycles_per_line = latency.writeback_cycles_per_line
        self._sets: List[List[CacheLine]] = [[] for _ in range(geometry.sets)]
        # One immutable hit result per set: a hit allocates nothing.
        self._hits: List[AccessResult] = [
            AccessResult(True, set_index) for set_index in range(geometry.sets)
        ]
        self._tick = 0  # monotonic stamp source for LRU/FIFO ordering
        # Tree-PLRU direction bits, one vector per set (ways-1 internal
        # nodes of a binary tree over the ways).
        self._plru_bits: List[int] = [0] * geometry.sets
        # Intel CAT-style way partitioning: per-partition-tag quota of
        # lines per set.  Empty dict = way partitioning off.  Quotas are
        # enforced on every fill; a fill that would have to steal from
        # another partition's quota is logged as a violation (it can only
        # happen if the configured quotas over-commit the associativity).
        self.way_quota: Dict[str, int] = {}
        self.quota_violations: List[str] = []

    def clone_for_mc(self, instrumentation) -> "Cache":
        """An independent copy sharing only immutable configuration.

        Geometry, latency params, precomputed masks and the prebuilt hit
        results are frozen or write-once, so the clone aliases them;
        per-line state is rebuilt with fresh :class:`CacheLine` objects.
        """
        other = Cache.__new__(Cache)
        other.name = self.name
        other.category = self.category
        other.scope = self.scope
        other.instr = instrumentation
        other.concurrently_shared = self.concurrently_shared
        other._fp_version = self._fp_version
        other._fp_cache = self._fp_cache
        other._fp_digest = self._fp_digest
        other.geometry = self.geometry
        other.latency = self.latency
        other.page_size = self.page_size
        other.policy = self.policy
        other.flush_is_broken = self.flush_is_broken
        other._offset_bits = self._offset_bits
        other._index_mask = self._index_mask
        other._tag_shift = self._tag_shift
        other._ways = self._ways
        other._is_lru = self._is_lru
        other._is_plru = self._is_plru
        other._n_colours = self._n_colours
        other._sets_per_colour = self._sets_per_colour
        other.hit_cycles = self.hit_cycles
        other.writeback_cycles_per_line = self.writeback_cycles_per_line
        other._sets = [
            [
                CacheLine(line.tag, line.dirty, line.stamp, line.owner)
                for line in lines
            ]
            for lines in self._sets
        ]
        other._hits = self._hits
        other._tick = self._tick
        other._plru_bits = list(self._plru_bits)
        other.way_quota = dict(self.way_quota)
        other.quota_violations = list(self.quota_violations)
        return other

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------

    def access(self, paddr: int, write: bool = False) -> AccessResult:
        """Look up ``paddr``; on miss, allocate (evicting deterministically).

        Returns an :class:`AccessResult`; the caller (the cache hierarchy)
        composes latencies and propagates misses to the next level.
        """
        set_index = (paddr >> self._offset_bits) & self._index_mask
        tag = paddr >> self._tag_shift
        instr = self.instr
        recording = instr.recording
        if recording:
            instr.touch(self.name, set_index, _WRITE if write else _READ)
        lines = self._sets[set_index]
        self._tick += 1
        tick = self._tick
        if self._is_lru:
            # LRU (the default policy) needs no way index on a hit, so it
            # skips the enumerate machinery of the general loop below.
            # A hit refreshes the LRU stamp, which reorders the set in the
            # fingerprint (each set is listed oldest first).  It does not
            # bump the fingerprint version: the memo also keys on
            # ``_tick``, which every access advances (``_fp_key``).  The
            # version is bumped only when a hit dirties a clean line.
            for line in lines:
                if line.tag == tag:
                    line.stamp = tick
                    if write and not line.dirty:
                        line.dirty = True
                        self._fp_version += 1
                    return self._hits[set_index]
        else:
            for way, line in enumerate(lines):
                if line.tag == tag:
                    if self._is_plru:
                        self._plru_point_away(set_index, way)
                        self._fp_version += 1
                    if write and not line.dirty:
                        line.dirty = True
                        self._fp_version += 1
                    return self._hits[set_index]
        # Miss: fill, possibly evicting the replacement victim.
        self._fp_version += 1
        if self.way_quota:
            owner = self._owner_tag()
            victim_way = self._fill_victim(set_index, lines, owner)
        else:
            owner = None
            victim_way = (
                self._select_victim(set_index, lines)
                if len(lines) >= self._ways
                else None
            )
        dirty_writeback = False
        evicted_tag = None
        if victim_way is not None:
            victim = lines[victim_way]
            evicted_tag = victim.tag
            dirty_writeback = victim.dirty
            if recording:
                instr.touch(self.name, set_index, _EVICT)
            lines[victim_way] = CacheLine(tag, write, tick, owner)
            if self._is_plru:
                self._plru_point_away(set_index, victim_way)
        else:
            lines.append(CacheLine(tag, write, tick, owner))
            if self._is_plru:
                self._plru_point_away(set_index, len(lines) - 1)
        if recording:
            instr.touch(self.name, set_index, _FILL)
        return AccessResult(False, set_index, dirty_writeback, evicted_tag)

    def _owner_tag(self) -> Optional[str]:
        """Partition tag of the current execution context.

        User execution and kernel-on-behalf both charge the domain's way
        quota (kernel text is domain-cloned memory); the switch path's
        shared-kernel accesses charge the reserved ``@kernel`` quota.
        """
        context = self.instr.current_domain
        if context is None:
            return None
        if context.startswith("@switch"):
            return "@kernel"
        return context.partition("/")[0]

    def _fill_victim(
        self, set_index: int, lines: List[CacheLine], owner: Optional[str]
    ) -> Optional[int]:
        """Way to evict for a fill under way quotas, or None to append.

        With quotas (CAT-style), a fill first recycles the owner's own
        lines once its quota is reached, then free ways, then the
        unowned shared pool -- and never steals another partition's
        quota'd lines unless the configuration over-committed the
        associativity (logged as a violation).  Without quotas,
        ``access`` evicts by ``_select_victim`` alone.
        """
        quota = self.way_quota.get(owner) if owner is not None else None
        if quota is not None:
            own = [i for i, line in enumerate(lines) if line.owner == owner]
            if len(own) >= quota:
                return min(own, key=lambda i: lines[i].stamp)
        if len(lines) < self._ways:
            return None
        shared = [
            i
            for i, line in enumerate(lines)
            if line.owner is None or line.owner not in self.way_quota
        ]
        if shared:
            return min(shared, key=lambda i: lines[i].stamp)
        own = [i for i, line in enumerate(lines) if line.owner == owner]
        if own:
            return min(own, key=lambda i: lines[i].stamp)
        self.quota_violations.append(
            f"set {set_index}: fill by {owner!r} had to steal a quota'd line "
            f"(over-committed way allocation)"
        )
        return self._select_victim(set_index, lines)

    def _select_victim(self, set_index: int, lines: List[CacheLine]) -> int:
        """Index of the way to evict from a full set (deterministic)."""
        if self._is_plru:
            return self._plru_victim(set_index)
        # LRU and FIFO both evict the minimum stamp (the first way holding
        # it): LRU refreshes the stamp on every hit, FIFO stamps only at
        # fill time.
        oldest_way = 0
        oldest = lines[0].stamp
        for way in range(1, len(lines)):
            stamp = lines[way].stamp
            if stamp < oldest:
                oldest = stamp
                oldest_way = way
        return oldest_way

    # ------------------------------------------------------------------
    # Tree-PLRU helpers (ways must be a power of two for PLRU)
    # ------------------------------------------------------------------

    def _plru_victim(self, set_index: int) -> int:
        ways = self.geometry.ways
        bits = self._plru_bits[set_index]
        node = 1
        while node < ways:
            direction = (bits >> node) & 1
            node = 2 * node + direction
        return node - ways

    def _plru_point_away(self, set_index: int, way: int) -> None:
        """Set tree bits so the next victim walk avoids ``way``."""
        ways = self.geometry.ways
        if ways & (ways - 1):  # PLRU needs a power-of-two associativity
            return
        bits = self._plru_bits[set_index]
        node = 1
        depth = ways.bit_length() - 2
        while node < ways:
            direction = (way >> depth) & 1
            # Point the bit at the *other* subtree.
            if direction == 0:
                bits |= 1 << node
            else:
                bits &= ~(1 << node)
            node = 2 * node + direction
            depth -= 1
        self._plru_bits[set_index] = bits

    def probe(self, paddr: int) -> bool:
        """Non-allocating presence check (no state change, no touch)."""
        set_index = (paddr >> self._offset_bits) & self._index_mask
        tag = paddr >> self._tag_shift
        return any(line.tag == tag for line in self._sets[set_index])

    def invalidate_line(self, paddr: int) -> bool:
        """Evict the line holding ``paddr`` (a ``clflush``-style primitive)."""
        set_index = (paddr >> self._offset_bits) & self._index_mask
        tag = paddr >> self._tag_shift
        lines = self._sets[set_index]
        for line in lines:
            if line.tag == tag:
                lines.remove(line)
                self._fp_version += 1
                self._touch(set_index, TouchKind.EVICT)
                return True
        return False

    # ------------------------------------------------------------------
    # Occupancy inspection (read-only; used by checkers and tests)
    # ------------------------------------------------------------------

    def occupancy(self, set_index: int) -> int:
        """Number of valid lines in ``set_index``."""
        return len(self._sets[set_index])

    def dirty_line_count(self) -> int:
        """Total number of dirty lines (determines flush latency)."""
        return sum(
            1 for lines in self._sets for line in lines if line.dirty
        )

    def resident_tags(self, set_index: int) -> Tuple[int, ...]:
        """Tags currently resident in ``set_index`` (sorted)."""
        tags = [line.tag for line in self._sets[set_index]]
        if len(tags) > 1:
            tags.sort()
        return tuple(tags)

    def resident_lines(self, set_index: int) -> Tuple[Tuple[int, str], ...]:
        """(tag, owner) pairs resident in ``set_index`` (sorted).

        Audit accessor for checkers that need per-owner occupancy (e.g.
        the switch path's way-partition fingerprints): read-only, no
        touch recorded, so it never perturbs the footprint evidence.
        """
        return tuple(
            sorted(
                (line.tag, line.owner if line.owner is not None else "@shared")
                for line in self._sets[set_index]
            )
        )

    # ------------------------------------------------------------------
    # StateElement protocol
    # ------------------------------------------------------------------

    def flush(self) -> FlushResult:
        """Write back dirty lines and invalidate everything.

        The latency depends on execution history (number of dirty lines),
        which is exactly the channel that switch-latency padding closes.
        A ``flush_is_broken`` cache leaves every fourth set resident,
        modelling hardware whose flush operation does not actually reset
        all state (an aISA violation).
        """
        dirty = self.dirty_line_count()
        cycles = (
            self.latency.flush_base_cycles
            + dirty * self.latency.writeback_cycles_per_line
        )
        self._fp_version += 1
        if self.flush_is_broken:
            for set_index, lines in enumerate(self._sets):
                if set_index % 4 != 0:
                    self._sets[set_index] = []
                else:
                    for line in lines:
                        line.dirty = False
        else:
            self._sets = [[] for _ in range(self.geometry.sets)]
            self._plru_bits = [0] * self.geometry.sets
        return FlushResult(cycles=cycles, lines_written_back=dirty)

    def _fp_key(self) -> Hashable:
        # An LRU hit makes its line the newest without bumping
        # ``_fp_version`` (so ``access`` pays nothing for it); every
        # access advances ``_tick``, so the memo keys on both.
        return (self._fp_version, self._tick)

    def fingerprint(self) -> Hashable:
        """Occupancy in the order that picks every future victim.

        LRU and FIFO evict the oldest stamp, so each set lists its lines
        oldest first.  Tree-PLRU walks its direction bits over way
        positions, so each set lists its lines in way order, plus their
        fill order when way quotas pick victims by stamp.  Each line
        carries its way-quota owner.  Only the relative order is kept:
        absolute stamps differ between histories that behave alike.
        """
        by_way = self._is_plru
        fill_order = by_way and bool(self.way_quota)
        occupancy = []
        for set_index, lines in enumerate(self._sets):
            if lines:
                if len(lines) > 1 and not by_way:
                    lines = sorted(lines, key=_by_stamp)
                entry = tuple(
                    (line.tag, line.dirty, line.owner) for line in lines
                )
                if fill_order:
                    entry = (entry, tuple(sorted(
                        range(len(lines)), key=lambda way: lines[way].stamp
                    )))
                occupancy.append((set_index, entry))
        if any(self._plru_bits):
            plru = tuple(
                (set_index, bits)
                for set_index, bits in enumerate(self._plru_bits)
                if bits
            )
        else:
            plru = ()
        return (tuple(occupancy), plru)

    def reset_fingerprint(self) -> Hashable:
        return ((), ())

    def partition_of_index(self, index: Hashable) -> Hashable:
        if self._n_colours == 1:
            return 0
        return int(index) // self._sets_per_colour

    @property
    def n_partitions(self) -> int:
        """Colour partitions, or way-quota partitions when CAT-style
        allocation is configured (either mechanism satisfies Sect. 4.1's
        partitioning requirement)."""
        colours = self.geometry.n_colours(self.page_size)
        if self.way_quota:
            return max(colours, len(self.way_quota))
        return colours

    def set_way_quotas(self, quotas: Dict[str, int]) -> None:
        """Install CAT-style per-partition way quotas (lines per set).

        Way quotas partition *capacity*, not addresses: a lookup hits on
        whichever way holds the line, whoever filled it (as on real CAT
        hardware).  Isolation therefore additionally requires that
        partitions never share physical frames -- which the kernel's
        colour allocator and clone mechanism already guarantee.

        Raises:
            ValueError: if the quotas over-commit the associativity.
        """
        total = sum(quotas.values())
        if total > self.geometry.ways:
            raise ValueError(
                f"way quotas total {total} exceed associativity "
                f"{self.geometry.ways}"
            )
        self.way_quota = dict(quotas)

    def occupancy_by_owner(self, set_index: int) -> Dict[Optional[str], int]:
        """Lines per owner in one set (for quota auditing)."""
        result: Dict[Optional[str], int] = {}
        for line in self._sets[set_index]:
            result[line.owner] = result.get(line.owner, 0) + 1
        return result

    def quotas_respected(self) -> bool:
        """True iff no set holds more lines of a partition than its quota."""
        if not self.way_quota:
            return True
        for set_index in range(self.geometry.sets):
            for owner, count in self.occupancy_by_owner(set_index).items():
                quota = self.way_quota.get(owner)
                if quota is not None and count > quota:
                    return False
        return True
