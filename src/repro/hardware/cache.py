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
import sys
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
    copy_attributes,
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

#: One resident line: ``(tag, dirty, owner)``, ``owner`` being the
#: line's way-quota partition tag (None = shared pool).  Lines are
#: immutable -- a write hit on a clean line replaces it -- so clones copy
#: set lists without copying lines.
Line = Tuple[int, bool, Optional[str]]


@dataclass(slots=True)
class AccessResult:
    """Outcome of a single cache lookup.

    A hit, and a miss that evicts nothing, return the cache's prebuilt
    result for their set, shared by every such access to that set (and
    by ``clone_for_mc`` copies), so callers read these results and never
    mutate them.
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

    Each set is a list of :data:`Line` entries kept in the order that
    picks its next victim: oldest first for LRU (by last use) and FIFO
    (by fill), way order for tree-PLRU, whose direction bits index ways.
    A PLRU set also keeps its ways in fill order, which picks victims
    under way quotas.  The fingerprint is therefore the sets as they are,
    with no stamps to sort.

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
        self._sets: List[List[Line]] = [[] for _ in range(geometry.sets)]
        # Each set's tags in the same order as its lines, so a lookup is
        # one C-level list search.
        self._tags: List[List[int]] = [[] for _ in range(geometry.sets)]
        # One immutable result per set for a hit and for a miss that
        # evicts nothing: neither allocates.
        self._hits: List[AccessResult] = [
            AccessResult(True, set_index) for set_index in range(geometry.sets)
        ]
        self._fills: List[AccessResult] = [
            AccessResult(False, set_index) for set_index in range(geometry.sets)
        ]
        # Tree-PLRU direction bits, one vector per set (ways-1 internal
        # nodes of a binary tree over the ways), and each PLRU set's ways
        # in fill order, oldest first (no lists under LRU and FIFO).
        self._plru_bits: List[int] = [0] * geometry.sets
        self._fill_order: List[List[int]] = [
            [] for _ in range(geometry.sets if self._is_plru else 0)
        ]
        # Intel CAT-style way partitioning: per-partition-tag quota of
        # lines per set.  Empty dict = way partitioning off.  Quotas are
        # enforced on every fill; a fill that would have to steal from
        # another partition's quota is logged as a violation (it can only
        # happen if the configured quotas over-commit the associativity).
        self.way_quota: Dict[str, int] = {}
        self.quota_violations: List[str] = []
        # ``resident_tags_by_colour``'s memo: colour -> (copies of the
        # colour's raw tag lists, that colour's snapshot).
        self._colour_snapshots: Dict[int, Tuple[List[List[int]], Tuple]] = {}

    def clone_for_mc(self, instrumentation) -> "Cache":
        """An independent copy on ``instrumentation``.

        Copied whole (:func:`~repro.hardware.state.copy_attributes`),
        so configuration, precomputed constants, the prebuilt results
        and the (immutable) lines are shared; the set, tag, PLRU,
        fill-order, way-quota, violation and snapshot-memo containers
        are copied.
        """
        other = copy_attributes(self)
        other.instr = instrumentation
        other._sets = list(map(list.copy, self._sets))
        other._tags = list(map(list.copy, self._tags))
        other._plru_bits = list(self._plru_bits)
        other._fill_order = list(map(list.copy, self._fill_order))
        other.way_quota = dict(self.way_quota)
        other.quota_violations = list(self.quota_violations)
        # Memo entries are replaced, never mutated, so they are shared.
        other._colour_snapshots = dict(self._colour_snapshots)
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
        if instr.recording:
            # Touches of an element the run does not keep are skipped
            # here rather than dropped by ``touch()``.
            kept = instr.kept
            recording = kept is None or self.name in kept
            if recording:
                instr.touch(self.name, set_index, _WRITE if write else _READ)
        else:
            recording = False
        tags = self._tags[set_index]
        if self._is_lru:
            # A hit on the newest line (the common case) leaves the
            # recency order as it is; any other hit moves its line to
            # the newest end.
            if tags and tags[-1] == tag:
                if write:
                    lines = self._sets[set_index]
                    line = lines[-1]
                    if not line[1]:
                        lines[-1] = (tag, True, line[2])
                        self._fp_version += 1
                return self._hits[set_index]
            if tag in tags:
                way = tags.index(tag)
                del tags[way]
                tags.append(tag)
                lines = self._sets[set_index]
                line = lines.pop(way)
                if write and not line[1]:
                    line = (tag, True, line[2])
                lines.append(line)
                self._fp_version += 1
                return self._hits[set_index]
        elif tag in tags:
            # FIFO and PLRU hits keep the line where it is.
            way = tags.index(tag)
            if self._is_plru:
                self._plru_point_away(set_index, way)
                self._fp_version += 1
            if write:
                lines = self._sets[set_index]
                line = lines[way]
                if not line[1]:
                    lines[way] = (tag, True, line[2])
                    self._fp_version += 1
            return self._hits[set_index]
        # Miss: fill, possibly evicting the replacement victim.
        self._fp_version += 1
        lines = self._sets[set_index]
        if self.way_quota:
            owner = self._owner_tag()
            victim_way = self._fill_victim(set_index, lines, owner)
        else:
            owner = None
            if len(lines) < self._ways:
                victim_way = None
            elif self._is_plru:
                victim_way = self._plru_victim(set_index)
            else:
                victim_way = 0  # the oldest line heads the set
        if victim_way is None:
            if self._is_plru:
                self._fill_order[set_index].append(len(lines))
                self._plru_point_away(set_index, len(lines))
            lines.append((tag, write, owner))
            tags.append(tag)
            if recording:
                instr.touch(self.name, set_index, _FILL)
            return self._fills[set_index]
        victim = lines[victim_way]
        if recording:
            instr.touch(self.name, set_index, _EVICT)
        if self._is_plru:
            # The new line takes the victim's way and is the newest fill.
            lines[victim_way] = (tag, write, owner)
            tags[victim_way] = tag
            order = self._fill_order[set_index]
            order.remove(victim_way)
            order.append(victim_way)
            self._plru_point_away(set_index, victim_way)
        else:
            del lines[victim_way]
            del tags[victim_way]
            lines.append((tag, write, owner))
            tags.append(tag)
        if recording:
            instr.touch(self.name, set_index, _FILL)
        return AccessResult(False, set_index, victim[1], victim[0])

    def _owner_tag(self) -> Optional[str]:
        """Partition tag of the current execution context.

        User execution and kernel-on-behalf both charge the domain's way
        quota (kernel text is domain-cloned memory); the switch path's
        shared-kernel accesses charge the reserved ``@kernel`` quota.
        Tags are interned: ``pickle`` writes a string seen before in the
        same dump as a back-reference, so equal owners held as distinct
        objects would make equal fingerprints digest differently.
        """
        context = self.instr.current_domain
        if context is None:
            return None
        if context.startswith("@switch"):
            return "@kernel"
        return sys.intern(context.partition("/")[0])

    def _fill_victim(
        self, set_index: int, lines: List[Line], owner: Optional[str]
    ) -> Optional[int]:
        """Way to evict for a fill under way quotas, or None to append.

        With quotas (CAT-style), a fill first recycles the owner's own
        oldest line once its quota is reached, then free ways, then the
        oldest line of the unowned shared pool -- and never steals
        another partition's quota'd lines unless the configuration
        over-committed the associativity (logged as a violation).
        Without quotas, ``access`` evicts the head of a full set, or the
        tree-PLRU victim.
        """
        quotas = self.way_quota
        quota = quotas.get(owner) if owner is not None else None
        # Ways oldest first: a PLRU set is in way order, so it walks its
        # fill order; any other set is already oldest first.
        ages = self._fill_order[set_index] if self._is_plru else range(len(lines))
        if quota is not None:
            own = [way for way in ages if lines[way][2] == owner]
            if len(own) >= quota:
                return own[0]
        if len(lines) < self._ways:
            return None
        for way in ages:
            line_owner = lines[way][2]
            if line_owner is None or line_owner not in quotas:
                return way
        for way in ages:
            if lines[way][2] == owner:
                return way
        self.quota_violations.append(
            f"set {set_index}: fill by {owner!r} had to steal a quota'd line "
            f"(over-committed way allocation)"
        )
        return self._plru_victim(set_index) if self._is_plru else 0

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
        return (paddr >> self._tag_shift) in self._tags[set_index]

    def invalidate_line(self, paddr: int) -> bool:
        """Evict the line holding ``paddr`` (a ``clflush``-style primitive)."""
        set_index = (paddr >> self._offset_bits) & self._index_mask
        tag = paddr >> self._tag_shift
        tags = self._tags[set_index]
        if tag not in tags:
            return False
        way = tags.index(tag)
        del tags[way]
        del self._sets[set_index][way]
        if self._is_plru:
            # The ways above the removed one each move down by one.
            self._fill_order[set_index] = [
                w - (w > way) for w in self._fill_order[set_index] if w != way
            ]
        self._fp_version += 1
        self._touch(set_index, TouchKind.EVICT)
        return True

    # ------------------------------------------------------------------
    # Occupancy inspection (read-only; used by checkers and tests)
    # ------------------------------------------------------------------

    def occupancy(self, set_index: int) -> int:
        """Number of valid lines in ``set_index``."""
        return len(self._tags[set_index])

    def dirty_line_count(self) -> int:
        """Total number of dirty lines (determines flush latency)."""
        return sum(
            1 for lines in self._sets for line in lines if line[1]
        )

    def resident_tags(self, set_index: int) -> Tuple[int, ...]:
        """Tags currently resident in ``set_index`` (sorted)."""
        tags = self._tags[set_index]
        if len(tags) > 1:
            return tuple(sorted(tags))
        return tuple(tags)

    def resident_tags_by_colour(self) -> Dict[int, Tuple]:
        """Every set's ``resident_tags`` grouped by page colour.

        ``{colour: ((set_index, tags), ...)}`` over consecutive sets, all
        sets under colour 0 when the cache has one colour: the domain
        switch path's LLC snapshot.  Read-only, no touch recorded.  A
        colour's entry is rebuilt only when one of its sets' raw tag
        lists differs from the copies it was last built from; a switch
        usually leaves most colours as they were.
        """
        memo = self._colour_snapshots
        tags = self._tags
        span = self._sets_per_colour
        snapshot = {}
        for colour, first in enumerate(range(0, len(tags), span)):
            raw = tags[first:first + span]
            entry = memo.get(colour)
            if entry is None or entry[0] != raw:
                entry = (
                    [list(set_tags) for set_tags in raw],
                    tuple(
                        (first + offset, tuple(sorted(set_tags)))
                        for offset, set_tags in enumerate(raw)
                    ),
                )
                memo[colour] = entry
            snapshot[colour] = entry[1]
        return snapshot

    def resident_lines(self, set_index: int) -> Tuple[Tuple[int, str], ...]:
        """(tag, owner) pairs resident in ``set_index`` (sorted).

        Audit accessor for checkers that need per-owner occupancy (e.g.
        the switch path's way-partition fingerprints): read-only, no
        touch recorded, so it never perturbs the footprint evidence.
        """
        return tuple(
            sorted(
                (tag, owner if owner is not None else "@shared")
                for tag, _dirty, owner in self._sets[set_index]
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
        sets = self.geometry.sets
        if self.flush_is_broken:
            for set_index, lines in enumerate(self._sets):
                if set_index % 4 != 0:
                    self._sets[set_index] = []
                    self._tags[set_index] = []
                    if self._is_plru:
                        self._fill_order[set_index] = []
                else:
                    self._sets[set_index] = [
                        (tag, False, owner) for tag, _dirty, owner in lines
                    ]
        else:
            self._sets = [[] for _ in range(sets)]
            self._tags = [[] for _ in range(sets)]
            self._plru_bits = [0] * sets
            if self._is_plru:
                self._fill_order = [[] for _ in range(sets)]
        return FlushResult(cycles=cycles, lines_written_back=dirty)

    def fingerprint(self) -> Hashable:
        """Occupancy in the order that picks every future victim.

        Each non-empty set lists its lines as kept (oldest first for LRU
        and FIFO, way order for PLRU), with their dirty bits and way-quota
        owners, plus, for PLRU under way quotas, its ways in fill order.
        Only the relative order is kept, so histories that behave alike
        fingerprint alike.
        """
        fill_order = self._fill_order if self._is_plru and self.way_quota else None
        occupancy = []
        for set_index, lines in enumerate(self._sets):
            if lines:
                entry = tuple(lines)
                if fill_order is not None:
                    entry = (entry, tuple(fill_order[set_index]))
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

    def _digest_state(self) -> object:
        """The set lists themselves, which hold ``fingerprint()``'s
        entries in its order, with the PLRU bits and, when the
        fingerprint carries it (under quotas, for a non-empty set), the
        fill order: equal exactly when the fingerprints are, and no
        fingerprint is built."""
        if not self._is_plru:
            return self._sets
        fill_order = (
            self._fill_order if self.way_quota and any(self._sets) else None
        )
        return (self._sets, self._plru_bits, fill_order)

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
        # Quotas change which order picks victims, so the fingerprint.
        self._fp_version += 1

    def occupancy_by_owner(self, set_index: int) -> Dict[Optional[str], int]:
        """Lines per owner in one set (for quota auditing)."""
        result: Dict[Optional[str], int] = {}
        for _tag, _dirty, owner in self._sets[set_index]:
            result[owner] = result.get(owner, 0) + 1
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
