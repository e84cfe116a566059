"""An ASID-tagged TLB in the style of Syeda & Klein [2018].

Sect. 5.3 of the paper points at the Syeda & Klein ITP'18 TLB model as the
template for the kind of abstraction it wants for timing state: a
high-level model in which one can show that page-table modifications under
one ASID do not affect TLB *consistency* for any other ASID.  Our TLB
mirrors that structure -- entries are (ASID, vpage) -> frame with explicit
invalidation operations -- and additionally participates in the time
model: hits and misses have different costs, and a miss triggers a
page-table walk through the data cache.

The TLB is core-local, so time protection treats it as FLUSHABLE; the
ASID-partitioning theorem of E12 is checked on top via instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from .geometry import TlbGeometry
from .state import (
    FlushResult,
    Instrumentation,
    Scope,
    StateCategory,
    StateElement,
    TouchKind,
    copy_attributes,
)

# Hot-path alias: ``lookup`` runs twice per simulated memory instruction.
_READ = TouchKind.READ


@dataclass(slots=True)
class TlbLookupResult:
    """Outcome of a TLB lookup.

    Results are shared, never mutated: every miss returns ``_MISS`` and
    every hit the result its entry built at fill time.
    """

    hit: bool
    frame_number: Optional[int] = None
    writable: bool = True


_MISS = TlbLookupResult(False)


@dataclass(slots=True)
class TlbEntry:
    """One translation; never mutated after fill, so clones share it."""

    asid: int
    vpage: int
    frame_number: int
    writable: bool
    generation: int  # address-space generation at fill time
    # What a hit on this entry returns.
    result: TlbLookupResult


class Tlb(StateElement):
    """Fully-associative, LRU, ASID-tagged TLB.

    Entries live in an insertion-ordered dict kept in recency order,
    oldest first: a hit moves its entry to the end and a full TLB evicts
    the first.  The fingerprint is the dict in that order.
    """

    def __init__(
        self,
        name: str,
        geometry: TlbGeometry,
        instrumentation: Optional[Instrumentation] = None,
        flush_latency_cycles: int = 12,
    ):
        super().__init__(
            name, StateCategory.FLUSHABLE, Scope.CORE_LOCAL, instrumentation
        )
        self.geometry = geometry
        self.flush_latency_cycles = flush_latency_cycles
        self._entries: Dict[Tuple[int, int], TlbEntry] = {}
        # The newest entry: a hit on it leaves the order as it is.
        self._mru: Optional[TlbEntry] = None

    def clone_for_mc(self, instrumentation) -> "Tlb":
        """Independent copy, whole but for the entry dict; the
        (immutable) entries are shared."""
        other = copy_attributes(self)
        other.instr = instrumentation
        other._entries = self._entries.copy()
        return other

    # ------------------------------------------------------------------
    # Lookup / fill / invalidate
    # ------------------------------------------------------------------

    def lookup(self, asid: int, vpage: int) -> TlbLookupResult:
        key = (asid, vpage)
        instr = self.instr
        if instr.recording:
            kept = instr.kept
            if kept is None or self.name in kept:
                instr.touch(self.name, key, _READ)
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            return _MISS
        if entry is not self._mru:
            del entries[key]
            entries[key] = entry
            self._mru = entry
            self._fp_version += 1
        return entry.result

    def fill(
        self,
        asid: int,
        vpage: int,
        frame_number: int,
        writable: bool,
        generation: int,
    ) -> None:
        """Install a translation as the newest, evicting the LRU entry
        when full."""
        self._fp_version += 1
        entries = self._entries
        if len(entries) >= self.geometry.entries:
            victim_key = next(iter(entries))
            self._touch(victim_key, TouchKind.EVICT)
            del entries[victim_key]
        key = (asid, vpage)
        # A refill of a resident page replaces it at the newest end.
        entries.pop(key, None)
        entry = TlbEntry(
            asid=asid,
            vpage=vpage,
            frame_number=frame_number,
            writable=writable,
            generation=generation,
            result=TlbLookupResult(True, frame_number, writable),
        )
        entries[key] = entry
        self._mru = entry
        self._touch(key, TouchKind.FILL)

    def invalidate_asid(self, asid: int) -> int:
        """Drop all entries of one ASID; returns the number removed."""
        victims = [key for key in self._entries if key[0] == asid]
        for key in victims:
            del self._entries[key]
        if victims:
            self._fp_version += 1
        return len(victims)

    def invalidate_page(self, asid: int, vpage: int) -> bool:
        if self._entries.pop((asid, vpage), None) is not None:
            self._fp_version += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Consistency predicates (the Syeda & Klein-style theorem surface)
    # ------------------------------------------------------------------

    def entries_for_asid(self, asid: int) -> Dict[int, TlbEntry]:
        """Snapshot of this ASID's entries, keyed by virtual page."""
        return {
            vpage: entry
            for (entry_asid, vpage), entry in self._entries.items()
            if entry_asid == asid
        }

    def consistent_with(self, asid: int, space) -> bool:
        """True iff every cached entry of ``asid`` matches ``space``.

        ``space`` is an :class:`repro.hardware.mmu.AddressSpace`.  An entry
        is consistent if the address space still maps the page to the same
        frame.  The E12 partitioning theorem states that mutating *another*
        ASID's address space never invalidates this predicate.
        """
        for vpage, entry in self.entries_for_asid(asid).items():
            try:
                mapping = space.lookup(vpage * space.page_size)
            except Exception:
                return False
            if mapping.frame.number != entry.frame_number:
                return False
        return True

    # ------------------------------------------------------------------
    # StateElement protocol
    # ------------------------------------------------------------------

    def flush(self) -> FlushResult:
        self._entries.clear()
        self._fp_version += 1
        return FlushResult(cycles=self.flush_latency_cycles)

    def fingerprint(self) -> Hashable:
        """Entries oldest first: the order that picks every future victim."""
        return tuple(
            (entry.asid, entry.vpage, entry.frame_number, entry.writable)
            for entry in self._entries.values()
        )

    def reset_fingerprint(self) -> Hashable:
        return ()
