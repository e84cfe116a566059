"""A stride prefetcher state machine.

Prefetchers are among the "pre-fetcher state machines" Sect. 3.1 lists as
stateful shared resources.  This one tracks recent access streams in a
small table; once a stream shows a stable stride it issues prefetches into
the data cache, changing future hit/miss behaviour -- i.e. prefetcher
state trained by one domain alters another domain's timing unless it is
flushed (or, on contract-violating hardware, cannot be -- the
``unflushable`` preset of experiment E9 marks exactly this element
UNMANAGED).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from .state import (
    FlushResult,
    Instrumentation,
    Scope,
    StateCategory,
    StateElement,
    TouchKind,
    copy_attributes,
)


@dataclass
class StreamEntry:
    last_addr: int
    stride: int
    confidence: int  # saturates at 3; >= 2 issues prefetches
    stamp: int


class StridePrefetcher(StateElement):
    """Table-based stride prefetcher keyed by address-stream region."""

    def __init__(
        self,
        name: str,
        table_entries: int = 8,
        region_bits: int = 12,
        degree: int = 2,
        instrumentation: Optional[Instrumentation] = None,
        flush_latency_cycles: int = 4,
        category: StateCategory = StateCategory.FLUSHABLE,
        flushable_in_hardware: bool = True,
    ):
        super().__init__(name, category, Scope.CORE_LOCAL, instrumentation)
        self.table_entries = table_entries
        self.region_bits = region_bits
        self.degree = degree
        self.flush_latency_cycles = flush_latency_cycles
        self.flushable_in_hardware = flushable_in_hardware
        self._table: Dict[int, StreamEntry] = {}
        self._tick = 0

    def _region(self, paddr: int) -> int:
        return paddr >> self.region_bits

    def observe(self, paddr: int) -> List[int]:
        """Record a demand access; return addresses to prefetch (if any)."""
        self._tick += 1
        self._fp_version += 1
        region = self._region(paddr)
        self._touch(region, TouchKind.UPDATE)
        entry = self._table.get(region)
        prefetches: List[int] = []
        if entry is None:
            if len(self._table) >= self.table_entries:
                victim = min(self._table, key=lambda r: self._table[r].stamp)
                del self._table[victim]
            self._table[region] = StreamEntry(
                last_addr=paddr, stride=0, confidence=0, stamp=self._tick
            )
            return prefetches
        stride = paddr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(3, entry.confidence + 1)
        else:
            entry.confidence = max(0, entry.confidence - 1)
            entry.stride = stride
        entry.last_addr = paddr
        entry.stamp = self._tick
        if entry.confidence >= 2 and entry.stride != 0:
            prefetches = [
                paddr + entry.stride * step for step in range(1, self.degree + 1)
            ]
        return prefetches

    # ------------------------------------------------------------------
    # StateElement protocol
    # ------------------------------------------------------------------

    def flush(self) -> FlushResult:
        """Reset the stream table -- unless the hardware cannot.

        ``flushable_in_hardware=False`` models a processor that offers no
        architected way to clear prefetcher state: the flush is a no-op
        and the element fails the aISA completeness obligation (PO-1).
        """
        if self.flushable_in_hardware:
            self._table.clear()
            self._fp_version += 1
        return FlushResult(cycles=self.flush_latency_cycles)

    def clone_for_mc(self, instrumentation) -> "StridePrefetcher":
        """Independent copy, whole but for the stream table, whose
        (mutable) entries are copied too."""
        other = copy_attributes(self)
        other.instr = instrumentation
        other._table = {
            region: copy_attributes(entry)
            for region, entry in self._table.items()
        }
        return other

    def fingerprint(self) -> Hashable:
        """Streams oldest first: the order that picks every future victim."""
        return tuple(
            (region, e.last_addr, e.stride, e.confidence)
            for region, e in sorted(
                self._table.items(), key=lambda item: item[1].stamp
            )
        )

    def reset_fingerprint(self) -> Hashable:
        return ()

    def effective_category(self) -> StateCategory:
        if not self.flushable_in_hardware:
            return StateCategory.UNMANAGED
        return super().effective_category()
