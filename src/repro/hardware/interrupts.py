"""Interrupt controller: IRQ lines, masking, and pending delivery.

Sect. 4.2: "interrupts could also be used as a channel, if the Trojan
triggers an I/O such that its completion interrupt fires during Lo's
execution".  The kernel's defence is to partition IRQ lines between
domains and keep every line masked whose owner is not currently running
(the preemption timer excepted).  The controller below provides exactly
the mechanism surface that policy needs: per-line masks, scheduled
completion times (the device model), and a query for the earliest
deliverable interrupt at a given time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .state import copy_attributes


PREEMPTION_TIMER_IRQ = 0


@dataclass(frozen=True)
class PendingInterrupt:
    fire_time: int
    line: int
    payload: int = 0


class InterruptController:
    """Per-core interrupt controller with line masking."""

    def __init__(self, n_lines: int = 16):
        if n_lines < 1:
            raise ValueError("need at least one IRQ line")
        self.n_lines = n_lines
        self._masked: Set[int] = set()
        self._pending: List[Tuple[int, int, int, int]] = []  # heap
        self._seq = 0
        self.delivered_count: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Masking
    # ------------------------------------------------------------------

    def mask(self, line: int) -> None:
        self._check_line(line)
        self._masked.add(line)

    def unmask(self, line: int) -> None:
        self._check_line(line)
        self._masked.discard(line)

    def is_masked(self, line: int) -> bool:
        return line in self._masked

    def set_mask_all_except(self, allowed: Set[int]) -> None:
        """Mask every line not in ``allowed`` (IRQ partitioning)."""
        for line in range(self.n_lines):
            if line in allowed:
                self._masked.discard(line)
            else:
                self._masked.add(line)

    # ------------------------------------------------------------------
    # Device side: schedule completions
    # ------------------------------------------------------------------

    def schedule(self, line: int, fire_time: int, payload: int = 0) -> None:
        """A device will raise ``line`` at absolute time ``fire_time``."""
        self._check_line(line)
        heapq.heappush(self._pending, (fire_time, self._seq, line, payload))
        self._seq += 1

    # ------------------------------------------------------------------
    # CPU side: poll for deliverable interrupts
    # ------------------------------------------------------------------

    def deliverable(self, now: int) -> Optional[PendingInterrupt]:
        """Earliest unmasked interrupt with ``fire_time <= now``, if any.

        Masked interrupts stay pending (level-triggered): they deliver
        once their line is unmasked -- i.e. once their owner domain runs
        again, which is what makes partitioning close the channel rather
        than merely delaying it into the Trojan's own slice.
        """
        pending = self._pending
        if not pending or pending[0][0] > now:
            # Nothing scheduled, or the earliest completion is still in
            # the future: the heap walk below would keep everything.
            return None
        deliverable = None
        kept: List[Tuple[int, int, int, int]] = []
        while self._pending:
            fire_time, seq, line, payload = heapq.heappop(self._pending)
            if fire_time > now:
                kept.append((fire_time, seq, line, payload))
                break
            if line in self._masked:
                kept.append((fire_time, seq, line, payload))
                continue
            deliverable = PendingInterrupt(fire_time=fire_time, line=line, payload=payload)
            break
        for item in kept:
            heapq.heappush(self._pending, item)
        if deliverable is not None:
            self.delivered_count[deliverable.line] = (
                self.delivered_count.get(deliverable.line, 0) + 1
            )
        return deliverable

    def clone_for_mc(self) -> "InterruptController":
        """Independent copy, whole but for the mask set, the pending heap
        (of immutable tuples) and the delivery counts."""
        other = copy_attributes(self)
        other._masked = set(self._masked)
        other._pending = list(self._pending)
        other.delivered_count = dict(self.delivered_count)
        return other

    def next_unmasked_fire_time(self) -> Optional[int]:
        """Earliest fire time among pending interrupts on unmasked lines."""
        times = [
            fire_time
            for fire_time, _seq, line, _payload in self._pending
            if line not in self._masked
        ]
        return min(times) if times else None

    def pending_lines(self) -> Set[int]:
        return {line for _t, _s, line, _p in self._pending}

    def fingerprint(self) -> Tuple:
        """Canonical controller state: mask set plus pending completions.

        A model-checker state hook: delivery behaviour is fully
        determined by which lines are masked and what is pending (the
        delivery-count statistics are audit evidence, not state).
        """
        return (
            tuple(sorted(self._masked)),
            tuple(sorted(
                (fire_time, line, payload)
                for fire_time, _seq, line, payload in self._pending
            )),
        )

    def _check_line(self, line: int) -> None:
        if not 0 <= line < self.n_lines:
            raise ValueError(f"IRQ line {line} out of range 0..{self.n_lines - 1}")
