"""The static domain scheduler (seL4-style).

Each core runs a fixed, repeating schedule of (domain, time-slice)
entries.  The schedule is static policy set at configuration time; the
kernel only provides the mechanism (deterministic switch points).  Slices
are *not* work-conserving: a domain with nothing to run idles out its
slice, because donating leftover time to the next domain would itself be
a timing channel.

Synchronous cross-domain IPC (the downgrader scenario, Figure 1) can
*truncate* the current slice: ``force_switch_at`` schedules an early
switch to the receiver's domain.  With padded IPC the truncation point is
deterministic; without it, the truncation time reveals the sender's
execution time -- experiment E1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .objects import Domain


@dataclass
class CoreScheduleState:
    """Per-core scheduler bookkeeping."""

    entries: List[Tuple[Domain, int]]
    position: int = 0
    slice_start: int = 0
    slice_end: int = 0
    forced_next: Optional[Domain] = None
    forced_switch_at: Optional[int] = None

    @property
    def current(self) -> Domain:
        return self.entries[self.position][0]

    @property
    def current_slice_cycles(self) -> int:
        return self.entries[self.position][1]

    def effective_switch_time(self) -> int:
        """When the current slice actually ends (early IPC switch or timer)."""
        if self.forced_switch_at is not None:
            return min(self.forced_switch_at, self.slice_end)
        return self.slice_end


class DomainScheduler:
    """Static round-robin domain schedules, one per core."""

    def __init__(self):
        self._cores: Dict[int, CoreScheduleState] = {}

    def set_schedule(
        self, core_id: int, entries: List[Tuple[Domain, Optional[int]]]
    ) -> None:
        """Install the repeating (domain, slice) list for ``core_id``.

        A ``None`` slice uses the domain's own ``slice_cycles``.
        """
        if not entries:
            raise ValueError("schedule must contain at least one domain")
        resolved = [
            (domain, slice_cycles if slice_cycles is not None else domain.slice_cycles)
            for domain, slice_cycles in entries
        ]
        state = CoreScheduleState(entries=resolved)
        state.slice_start = 0
        state.slice_end = resolved[0][1]
        self._cores[core_id] = state

    def state(self, core_id: int) -> CoreScheduleState:
        return self._cores[core_id]

    def current_domain(self, core_id: int) -> Domain:
        return self._cores[core_id].current

    def scheduled_cores(self) -> List[int]:
        return sorted(self._cores)

    def domains_on_core(self, core_id: int) -> List[Domain]:
        seen = []
        for domain, _slice in self._cores[core_id].entries:
            if domain not in seen:
                seen.append(domain)
        return seen

    # ------------------------------------------------------------------
    # Switch points
    # ------------------------------------------------------------------

    def force_switch(
        self, core_id: int, to_domain: Domain, at_time: int
    ) -> None:
        """Truncate the current slice: switch to ``to_domain`` at ``at_time``.

        Used by synchronous IPC ("call"): the sender's slice ends early in
        favour of the receiver's domain.
        """
        state = self._cores[core_id]
        state.forced_next = to_domain
        state.forced_switch_at = at_time

    def peek_next(self, core_id: int) -> Domain:
        """The domain that will run after the next switch on ``core_id``."""
        state = self._cores[core_id]
        if state.forced_next is not None:
            return state.forced_next
        return state.entries[(state.position + 1) % len(state.entries)][0]

    def advance(self, core_id: int, release_time: int) -> Tuple[Domain, Domain]:
        """Move to the next schedule entry; returns (from, to) domains.

        ``release_time`` is when the incoming domain actually starts
        executing (after flush and padding); the new slice runs from
        there.
        """
        state = self._cores[core_id]
        from_domain = state.current
        if state.forced_next is not None:
            to_domain = state.forced_next
            # Jump the rotor to the forced domain's next occurrence so the
            # static schedule resumes from there.
            for offset in range(1, len(state.entries) + 1):
                candidate = (state.position + offset) % len(state.entries)
                if state.entries[candidate][0] is to_domain:
                    state.position = candidate
                    break
            else:
                raise ValueError(
                    f"forced domain {to_domain.name!r} not in core {core_id} schedule"
                )
            state.forced_next = None
            state.forced_switch_at = None
        else:
            state.position = (state.position + 1) % len(state.entries)
            to_domain = state.current
        state.slice_start = release_time
        state.slice_end = release_time + state.current_slice_cycles
        return from_domain, to_domain
