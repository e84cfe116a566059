"""The shared memory interconnect: finite bandwidth, no history.

Sect. 2 of the paper deliberately *excludes* covert channels through
stateless interconnects: their finite bandwidth is observable under
concurrent access, but they hold no addressable state, so they cannot be
partitioned or flushed by the OS on any contemporary hardware.  We model
the interconnect as a single serial resource with a per-transfer occupancy
cost; concurrent requests queue, so one core's traffic measurably delays
another core's misses.  Experiment E7 demonstrates that this channel
survives full time protection, exactly as the paper concedes.

The footnote on Intel MBA (memory bandwidth allocation) is reproduced by
an optional *approximate* per-core throttle: cores exceeding a request
budget within a coarse accounting window are penalised.  Because the
enforcement is approximate and windowed, modulation remains visible and
the covert channel persists -- "not sufficient for preventing covert
channels".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .state import copy_attributes


@dataclass
class MbaConfig:
    """Approximate per-core bandwidth throttling (Intel MBA-style)."""

    window_cycles: int = 2000
    requests_per_window: int = 16
    throttle_delay_cycles: int = 40


@dataclass
class TransferResult:
    wait_cycles: int
    transfer_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.wait_cycles + self.transfer_cycles


class Interconnect:
    """A serial shared bus between the LLC and memory.

    Not a :class:`~repro.hardware.state.StateElement`: it is *stateless*
    in the paper's sense (no secret-addressable residue), yet it is a
    timing-relevant shared resource.  The abstract-model extraction lists
    it as a declared exclusion rather than as managed state.
    """

    name = "interconnect"

    def __init__(
        self,
        transfer_cycles: int = 24,
        mba: Optional[MbaConfig] = None,
    ):
        self.transfer_cycles = transfer_cycles
        self.mba = mba
        self._busy_until = 0
        self._window_start: Dict[int, int] = {}
        self._window_count: Dict[int, int] = {}
        self.total_transfers = 0
        self.per_core_transfers: Dict[int, int] = {}

    def clone_for_mc(self) -> "Interconnect":
        """Independent copy, whole but for the per-core window and
        transfer counts; the (frozen-by-convention) config is shared."""
        other = copy_attributes(self)
        other._window_start = dict(self._window_start)
        other._window_count = dict(self._window_count)
        other.per_core_transfers = dict(self.per_core_transfers)
        return other

    def request(self, core: int, now: int) -> TransferResult:
        """Serve one memory transfer for ``core`` starting at ``now``.

        Returns the queueing delay (contention from other cores' traffic)
        and the transfer occupancy itself.
        """
        start = max(now, self._busy_until)
        throttle = self._mba_penalty(core, start)
        start += throttle
        self._busy_until = start + self.transfer_cycles
        self.total_transfers += 1
        self.per_core_transfers[core] = self.per_core_transfers.get(core, 0) + 1
        return TransferResult(
            wait_cycles=(start - now), transfer_cycles=self.transfer_cycles
        )

    def _mba_penalty(self, core: int, now: int) -> int:
        if self.mba is None:
            return 0
        window_start = self._window_start.get(core, 0)
        if now - window_start >= self.mba.window_cycles:
            self._window_start[core] = now
            self._window_count[core] = 0
        count = self._window_count.get(core, 0) + 1
        self._window_count[core] = count
        if count > self.mba.requests_per_window:
            return self.mba.throttle_delay_cycles
        return 0

    def utilisation_since(self, transfers_before: int) -> int:
        """Transfers served since a recorded ``total_transfers`` value."""
        return self.total_transfers - transfers_before
