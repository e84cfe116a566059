"""The domain-switch path: flush, deterministic kernel work, padding.

This is Case 2b of the paper's proof sketch (Sect. 5.2) made executable.
On every domain switch the kernel:

1. enters on the preemption timer (or an early IPC-forced switch),
2. runs the switched-from side of the switch code (fetched from the
   *from*-domain's kernel image),
3. flushes every core-local flushable state element -- whose latency
   depends on execution history (dirty lines), which is why step 5 exists,
4. runs the switched-to side (fetched from the *to*-domain's image) and
   sweeps the entire shared global kernel data region, deterministically
   re-normalising its cache state so that it is "independent of prior Hi
   activity",
5. pads: the next domain starts executing no earlier than the previous
   domain's slice end plus the previous domain's padding time
   (``Domain.pad_cycles``) -- by spinning on the hardware clock.

Every switch emits a :class:`SwitchRecord` carrying timestamps and, when
the run declared switch snapshots (``Evidence.switches``), post-flush
state fingerprints and LLC snapshots: the raw evidence from which the
proof obligations PO-3 (flush applied), PO-4 (constant-time switch) and
PO-5 (padding sufficient) are discharged by timestamp comparison --
"reducing this to a functional property as well" (Sect. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from ..hardware.cpu import Core
from ..hardware.machine import Machine
from .objects import Domain, KernelImage
from .timeprotect import TimeProtectionConfig

# Number of kernel-text lines the switch code occupies on each side.
SWITCH_CODE_LINES = 16


def estimate_pad_cycles(machine: Machine, kernel_data_lines: int) -> int:
    """A conservative WCET bound for the switch path, used as the pad.

    The paper (Sect. 4.2) requires the padding time to be "at least the
    worst-case latency of the flush, but also needs to account for any
    delay of the handling of the preemption-timer interrupt by other
    kernel entries".  This analytical bound sums:

    * the worst-case flush latency of every core-local flushable element
      (all lines dirty),
    * the switch code and kernel-data sweep with every access missing all
      the way to DRAM (plus a dirty write-back at each level),
    * a generous allowance for preemption overshoot (the interrupted
      instruction's worst-case latency plus trap handling),

    with a 50% margin.  Systems designers may override per domain.
    """
    config = machine.config
    worst_miss = (
        config.l1i_latency.hit_cycles
        + config.l1d_latency.hit_cycles
        + config.l2_latency.hit_cycles
        + config.llc_latency.hit_cycles
        + config.l1d_latency.writeback_cycles_per_line
        + config.l2_latency.writeback_cycles_per_line
        + 2 * config.interconnect_transfer_cycles
        + config.latency.dram_cycles
    )
    flush_wcet = 0
    for element in machine.flushable_elements_of_core(0):
        latency = getattr(element, "latency", None)
        geometry = getattr(element, "geometry", None)
        if latency is not None and geometry is not None and hasattr(geometry, "ways"):
            lines = geometry.sets * geometry.ways
            flush_wcet += (
                latency.flush_base_cycles + lines * latency.writeback_cycles_per_line
            )
        else:
            flush_wcet += getattr(element, "flush_latency_cycles", 16)
    work_wcet = (2 * SWITCH_CODE_LINES + kernel_data_lines) * worst_miss
    overshoot = 8 * worst_miss + config.latency.trap_entry_cycles + 200
    return int(1.5 * (flush_wcet + work_wcet + overshoot)) + 500


@dataclass
class SwitchRecord:
    """Evidence from one domain switch."""

    core_id: int
    from_domain: str
    to_domain: str
    scheduled_at: int  # slice end (or forced IPC switch point)
    entered_at: int  # when the kernel actually got control
    flush_cycles: int
    lines_written_back: int
    work_cycles: int
    finished_at: int  # flush+work complete
    pad_target: Optional[int]  # None when padding disabled
    released_at: int  # when the next domain starts executing
    overrun: bool  # finished_at > pad_target (padding insufficient)
    post_flush_fingerprints: Dict[str, Hashable] = field(default_factory=dict)
    reset_fingerprints: Dict[str, Hashable] = field(default_factory=dict)
    flushed_elements: Tuple[str, ...] = ()
    # LLC contents (resident tags) per page colour, captured at release:
    # the evidence for kernel-shared-state determinism (PO-7) and for the
    # per-switch unwinding condition.
    llc_colour_fingerprints: Dict[int, Tuple] = field(default_factory=dict)
    # LLC contents per way-partition owner (only populated when CAT-style
    # way quotas are configured): the Lo-visible projection under way
    # partitioning.
    llc_owner_fingerprints: Dict[str, Tuple] = field(default_factory=dict)

    @property
    def switch_latency(self) -> int:
        """Lo-visible switch duration: scheduled end to actual release."""
        return self.released_at - self.scheduled_at


class SwitchPath:
    """Executes domain switches on a machine under a TP configuration."""

    def __init__(
        self,
        machine: Machine,
        tp: TimeProtectionConfig,
        kernel_data_paddrs: List[int],
    ):
        self.machine = machine
        self.tp = tp
        self.kernel_data_paddrs = kernel_data_paddrs
        self.records: List[SwitchRecord] = []

    def llc_fingerprints_by_owner(self) -> Dict[str, Tuple]:
        """Resident LLC tags grouped by way-partition owner."""
        llc = self.machine.llc
        if not llc.way_quota:
            return {}
        by_owner: Dict[str, List] = {}
        for set_index in range(llc.geometry.sets):
            for tag, owner in llc.resident_lines(set_index):
                by_owner.setdefault(owner, []).append((set_index, tag))
        return {
            owner: tuple(sorted(entries)) for owner, entries in by_owner.items()
        }

    def execute(
        self,
        core: Core,
        from_domain: Domain,
        to_domain: Domain,
        scheduled_at: int,
    ) -> SwitchRecord:
        """Run the full switch path on ``core``; returns the evidence record.

        The caller (kernel run loop) has already detected the preemption
        point; ``core.clock.now`` is the kernel entry time, which may
        exceed ``scheduled_at`` by the latency of the interrupted
        instruction and any kernel entry handling -- the overshoot the
        padding must also absorb (Sect. 4.2).
        """
        entered_at = core.clock.now
        work_cycles = 0
        snapshots = self.machine.instrumentation.evidence.switches

        # From-side switch code, fetched from the from-domain's image.
        work_cycles += self._run_switch_code(core, from_domain.kernel_image, side=0)

        # Flush all core-local flushable state.
        flush_cycles = 0
        lines_written_back = 0
        post_flush: Dict[str, Hashable] = {}
        reset_fps: Dict[str, Hashable] = {}
        flushed: List[str] = []
        if self.tp.flush_on_switch:
            for element in self.machine.flushable_elements_of_core(core.core_id):
                result = element.flush()
                flush_cycles += result.cycles
                lines_written_back += result.lines_written_back
                if snapshots:
                    post_flush[element.name] = element.fingerprint()
                    reset_fps[element.name] = element.reset_fingerprint()
                flushed.append(element.name)
        core.clock.advance(flush_cycles)

        # To-side switch code from the to-domain's image, then the shared
        # kernel data accesses: under time protection, a deterministic
        # full sweep that re-normalises the shared region's cache state
        # (the Case 2a property); without it, just the scheduler's
        # bookkeeping words, whose residency then carries history.
        work_cycles += self._run_switch_code(core, to_domain.kernel_image, side=1)
        if self.tp.flush_on_switch:
            work_cycles += self._sweep_kernel_data(core)
        else:
            work_cycles += self._touch_scheduler_data(core)

        finished_at = core.clock.now

        pad_target: Optional[int] = None
        overrun = False
        if self.tp.pad_switch:
            pad_target = scheduled_at + from_domain.pad_cycles
            overrun = finished_at > pad_target
            core.clock.advance_to(pad_target)
        released_at = core.clock.now

        record = SwitchRecord(
            core_id=core.core_id,
            from_domain=from_domain.name,
            to_domain=to_domain.name,
            scheduled_at=scheduled_at,
            entered_at=entered_at,
            flush_cycles=flush_cycles,
            lines_written_back=lines_written_back,
            work_cycles=work_cycles,
            finished_at=finished_at,
            pad_target=pad_target,
            released_at=released_at,
            overrun=overrun,
            post_flush_fingerprints=post_flush,
            reset_fingerprints=reset_fps,
            flushed_elements=tuple(flushed),
            llc_colour_fingerprints=(
                self.machine.llc.resident_tags_by_colour() if snapshots else {}
            ),
            llc_owner_fingerprints=(
                self.llc_fingerprints_by_owner() if snapshots else {}
            ),
        )
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Deterministic kernel work
    # ------------------------------------------------------------------

    def _run_switch_code(self, core: Core, image: Optional[KernelImage], side: int) -> int:
        """Fetch the switch code's text lines through the I-side hierarchy."""
        if image is None:
            return 0
        cycles = 0
        for paddr in image.text_lines(side * SWITCH_CODE_LINES, SWITCH_CODE_LINES):
            cycles += core.cached_access(paddr, False, True)
        core.clock.advance(cycles)
        return cycles

    def _touch_scheduler_data(self, core: Core) -> int:
        """The baseline kernel's switch-time data accesses (no sweep)."""
        cycles = 0
        for paddr in self.kernel_data_paddrs[:4]:
            cycles += core.cached_access(paddr, False)
        core.clock.advance(cycles)
        return cycles

    def _sweep_kernel_data(self, core: Core) -> int:
        """Touch every line of global kernel data (normalisation sweep).

        After this sweep the cache state of the shared kernel region is
        the same no matter what ran before -- the property Case 2a of the
        proof relies on.
        """
        cycles = 0
        for paddr in self.kernel_data_paddrs:
            cycles += core.cached_access(paddr, False)
        core.clock.advance(cycles)
        return cycles
