"""The microkernel model: boot, domain/thread management, the run loop.

This ties the mechanisms together into an seL4-like kernel with time
protection (Ge et al. [2019], as summarised in Sect. 4.2 of the paper):

* boot reserves the kernel's shared colour, builds the master kernel
  image and the global kernel data region;
* domains get disjoint colours, a cloned kernel image, a time slice, a
  padding time and (optionally) owned IRQ lines;
* threads are user programs (generators over the abstract ISA) in
  coloured address spaces, with the domain's kernel text also mapped
  read-only (the "shared text" surface that Flush+Reload attacks);
* the run loop interleaves cores in global-time order, executing user
  instructions, syscalls, interrupt deliveries and padded domain switches,
  and records everything the proof layer needs: per-domain observation
  traces, switch records, interrupt delivery records and state touches.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hardware.cpu import Core, TrapKind
from ..hardware.isa import Observation, ProgramContext
from ..hardware.machine import Machine
from ..hardware.mmu import AddressSpaceManager
from .colour_alloc import ColourAwareAllocator
from .clone import KernelCloneManager
from .ipc import Endpoint, EndpointTable
from .irq_policy import IrqPartitionPolicy
from .objects import Domain, ReplayableProgram, Tcb, ThreadState
from .scheduler import CoreScheduleState, DomainScheduler
from .switch import SwitchPath, SwitchRecord, estimate_pad_cycles
from .syscalls import SyscallHandler, SyscallOutcome
from .timeprotect import TimeProtectionConfig

CODE_BASE = 0x0001_0000
DATA_BASE = 0x0100_0000
KTEXT_BASE = 0x0F00_0000

_TIMER_TICK_CYCLES = 30
_IRQ_HANDLER_LINES = 10
_IRQ_HANDLER_LINE_OFFSET = 160
_IRQ_HANDLER_BASE_CYCLES = 30


@dataclass(slots=True)
class IrqDeliveryRecord:
    """Evidence of one delivered device interrupt."""

    core_id: int
    line: int
    fire_time: int
    delivered_at: int
    running_domain: str
    owner_domain: Optional[str]
    handler_cycles: int


@dataclass(slots=True)
class ObservationRecord:
    """One program-visible observation (the Lo trace unit)."""

    thread: str
    value: Optional[int]
    latency: int


class Kernel:
    """The kernel model, bootable on any :class:`Machine`."""

    # Distinct kernel-text lines used by handlers (switch code, syscall
    # table, IRQ handlers); the image must be at least this big so
    # different handlers live on different cache lines.
    KERNEL_TEXT_LINES = 192

    def __init__(
        self,
        machine: Machine,
        tp: Optional[TimeProtectionConfig] = None,
        kernel_image_pages: Optional[int] = None,
        kernel_data_pages: int = 2,
        record_observations: bool = True,
    ):
        self.machine = machine
        self.tp = tp if tp is not None else TimeProtectionConfig.full()
        self.record_observations = record_observations
        # Counting instrumentation must be installed before any kernel
        # subsystem (SwitchPath, SyscallHandler) captures the machine's
        # instrumentation reference.
        counting = self.tp.instrumentation == "counting"
        if counting:
            machine.use_counting_instrumentation()
        line_size = machine.config.llc_geometry.line_size
        if kernel_image_pages is None:
            lines_per_page = max(1, machine.page_size // line_size)
            kernel_image_pages = -(-self.KERNEL_TEXT_LINES // lines_per_page)
        self.allocator = ColourAwareAllocator(
            machine.memory, self.tp.cache_colouring
        )
        self.clone_manager = KernelCloneManager(
            self.allocator,
            image_pages=kernel_image_pages,
            line_size=line_size,
            clone_enabled=self.tp.kernel_clone,
        )
        data_frames = self.allocator.alloc_kernel_frames(kernel_data_pages)
        page_size = machine.page_size
        self.kernel_data_paddrs: List[int] = [
            frame.base_paddr(page_size) + offset
            for frame in data_frames
            for offset in range(0, page_size, line_size)
        ]
        self.kernel_data_frames = data_frames
        self.endpoints = EndpointTable(
            padded_ipc=self.tp.padded_ipc,
            default_min_cycles=self.tp.default_ipc_min_cycles,
        )
        self.irq_policy = IrqPartitionPolicy(
            enabled=self.tp.partition_interrupts,
            n_lines=machine.config.irq_lines,
        )
        self.scheduler = DomainScheduler()
        # Per-switch LLC fingerprints exist only as proof/audit evidence;
        # counting-mode runs skip capturing them (a large per-switch cost).
        self.switch_path = SwitchPath(
            machine,
            self.tp,
            self.kernel_data_paddrs,
            record_fingerprints=not counting,
        )
        self.syscalls = SyscallHandler(
            endpoints=self.endpoints,
            irq_policy=self.irq_policy,
            scheduler=self.scheduler,
            kernel_data_paddrs=self.kernel_data_paddrs,
            instrumentation=machine.instrumentation,
        )
        self.spaces = AddressSpaceManager(machine.memory)
        self.pad_wcet_estimate = estimate_pad_cycles(
            machine, kernel_data_lines=len(self.kernel_data_paddrs)
        )
        # CAT-style way allocation: reserve a slice of the associativity
        # for the kernel's shared accesses, hand the rest to domains.
        self._way_quotas: Dict[str, int] = {}
        if self.tp.way_partitioning:
            llc_ways = machine.config.llc_geometry.ways
            self._way_quotas["@kernel"] = max(1, llc_ways // 8)
            machine.llc.set_way_quotas(self._way_quotas)
        self.domains: Dict[str, Domain] = {}
        self.observations: Dict[str, List[ObservationRecord]] = {}
        self.irq_deliveries: List[IrqDeliveryRecord] = []
        self._current_tcb: Dict[int, Optional[Tcb]] = {}
        self._next_domain_id = 1
        self._thread_counter = 0
        # Thread-list snapshot for the per-step all-finished check,
        # invalidated by ``_thread_counter`` whenever a thread is created.
        self._threads_snapshot: Tuple[Tcb, ...] = ()
        self._threads_version = -1
        # The all-finished scan only needs to re-run after some thread
        # transitions to DONE/FAULTED (no other event can make it true);
        # the run loop consults this flag instead of scanning every step.
        self._finish_check_needed = True
        self.total_steps = 0
        # Per-step latency dependency footprints (the paper's "unspecified
        # deterministic function" argument lists), captured when
        # ``capture_footprints`` is enabled.  Entries are
        # (case, context, ((element, index, kind), ...)) with case one of
        # "1" (user step), "2a" (trap), "2b" (domain switch).
        self.capture_footprints = False
        self.step_footprints: List[Tuple[str, str, Tuple]] = []
        # Lightweight sibling of ``capture_footprints``: records only the
        # (case, context) pairs of the Sect. 5.2 case split, without the
        # per-touch footprint tuples.  The model checker's case-trace
        # comparison needs exactly this and nothing more, so MC systems
        # enable ``capture_cases`` instead of paying for full footprints.
        self.capture_cases = False
        self.step_cases: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Configuration surface
    # ------------------------------------------------------------------

    def create_domain(
        self,
        name: str,
        n_colours: Optional[int] = None,
        slice_cycles: int = 3000,
        pad_cycles: Optional[int] = None,
        irq_lines: Tuple[int, ...] = (),
        llc_ways: Optional[int] = None,
    ) -> Domain:
        """Create a security domain with its colour share and kernel image.

        Under way partitioning, ``llc_ways`` (default: a quarter of what
        remains after the kernel's reservation) becomes the domain's
        CAT-style way quota.
        """
        if name in self.domains:
            raise ValueError(f"domain {name!r} already exists")
        colours = self.allocator.assign_domain_colours(name, n_colours)
        if self.tp.way_partitioning:
            total_ways = self.machine.config.llc_geometry.ways
            remaining = total_ways - sum(self._way_quotas.values())
            quota = llc_ways if llc_ways is not None else max(1, remaining // 4)
            if quota > remaining:
                raise ValueError(
                    f"domain {name!r} wants {quota} LLC ways, only "
                    f"{remaining} remain"
                )
            self._way_quotas[name] = quota
            self.machine.llc.set_way_quotas(self._way_quotas)
        domain = Domain(
            name=name,
            domain_id=self._next_domain_id,
            colours=colours,
            slice_cycles=slice_cycles,
            pad_cycles=self._resolve_pad_cycles(pad_cycles),
        )
        self._next_domain_id += 1
        domain.kernel_image = self.clone_manager.image_for_domain(domain)
        for line in irq_lines:
            self.irq_policy.assign(line, domain)
        self.domains[name] = domain
        self.observations[name] = []
        return domain

    def _resolve_pad_cycles(self, pad_cycles: Optional[int]) -> int:
        """Explicit value, else the config's, else the WCET estimate."""
        if pad_cycles is not None:
            return pad_cycles
        if self.tp.default_pad_cycles is not None:
            return self.tp.default_pad_cycles
        return self.pad_wcet_estimate

    def create_thread(
        self,
        domain: Domain,
        program_factory,
        core_id: int = 0,
        data_pages: int = 4,
        code_pages: int = 1,
        params: Optional[dict] = None,
        name: Optional[str] = None,
    ) -> Tcb:
        """Create a thread running ``program_factory(ctx)`` in ``domain``.

        The thread gets a coloured address space with a code region, a
        private data buffer, and the domain's kernel text mapped
        read-only at ``KTEXT_BASE``.
        """
        page_size = self.machine.page_size
        colours = domain.colours if self.tp.cache_colouring else None
        space = self.spaces.create(colours=colours)
        for page_index, frame in enumerate(
            self.allocator.alloc_for_domain(domain.name, code_pages)
        ):
            space.map(CODE_BASE + page_index * page_size, frame, writable=False)
        data_frames = self.allocator.alloc_for_domain(domain.name, data_pages)
        for page_index, frame in enumerate(data_frames):
            space.map(DATA_BASE + page_index * page_size, frame, writable=True)
        image = domain.kernel_image
        for page_index, frame in enumerate(image.frames):
            space.map(KTEXT_BASE + page_index * page_size, frame, writable=False)
        context = ProgramContext(
            data_base=DATA_BASE,
            data_size=data_pages * page_size,
            code_base=CODE_BASE,
            page_size=page_size,
            line_size=self.machine.config.llc_geometry.line_size,
            shared_text_base=KTEXT_BASE,
            shared_text_size=image.size_bytes,
            page_colours=tuple(frame.colour for frame in data_frames),
            params=dict(params or {}),
        )
        self._thread_counter += 1
        tcb = Tcb(
            name=name or f"{domain.name}.t{self._thread_counter}",
            domain=domain,
            space=space,
            program=program_factory(context),
            pc=CODE_BASE,
            core_id=core_id,
            code_base=CODE_BASE,
            code_size=code_pages * page_size,
        )
        domain.threads.append(tcb)
        return tcb

    def create_endpoint(
        self,
        name: str,
        min_exec_cycles: Optional[int] = None,
        receiver_domain: Optional[Domain] = None,
    ) -> Endpoint:
        return self.endpoints.create(
            name, min_exec_cycles=min_exec_cycles, receiver_domain=receiver_domain
        )

    def set_schedule(
        self, core_id: int, entries: List[Tuple[Domain, Optional[int]]]
    ) -> None:
        """Install the static domain schedule for one core."""
        self.scheduler.set_schedule(core_id, entries)
        self._current_tcb[core_id] = None
        first = self.scheduler.current_domain(core_id)
        self.irq_policy.apply_masks(self.machine.cores[core_id].irq, first)

    # ------------------------------------------------------------------
    # Derived accessors
    # ------------------------------------------------------------------

    @property
    def switch_records(self) -> List[SwitchRecord]:
        return self.switch_path.records

    def observation_trace(self, domain_name: str) -> List[Tuple[str, Optional[int], int]]:
        """The full observation trace of a domain, as comparable tuples."""
        return [
            (record.thread, record.value, record.latency)
            for record in self.observations[domain_name]
        ]

    def all_threads(self) -> List[Tcb]:
        return [tcb for domain in self.domains.values() for tcb in domain.threads]

    def current_thread(self, core_id: int) -> Optional[Tcb]:
        """The thread ``core_id`` last dispatched (scheduling state)."""
        return self._current_tcb.get(core_id)

    # ------------------------------------------------------------------
    # Clone (model-checker lockstep stepping)
    # ------------------------------------------------------------------

    def clone_for_mc(self) -> "Kernel":
        """An independent copy of the whole system, machine included.

        The model checker (``repro.mc``) clones a kernel at every
        branching point and steps the copies independently.  Behaviourally
        identical to ``copy.deepcopy`` but much faster: the object graph
        is walked explicitly, sharing everything immutable after build
        (address spaces, kernel images, IRQ ownership, the clone manager,
        write-once switch/observation records) and copying only the
        mutable residue.  Thread programs must carry explicit state:
        raw generators cannot be copied, so model-checked systems build
        their threads from :class:`repro.kernel.objects.ReplayableProgram`.
        Raises ``TypeError`` for anything else, and for machines running
        counting instrumentation.
        """
        machine = self.machine.clone_for_mc()
        other = Kernel.__new__(Kernel)
        other.machine = machine
        other.tp = self.tp
        other.record_observations = self.record_observations
        # Allocator: rebind to the cloned memory; colour assignments are
        # static after build but the dict itself can in principle grow.
        allocator = ColourAwareAllocator.__new__(ColourAwareAllocator)
        allocator.memory = machine.memory
        allocator.colouring_enabled = self.allocator.colouring_enabled
        allocator.n_colours = self.allocator.n_colours
        allocator.kernel_colours = set(self.allocator.kernel_colours)
        allocator._assigned = {
            name: set(colours)
            for name, colours in self.allocator._assigned.items()
        }
        other.allocator = allocator
        other.clone_manager = self.clone_manager  # static after build
        other.kernel_data_paddrs = self.kernel_data_paddrs
        other.kernel_data_frames = self.kernel_data_frames
        other.irq_policy = self.irq_policy  # static owner map
        # Domains and threads, with name-keyed maps (names are unique
        # and stable) so every cross-reference (scheduler entries,
        # endpoint receivers, current tcbs) lands on the clone of the
        # object it pointed at.
        domain_map: Dict[str, Domain] = {}
        tcb_map: Dict[str, Tcb] = {}
        other.domains = {}
        for name, domain in self.domains.items():
            dclone = Domain(
                name=domain.name,
                domain_id=domain.domain_id,
                colours=set(domain.colours),
                slice_cycles=domain.slice_cycles,
                pad_cycles=domain.pad_cycles,
                irq_lines=set(domain.irq_lines),
                kernel_image=domain.kernel_image,
            )
            dclone.rr_position = dict(domain.rr_position)
            domain_map[domain.name] = dclone
            other.domains[name] = dclone
            for tcb in domain.threads:
                program = tcb.program
                if type(program) is ReplayableProgram:
                    pclone = ReplayableProgram(
                        program.step_fn, copy.deepcopy(program.ctx)
                    )
                    pclone.index = program.index
                    pclone.finished = program.finished
                else:
                    raise TypeError(
                        "clone_for_mc needs ReplayableProgram threads "
                        f"(got {type(program).__name__})"
                    )
                tclone = Tcb(
                    name=tcb.name,
                    domain=dclone,
                    space=tcb.space,
                    program=pclone,
                    pc=tcb.pc,
                    core_id=tcb.core_id,
                    code_base=tcb.code_base,
                    code_size=tcb.code_size,
                    state=tcb.state,
                    started=tcb.started,
                    pending_obs=tcb.pending_obs,
                    blocked_on_endpoint=tcb.blocked_on_endpoint,
                    wake_time=tcb.wake_time,
                    steps_executed=tcb.steps_executed,
                )
                tcb_map[tcb.name] = tclone
                dclone.threads.append(tclone)
        # Endpoints: fresh table and Endpoint shells; Message objects are
        # write-once, so queues share entries but not the deque.
        endpoints = EndpointTable.__new__(EndpointTable)
        endpoints.padded_ipc = self.endpoints.padded_ipc
        endpoints.default_min_cycles = self.endpoints.default_min_cycles
        endpoints._next_id = self.endpoints._next_id
        endpoints.n_endpoints = self.endpoints.n_endpoints
        endpoints._endpoints = {}
        for eid, endpoint in self.endpoints._endpoints.items():
            receiver = endpoint.receiver_domain
            endpoints._endpoints[eid] = Endpoint(
                endpoint_id=endpoint.endpoint_id,
                name=endpoint.name,
                min_exec_cycles=endpoint.min_exec_cycles,
                queue=type(endpoint.queue)(endpoint.queue),
                receiver_domain=(
                    domain_map[receiver.name] if receiver is not None else None
                ),
            )
        other.endpoints = endpoints
        # Scheduler: rebuild per-core state with mapped domains.
        scheduler = DomainScheduler()
        for core_id, state in self.scheduler._cores.items():
            sclone = CoreScheduleState(
                entries=[
                    (domain_map[domain.name], slice_cycles)
                    for domain, slice_cycles in state.entries
                ]
            )
            sclone.position = state.position
            sclone.slice_start = state.slice_start
            sclone.slice_end = state.slice_end
            forced = state.forced_next
            sclone.forced_next = (
                domain_map[forced.name] if forced is not None else None
            )
            sclone.forced_switch_at = state.forced_switch_at
            scheduler._cores[core_id] = sclone
        other.scheduler = scheduler
        # Switch path: SwitchRecord objects are write-once evidence, so
        # the clone shares the records while owning its own list.
        switch_path = SwitchPath.__new__(SwitchPath)
        switch_path.machine = machine
        switch_path.tp = self.switch_path.tp
        switch_path.kernel_data_paddrs = self.switch_path.kernel_data_paddrs
        switch_path.record_fingerprints = self.switch_path.record_fingerprints
        switch_path.records = list(self.switch_path.records)
        other.switch_path = switch_path
        other.syscalls = SyscallHandler(
            endpoints=endpoints,
            irq_policy=other.irq_policy,
            scheduler=scheduler,
            kernel_data_paddrs=other.kernel_data_paddrs,
            instrumentation=machine.instrumentation,
        )
        # Address spaces only mutate at build time (map/unmap); during
        # exploration they are read-only and safe to share.
        other.spaces = self.spaces
        other.pad_wcet_estimate = self.pad_wcet_estimate
        other._way_quotas = self._way_quotas
        other.observations = {
            name: list(records) for name, records in self.observations.items()
        }
        other.irq_deliveries = list(self.irq_deliveries)
        other._current_tcb = {
            core_id: (tcb_map[tcb.name] if tcb is not None else None)
            for core_id, tcb in self._current_tcb.items()
        }
        other._next_domain_id = self._next_domain_id
        other._thread_counter = self._thread_counter
        other._threads_snapshot = ()
        other._threads_version = -1  # force recompute on the clone
        other._finish_check_needed = self._finish_check_needed
        other.total_steps = self.total_steps
        other.capture_footprints = self.capture_footprints
        other.step_footprints = list(self.step_footprints)
        other.capture_cases = self.capture_cases
        other.step_cases = list(self.step_cases)
        fp_cache = getattr(self, "_mc_fp_cache", None)
        if fp_cache is not None:
            other._mc_fp_cache = dict(fp_cache)
        return other

    def step(self, core_id: int = 0, max_cycles: int = 1_000_000_000) -> None:
        """Execute exactly one scheduler step on ``core_id``.

        The single-transition hook the model checker drives: one user
        instruction, syscall, interrupt delivery, idle advance or domain
        switch -- whatever the run loop would do next on that core.
        """
        self._step_core(self.machine.cores[core_id], max_cycles)

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: int, max_steps: int = 50_000_000) -> None:
        """Run all scheduled cores in global time order until ``max_cycles``."""
        cores = [
            self.machine.cores[core_id]
            for core_id in self.scheduler.scheduled_cores()
        ]
        if not cores:
            raise RuntimeError("no core has a schedule; call set_schedule first")
        steps = 0
        self._finish_check_needed = True
        if len(cores) == 1:
            # Single scheduled core (the common case): the min-clock
            # candidate selection degenerates to one comparison per step.
            core = cores[0]
            clock = core.clock
            while steps < max_steps and clock.now < max_cycles:
                if self._finish_check_needed:
                    if self._all_threads_finished():
                        break
                    self._finish_check_needed = False
                self._step_core(core, max_cycles)
                steps += 1
        else:
            while steps < max_steps:
                # Earliest-clock core still below the horizon (ties keep
                # the lowest core id, matching list order).
                core = None
                best = max_cycles
                for candidate in cores:
                    t = candidate.clock.now
                    if t < best:
                        best = t
                        core = candidate
                if core is None:
                    break
                if self._finish_check_needed:
                    if self._all_threads_finished():
                        break
                    self._finish_check_needed = False
                self._step_core(core, max_cycles)
                steps += 1
        self.total_steps += steps

    def _all_threads_finished(self) -> bool:
        if self._threads_version != self._thread_counter:
            self._threads_snapshot = tuple(self.all_threads())
            self._threads_version = self._thread_counter
        threads = self._threads_snapshot
        if not threads:
            return False
        done = ThreadState.DONE
        faulted = ThreadState.FAULTED
        for tcb in threads:
            state = tcb.state
            if state is not done and state is not faulted:
                return False
        return True

    def _step_core(self, core: Core, max_cycles: int) -> None:
        core_id = core.core_id
        state = self.scheduler.state(core_id)
        now = core.clock.now
        # Inline state.effective_switch_time() / state.current: this runs
        # once per simulated step.
        forced = state.forced_switch_at
        slice_end = state.slice_end
        switch_at = slice_end if forced is None or forced >= slice_end else forced
        if now >= switch_at:
            self._do_switch(core, switch_at)
            return
        domain = state.entries[state.position][0]
        pending = core.irq.deliverable(now)
        if pending is not None:
            self._handle_irq(core, domain, pending)
            return
        if self.endpoints.n_endpoints:
            self._unblock_receivers()
        tcb = self._pick_thread(core, domain, now)
        if tcb is None:
            self._idle(core, domain, now, switch_at)
            return
        self._execute_step(core, domain, tcb)

    # -- thread selection ------------------------------------------------

    def _pick_thread(self, core: Core, domain: Domain, now: int) -> Optional[Tcb]:
        current = self._current_tcb.get(core.core_id)
        if current is not None and current.domain is domain:
            # Inlined current.runnable(now); this test runs every step.
            if current.state is ThreadState.READY:
                wake = current.wake_time
                if wake is None or now >= wake:
                    return current
        tcb = domain.next_runnable(core.core_id, now)
        self._current_tcb[core.core_id] = tcb
        return tcb

    def _idle(self, core: Core, domain: Domain, now: int, switch_at: int) -> None:
        """Nothing runnable: advance to the next relevant event.

        The slice is *not* donated -- idling to the slice end is what
        keeps the schedule's switch points history-independent.
        """
        targets = [switch_at]
        wake = domain.earliest_wake(core.core_id, now)
        if wake is not None:
            targets.append(wake)
        irq_time = core.irq.next_unmasked_fire_time()
        if irq_time is not None and irq_time > now:
            targets.append(irq_time)
        for tcb in domain.threads_on_core(core.core_id):
            if tcb.state is ThreadState.BLOCKED and tcb.blocked_on_endpoint:
                visible = self.endpoints.get(
                    tcb.blocked_on_endpoint
                ).next_visibility_time()
                if visible is not None and visible > now:
                    targets.append(visible)
        target = min(t for t in targets if t > now) if any(
            t > now for t in targets
        ) else switch_at
        core.clock.advance_to(min(target, switch_at))
        if core.clock.now <= now:
            # Ensure forward progress even on degenerate schedules.
            core.clock.advance(1)

    # -- program execution -----------------------------------------------

    def _execute_step(self, core: Core, domain: Domain, tcb: Tcb) -> None:
        instrumentation = self.machine.instrumentation
        instrumentation.set_context(domain.name, core.core_id, core.clock.now)
        if self.capture_footprints:
            instrumentation.track_footprint = True
            instrumentation.reset_footprint()
        case = self._execute_step_inner(core, domain, tcb)
        if case is not None:
            if self.capture_footprints:
                self.step_footprints.append(
                    (case, domain.name, tuple(instrumentation.footprint))
                )
            if self.capture_cases:
                self.step_cases.append((case, domain.name))

    def _execute_step_inner(
        self, core: Core, domain: Domain, tcb: Tcb
    ) -> Optional[str]:
        delivered = tcb.pending_obs if tcb.pending_obs is not None else Observation()
        tcb.pending_obs = None
        try:
            if not tcb.started:
                instruction = next(tcb.program)
                tcb.started = True
            else:
                instruction = tcb.program.send(delivered)
        except StopIteration:
            tcb.state = ThreadState.DONE
            self._finish_check_needed = True
            self._current_tcb[core.core_id] = None
            core.clock.advance(1)
            return None
        # Inlined tcb.normalise_pc(): wrap the synthetic pc back into the
        # code region without a per-step method call.
        code_size = tcb.code_size
        if code_size > 0:
            rel = tcb.pc - tcb.code_base
            if rel < 0 or rel >= code_size:
                tcb.pc = tcb.code_base + rel % code_size
        result = core.execute_user(tcb.space, tcb.pc, instruction)
        tcb.pc = result.new_pc
        tcb.steps_executed += 1
        if result.trap is None:
            value = result.value
            latency = result.latency
            tcb.pending_obs = Observation(value, latency)
            # _record() inlined: this is the once-per-user-step case.
            if self.record_observations:
                self.observations[domain.name].append(
                    ObservationRecord(tcb.name, value, latency)
                )
            return "1"
        if result.trap.kind is TrapKind.HALT:
            tcb.state = ThreadState.DONE
            self._finish_check_needed = True
            self._current_tcb[core.core_id] = None
            return None
        if result.trap.kind is TrapKind.FAULT:
            tcb.state = ThreadState.FAULTED
            self._finish_check_needed = True
            self._current_tcb[core.core_id] = None
            return "2a"
        # Syscall.
        before = core.clock.now
        outcome = self.syscalls.handle(core, domain, tcb, result.trap.syscall)
        kernel_latency = (core.clock.now - before) + result.latency
        if outcome.blocked:
            self._current_tcb[core.core_id] = None
            return "2a"
        tcb.pending_obs = Observation(outcome.retval, kernel_latency)
        self._record(domain, tcb, outcome.retval, kernel_latency)
        if outcome.yielded:
            self._current_tcb[core.core_id] = None
        return "2a"

    def _record(
        self, domain: Domain, tcb: Tcb, value: Optional[int], latency: int
    ) -> None:
        if self.record_observations:
            self.observations[domain.name].append(
                ObservationRecord(tcb.name, value, latency)
            )

    # -- IPC wakeups -------------------------------------------------------

    def _unblock_receivers(self) -> None:
        """Deliver visible messages to blocked receivers (on their cores)."""
        for domain in self.domains.values():
            for tcb in domain.threads:
                if (
                    tcb.state is ThreadState.BLOCKED
                    and tcb.blocked_on_endpoint is not None
                ):
                    receiver_now = self.machine.cores[tcb.core_id].clock.now
                    value = self.endpoints.try_receive(
                        tcb.blocked_on_endpoint, receiver_now
                    )
                    if value is not None:
                        tcb.state = ThreadState.READY
                        tcb.blocked_on_endpoint = None
                        tcb.pending_obs = Observation(value=value, latency=0)
                        self._record(domain, tcb, value, 0)

    # -- interrupts ----------------------------------------------------------

    def _handle_irq(self, core: Core, domain: Domain, pending) -> None:
        """Deliver a device interrupt: kernel handler cost hits whoever runs."""
        instrumentation = self.machine.instrumentation
        instrumentation.set_context(
            f"{domain.name}/kernel", core.core_id, core.clock.now
        )
        cycles = _IRQ_HANDLER_BASE_CYCLES
        image = domain.kernel_image
        if image is not None:
            for line in range(_IRQ_HANDLER_LINES):
                paddr = image.line_paddr(_IRQ_HANDLER_LINE_OFFSET + line)
                cycles += core.cached_access(paddr, write=False, fetch=True)
        for word in range(2):
            cycles += core.cached_access(self.kernel_data_paddrs[word], write=False)
        core.clock.advance(cycles)
        self.irq_deliveries.append(
            IrqDeliveryRecord(
                core_id=core.core_id,
                line=pending.line,
                fire_time=pending.fire_time,
                delivered_at=core.clock.now,
                running_domain=domain.name,
                owner_domain=self.irq_policy.owner_of(pending.line),
                handler_cycles=cycles,
            )
        )

    # -- domain switches -------------------------------------------------------

    def _do_switch(self, core: Core, scheduled_at: int) -> None:
        core_id = core.core_id
        state = self.scheduler.state(core_id)
        from_domain = state.current
        to_domain = self.scheduler.peek_next(core_id)
        if from_domain is to_domain:
            # Intra-domain slice rollover: a cheap timer tick, no flush,
            # no padding (time protection acts on *domain* switches only).
            core.clock.advance(_TIMER_TICK_CYCLES)
            self.scheduler.advance(core_id, release_time=core.clock.now)
            return
        context = f"@switch:{from_domain.name}>{to_domain.name}"
        self.machine.instrumentation.set_context(context, core_id, core.clock.now)
        if self.capture_footprints:
            self.machine.instrumentation.track_footprint = True
            self.machine.instrumentation.reset_footprint()
        record = self.switch_path.execute(core, from_domain, to_domain, scheduled_at)
        if self.capture_footprints:
            self.step_footprints.append(
                ("2b", context, tuple(self.machine.instrumentation.footprint))
            )
        if self.capture_cases:
            self.step_cases.append(("2b", context))
        self.scheduler.advance(core_id, release_time=record.released_at)
        self.irq_policy.apply_masks(core.irq, to_domain)
        self._current_tcb[core_id] = None
