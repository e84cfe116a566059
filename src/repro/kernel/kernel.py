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
  until the cycle horizon or until every non-daemon thread has finished.
  Every run keeps per-domain observation traces, switch records and
  interrupt delivery records; the proof evidence on top of them (touch
  sets, the case log, footprints, switch snapshots) is recorded only as
  far as the run's consumer declared it (:meth:`Kernel.declare`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..hardware.cpu import Core, StepResult, TrapKind
from ..hardware.isa import Observation, ProgramContext
from ..hardware.machine import Machine
from ..hardware.mmu import AddressSpaceManager
from ..hardware.state import Evidence, Instrumentation, copy_attributes
from .colour_alloc import ColourAwareAllocator, ColourExhausted
from .clone import KernelCloneManager
from .ipc import Endpoint, EndpointTable
from .irq_policy import IrqPartitionPolicy
from .objects import Domain, ReplayableProgram, Tcb, ThreadState
from .scheduler import DomainScheduler
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
#: Pages of the global kernel data region, in the kernel's shared colour.
_KERNEL_DATA_PAGES = 2

_READY = ThreadState.READY
# What a resumed program receives when its last step left no
# observation (an ``ObservationRecord`` otherwise); ``Observation`` is
# frozen, so one instance serves all.
_NO_OBSERVATION = Observation()

#: Program parameter types a clone shares with its parent instead of
#: deep-copying them (params tuples hold scalars).
_SHARED_PARAM_TYPES = frozenset({int, bool, float, str, bytes, tuple, type(None)})


def _clone_context(ctx: ProgramContext) -> ProgramContext:
    """``ctx`` copied whole for ``Kernel.clone_for_mc``, but for its params.

    The layout fields are immutable and shared; a param is shared when
    its type is immutable and deep-copied otherwise (synth's spy appends
    its observations to a ``results`` list param), with one memo so
    params that alias each other still do in the copy.
    """
    other = copy_attributes(ctx)
    memo: dict = {}
    other.params = {
        key: value if type(value) in _SHARED_PARAM_TYPES
        else copy.deepcopy(value, memo)
        for key, value in ctx.params.items()
    }
    return other


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


class ObservationRecord(NamedTuple):
    """One program-visible observation (the Lo trace unit).

    The same immutable object is appended to the domain's trace and
    handed to the program that made it (``value`` and ``latency``, as
    an :class:`~repro.hardware.isa.Observation` carries them), so a
    program can read its observation but never edit the trace.
    """

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
    ):
        self.machine = machine
        self.tp = tp if tp is not None else TimeProtectionConfig.full()
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
        data_frames = self.allocator.alloc_kernel_frames(_KERNEL_DATA_PAGES)
        page_size = machine.page_size
        self.kernel_data_paddrs: List[int] = [
            frame.base_paddr(page_size) + offset
            for frame in data_frames
            for offset in range(0, page_size, line_size)
        ]
        self.kernel_data_frames = data_frames
        self.endpoints = EndpointTable(padded_ipc=self.tp.padded_ipc)
        self.irq_policy = IrqPartitionPolicy(
            enabled=self.tp.partition_interrupts,
            n_lines=machine.config.irq_lines,
        )
        self.scheduler = DomainScheduler()
        self.switch_path = SwitchPath(machine, self.tp, self.kernel_data_paddrs)
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
        # Non-daemon threads not yet DONE or FAULTED (``create_thread``
        # counts them in, ``_retire`` out); None until the first is
        # created, so a system without one runs to its horizon.
        self._live_threads: Optional[int] = None
        self.total_steps = 0
        # The Sect. 5.2 case log (``Evidence.cases``): one entry per
        # executed step, (case, context, footprint) with case one of "1"
        # (user step), "2a" (trap), "2b" (domain switch).  The footprint
        # is the step's latency dependency list, ((element, index, kind),
        # ...) -- the paper's "unspecified deterministic function"
        # arguments -- when ``Evidence.footprints`` is declared, else ().
        self.case_log: List[Tuple[str, str, Tuple]] = []
        # One stored copy of each distinct footprint: most steps repeat
        # an earlier step's footprint, and a repeat's fresh tuple is
        # dropped at the append (see ``_footprint``).
        self._footprints: Dict[Tuple, Tuple] = {}

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

        ``pad_cycles`` defaults to the machine's switch-path WCET
        estimate: the paper leaves choosing the pad to a separate WCET
        analysis, and the kernel's conservative analytical bound stands
        in for it.  Under way partitioning, ``llc_ways`` (default: a
        quarter of what remains after the kernel's reservation) becomes
        the domain's CAT-style way quota.  Raises
        :class:`ColourExhausted` when no colours, frames or LLC ways
        remain for the domain.
        """
        if name in self.domains:
            raise ValueError(f"domain {name!r} already exists")
        colours = self.allocator.assign_domain_colours(name, n_colours)
        if self.tp.way_partitioning:
            total_ways = self.machine.config.llc_geometry.ways
            remaining = total_ways - sum(self._way_quotas.values())
            quota = llc_ways if llc_ways is not None else max(1, remaining // 4)
            if quota > remaining:
                raise ColourExhausted(
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
            pad_cycles=(
                pad_cycles if pad_cycles is not None else self.pad_wcet_estimate
            ),
        )
        self._next_domain_id += 1
        domain.kernel_image = self.clone_manager.image_for_domain(domain)
        for line in irq_lines:
            self.irq_policy.assign(line, domain)
        self.domains[name] = domain
        self.observations[name] = []
        return domain

    def create_thread(
        self,
        domain: Domain,
        program_factory,
        core_id: int = 0,
        data_pages: int = 4,
        code_pages: int = 1,
        params: Optional[dict] = None,
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> Tcb:
        """Create a thread running ``program_factory(ctx)`` in ``domain``.

        The thread gets a coloured address space with a code region, a
        private data buffer, and the domain's kernel text mapped
        read-only at ``KTEXT_BASE``.

        A ``daemon`` thread does not keep the run alive: :meth:`run`
        ends as soon as every non-daemon thread has finished.  Mark a
        program daemon where it is written to loop forever and no
        observer waits on its end, such as an attack's Hi trojan, whose
        channel is over once the Lo spy has taken its last sample.

        Raises :class:`ColourExhausted` when the domain's colours have
        too few free frames left.
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
        if not daemon:
            self._live_threads = (self._live_threads or 0) + 1
        tcb = Tcb(
            name=name or f"{domain.name}.t{self._thread_counter}",
            domain=domain,
            space=space,
            program=program_factory(context),
            pc=CODE_BASE,
            core_id=core_id,
            code_base=CODE_BASE,
            code_size=code_pages * page_size,
            daemon=daemon,
        )
        domain.threads.append(tcb)
        return tcb

    def create_endpoint(
        self,
        name: str,
        min_exec_cycles: int = 0,
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
    # Evidence
    # ------------------------------------------------------------------

    def declare(self, evidence: Evidence) -> None:
        """Record ``evidence`` in this run: after boot, before running.

        A run records only what its consumer declared (nothing by
        default); a later declaration replaces an earlier one.
        """
        if any(core.clock.now for core in self.machine.cores):
            raise ValueError("declare evidence before the run starts")
        self.machine.instrumentation.declare(evidence)

    def require_evidence(self, needed: Evidence, reader: str) -> None:
        """Raise ``ValueError`` unless this run declared all of ``needed``."""
        gaps = self.machine.instrumentation.evidence.missing(needed)
        if gaps:
            raise ValueError(
                f"{reader} reads {' and '.join(gaps)}, which this run did "
                f"not declare; declare it with Kernel.declare before running"
            )

    # ------------------------------------------------------------------
    # Derived accessors
    # ------------------------------------------------------------------

    @property
    def switch_records(self) -> List[SwitchRecord]:
        return self.switch_path.records

    def observation_trace(self, domain_name: str) -> List[Tuple[str, Optional[int], int]]:
        """The full observation trace of a domain, as plain tuples.

        Plain, not :class:`ObservationRecord`: a report prints a
        divergent entry with ``repr``.
        """
        return [tuple(record) for record in self.observations[domain_name]]

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
        identical to ``copy.deepcopy`` but much faster: like every
        ``clone_for_mc``, it copies each object whole
        (:func:`~repro.hardware.state.copy_attributes`) and then replaces
        only its mutable containers and its references to other cloned
        objects.  Everything that never changes after build (the
        configuration, address spaces, kernel images, the IRQ owner map,
        the clone manager, the kernel data region) and the write-once
        switch, observation and IRQ records and IPC messages are shared.
        Thread programs must carry explicit state: raw generators cannot
        be copied, so model-checked systems build their threads from
        :class:`repro.kernel.objects.ReplayableProgram`.  Raises
        ``TypeError`` for anything else.
        """
        machine = self.machine.clone_for_mc()
        other = copy_attributes(self)
        other.machine = machine
        allocator = other.allocator = copy_attributes(self.allocator)
        allocator.memory = machine.memory
        allocator.kernel_colours = set(allocator.kernel_colours)
        allocator._assigned = {
            name: set(colours) for name, colours in allocator._assigned.items()
        }
        # Domains and threads, with name-keyed maps (names are unique
        # and stable) so every cross-reference (scheduler entries,
        # endpoint receivers, current tcbs) lands on the clone of the
        # object it pointed at.
        domains: Dict[str, Domain] = {}
        tcbs: Dict[str, Tcb] = {}
        for name, domain in self.domains.items():
            dclone = domains[name] = copy_attributes(domain)
            dclone.colours = set(domain.colours)
            dclone.irq_lines = set(domain.irq_lines)
            dclone.rr_position = dict(domain.rr_position)
            dclone.threads = []
            for tcb in domain.threads:
                program = tcb.program
                if type(program) is not ReplayableProgram:
                    raise TypeError(
                        "clone_for_mc needs ReplayableProgram threads "
                        f"(got {type(program).__name__})"
                    )
                tclone = tcbs[tcb.name] = copy_attributes(tcb)
                tclone.domain = dclone
                tclone.program = copy_attributes(program)
                tclone.program.ctx = _clone_context(program.ctx)
                dclone.threads.append(tclone)
        other.domains = domains
        # Endpoints: Message objects are write-once, so queues share
        # entries but not the deque.
        endpoints = other.endpoints = copy_attributes(self.endpoints)
        endpoints._endpoints = {}
        for eid, endpoint in self.endpoints._endpoints.items():
            eclone = endpoints._endpoints[eid] = copy_attributes(endpoint)
            eclone.queue = type(endpoint.queue)(endpoint.queue)
            if endpoint.receiver_domain is not None:
                eclone.receiver_domain = domains[endpoint.receiver_domain.name]
        # Scheduler: per-core state with mapped domains.
        scheduler = other.scheduler = copy_attributes(self.scheduler)
        scheduler._cores = {}
        for core_id, state in self.scheduler._cores.items():
            sclone = scheduler._cores[core_id] = copy_attributes(state)
            sclone.entries = [
                (domains[domain.name], slice_cycles)
                for domain, slice_cycles in state.entries
            ]
            if state.forced_next is not None:
                sclone.forced_next = domains[state.forced_next.name]
        # Switch path: SwitchRecord objects are write-once evidence, so
        # the clone shares the records while owning its own list.
        switch_path = other.switch_path = copy_attributes(self.switch_path)
        switch_path.machine = machine
        switch_path.records = list(self.switch_path.records)
        syscalls = other.syscalls = copy_attributes(self.syscalls)
        syscalls.endpoints = endpoints
        syscalls.scheduler = scheduler
        syscalls.instrumentation = machine.instrumentation
        other.observations = {
            name: list(records) for name, records in self.observations.items()
        }
        other.irq_deliveries = list(self.irq_deliveries)
        other._current_tcb = {
            core_id: (tcbs[tcb.name] if tcb is not None else None)
            for core_id, tcb in self._current_tcb.items()
        }
        other.case_log = list(self.case_log)
        other._footprints = dict(self._footprints)
        fp_cache = getattr(self, "_mc_fp_cache", None)
        if fp_cache is not None:
            other._mc_fp_cache = dict(fp_cache)
        return other

    def step(self, core_id: int = 0) -> None:
        """Execute exactly one scheduler step on ``core_id``.

        The single-transition hook the model checker drives: one user
        instruction, syscall, interrupt delivery, idle advance or domain
        switch -- whatever the run loop would do next on that core.  A
        one-step budget never reads the clock bound, so none is given.
        """
        self._step_core(self.machine.cores[core_id], 0)

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: int, max_steps: int = 50_000_000) -> None:
        """Run all scheduled cores in global time order.

        The run ends at the first of three events: every scheduled
        core's clock reaches ``max_cycles``; ``max_steps`` steps have
        run; or every non-daemon thread is DONE or FAULTED
        (``create_thread(daemon=)``).  Daemon threads never end a run
        early.  A system with no non-daemon thread therefore runs to
        ``max_cycles``, which is also what a system with no threads at
        all does.

        Each kernel call takes the core whose clock is earliest and still
        below ``max_cycles`` (ties go to the lowest core id) and lets
        :meth:`_step_core` run its thread's user instructions, within the
        steps left, until its clock reaches the next core's clock
        (``max_cycles`` on one core): past that point the next step is
        another core's.  Every step counts toward ``max_steps`` and
        ``total_steps``, and the run is the one :meth:`step` would make.
        """
        cores = [
            self.machine.cores[core_id]
            for core_id in self.scheduler.scheduled_cores()
        ]
        if not cores:
            raise RuntimeError("no core has a schedule; call set_schedule first")
        steps = 0
        while steps < max_steps and not self._all_threads_finished():
            # Earliest clock below the horizon (ties keep the lowest core
            # id, matching list order) and the next clock after it.
            core = None
            best = until = max_cycles
            for candidate in cores:
                t = candidate.clock.now
                if t < best:
                    core, best, until = candidate, t, best
                elif t < until:
                    until = t
            if core is None:
                break
            steps += self._step_core(core, until, max_steps - steps)
        self.total_steps += steps

    def _all_threads_finished(self) -> bool:
        """True once every non-daemon thread is DONE or FAULTED.

        False while there is no non-daemon thread at all, so a
        daemon-only system runs to its horizon.
        """
        return self._live_threads == 0

    def _step_core(self, core: Core, until: int, budget: int = 1) -> int:
        """Up to ``budget`` scheduler steps on ``core``; returns how many.

        The dispatch at the top picks the next step.  A domain switch, an
        interrupt delivery and an idle advance go to helpers and are one
        step each.  Otherwise the domain's current thread runs a user
        instruction inline.  One that traps (HALT, FAULT, a syscall, the
        program's end) goes to :meth:`_trap` and ends the call.

        One that does not trap is Case 1 of Sect. 5.2.  Only switches,
        traps, IRQ deliveries, IPC wakeups, other cores' steps and the
        model checker's injections change the switch point, the forced
        switch, IRQ masks, the pending IRQs, thread states and shared
        state.  So until the clock reaches the first of the switch
        point, ``until`` (the horizon or the next core's clock), the
        earliest unmasked pending IRQ and the earliest time a queued IPC
        message becomes visible, the dispatch would choose the same
        thread again and :meth:`_unblock_receivers` would deliver
        nothing.  The thread therefore runs on through the same
        user-step body until it traps, the budget is spent or the clock
        reaches that bound; each step still resets the footprint and
        gets its observation record and case-log entry.  The evidence
        plan is fixed once the run starts (``declare``), so it is read
        directly.
        """
        core_id = core.core_id
        state = self.scheduler.state(core_id)
        clock = core.clock
        now = clock.now
        # Inline state.effective_switch_time() / state.current: this runs
        # once per dispatch.
        forced = state.forced_switch_at
        slice_end = state.slice_end
        switch_at = slice_end if forced is None or forced >= slice_end else forced
        if now >= switch_at:
            self._do_switch(core, switch_at)
            return 1
        domain = state.entries[state.position][0]
        pending = core.irq.deliverable(now)
        if pending is not None:
            self._handle_irq(core, domain, pending)
            return 1
        endpoints = self.endpoints
        if endpoints.n_endpoints:
            self._unblock_receivers()
        # Keep the current thread while it can run (inlined
        # Tcb.runnable); otherwise pick the domain's next one.
        tcb = self._current_tcb.get(core_id)
        if (
            tcb is None
            or tcb.domain is not domain
            or tcb.state is not _READY
            or (tcb.wake_time is not None and now < tcb.wake_time)
        ):
            tcb = domain.next_runnable(core_id, now)
            self._current_tcb[core_id] = tcb
            if tcb is None:
                self._idle(core, domain, now, switch_at)
                return 1
        name = domain.name
        instrumentation = self.machine.instrumentation
        if instrumentation.current_domain != name:
            instrumentation.set_context(name)
        evidence = instrumentation.evidence
        footprints = evidence.footprints
        cases = evidence.cases
        observations = self.observations[name]
        program = tcb.program
        # The clock bound of a run of user steps.  No unmasked pending
        # IRQ is due yet, or ``deliverable`` would have returned it.
        limit = switch_at if switch_at < until else until
        if budget > 1:
            irq_time = core.irq.next_unmasked_fire_time()
            if irq_time is not None and irq_time < limit:
                limit = irq_time
            if endpoints.n_endpoints:
                visible = endpoints.earliest_visibility(now)
                if visible is not None and visible < limit:
                    limit = visible
        steps = 0
        while True:
            steps += 1
            if footprints:
                instrumentation.footprint = []
            delivered = tcb.pending_obs
            tcb.pending_obs = None
            try:
                if tcb.started:
                    instruction = program.send(
                        _NO_OBSERVATION if delivered is None else delivered
                    )
                else:
                    instruction = next(program)
                    tcb.started = True
            except StopIteration:
                self._retire(core, tcb, ThreadState.DONE)
                clock.advance(1)
                return steps
            # Wrap the synthetic pc back into the code region.  Programs
            # are generators, so the pc only drives I-cache and
            # branch-predictor behaviour; real code of this size would
            # loop, which the wrap models.
            code_size = tcb.code_size
            if code_size > 0:
                rel = tcb.pc - tcb.code_base
                if rel < 0 or rel >= code_size:
                    tcb.pc = tcb.code_base + rel % code_size
            result = core.execute_user(tcb.space, tcb.pc, instruction)
            tcb.pc = result.new_pc
            tcb.steps_executed += 1
            trapped = result.trap is not None
            if trapped:
                case = self._trap(core, domain, tcb, result)
            else:
                record = ObservationRecord(tcb.name, result.value, result.latency)
                tcb.pending_obs = record
                observations.append(record)
                case = "1"
            if case is not None and cases:
                self.case_log.append((
                    case,
                    name,
                    self._footprint(instrumentation) if footprints else (),
                ))
            if trapped or steps == budget or clock.now >= limit:
                return steps

    def _footprint(self, instrumentation: Instrumentation) -> Tuple:
        """The step's footprint as the case log's one copy of it."""
        footprint = tuple(instrumentation.footprint)
        return self._footprints.setdefault(footprint, footprint)

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

    # -- trapped user steps ------------------------------------------------

    def _retire(self, core: Core, tcb: Tcb, final: ThreadState) -> None:
        """``tcb`` finished (DONE) or faulted: it never runs again."""
        tcb.state = final
        if not tcb.daemon:
            self._live_threads -= 1
        self._current_tcb[core.core_id] = None

    def _trap(
        self, core: Core, domain: Domain, tcb: Tcb, result: StepResult
    ) -> Optional[str]:
        """Handle a user step that trapped; returns its case (None: HALT)."""
        trap = result.trap
        if trap.kind is TrapKind.HALT:
            self._retire(core, tcb, ThreadState.DONE)
            return None
        if trap.kind is TrapKind.FAULT:
            self._retire(core, tcb, ThreadState.FAULTED)
            return "2a"
        before = core.clock.now
        outcome = self.syscalls.handle(core, domain, tcb, trap.syscall)
        kernel_latency = (core.clock.now - before) + result.latency
        if outcome.blocked:
            self._current_tcb[core.core_id] = None
            return "2a"
        tcb.pending_obs = self._record(domain, tcb, outcome.retval, kernel_latency)
        if outcome.yielded:
            self._current_tcb[core.core_id] = None
        return "2a"

    def _record(
        self, domain: Domain, tcb: Tcb, value: Optional[int], latency: int
    ) -> ObservationRecord:
        """Append ``tcb``'s observation to its domain's trace; return it."""
        record = ObservationRecord(tcb.name, value, latency)
        self.observations[domain.name].append(record)
        return record

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
                        tcb.pending_obs = self._record(domain, tcb, value, 0)

    # -- interrupts ----------------------------------------------------------

    def _handle_irq(self, core: Core, domain: Domain, pending) -> None:
        """Deliver a device interrupt: kernel handler cost hits whoever runs."""
        self.machine.instrumentation.set_context(f"{domain.name}/kernel")
        cycles = _IRQ_HANDLER_BASE_CYCLES
        image = domain.kernel_image
        if image is not None:
            for paddr in image.text_lines(
                _IRQ_HANDLER_LINE_OFFSET, _IRQ_HANDLER_LINES
            ):
                cycles += core.cached_access(paddr, False, True)
        for word in range(2):
            cycles += core.cached_access(self.kernel_data_paddrs[word], False)
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
        instrumentation = self.machine.instrumentation
        instrumentation.set_context(context)
        evidence = instrumentation.evidence
        if evidence.footprints:
            instrumentation.footprint = []
        record = self.switch_path.execute(core, from_domain, to_domain, scheduled_at)
        if evidence.cases:
            self.case_log.append((
                "2b",
                context,
                self._footprint(instrumentation) if evidence.footprints else (),
            ))
        self.scheduler.advance(core_id, release_time=record.released_at)
        self.irq_policy.apply_masks(core.irq, to_domain)
        self._current_tcb[core_id] = None
