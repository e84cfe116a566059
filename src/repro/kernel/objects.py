"""Kernel objects: security domains, threads, kernel images.

A *security domain* (Sect. 2) is the unit the security policy treats as
opaque: one or more cooperating threads whose mutual interference is not
policed.  Time protection acts only at domain boundaries -- flushing and
padding happen on domain switches, never on intra-domain thread switches.

Per Sect. 4.2, the padding time is "not the job of the OS, but an
attribute of the switched-from security domain, controlled by the system
designer": hence ``Domain.pad_cycles``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Generator, List, Optional, Set

from ..hardware.isa import Observation
from ..hardware.memory import Frame
from ..hardware.mmu import AddressSpace


class ThreadState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"  # waiting on an endpoint receive
    DONE = "done"
    FAULTED = "faulted"


class ReplayableProgram:
    """A thread program with explicit, copyable state.

    Thread programs are normally raw Python generators, which cannot be
    deep-copied or pickled -- fine for one-shot runs, fatal for the model
    checker's clone-based lockstep stepping (``Kernel.clone_for_mc``).  A
    :class:`ReplayableProgram` speaks the same generator protocol the run
    loop uses (``next`` / ``send``) but keeps its entire state in two
    slots, so a clone of the kernel captures the program mid-flight and
    both copies replay identically.

    ``step_fn(ctx, index, observation) -> instruction | None`` is called
    with the 0-based instruction index and the observation delivered for
    the previous instruction (``None`` on the first call).  Returning
    ``None`` ends the program (the run loop sees ``StopIteration`` and
    marks the thread DONE).  ``step_fn`` must be a module-level function
    and must not close over mutable state: everything history-dependent
    belongs in ``index``/``observation``/``ctx.params``.
    """

    __slots__ = ("step_fn", "ctx", "index", "finished")

    def __init__(self, step_fn, ctx):
        self.step_fn = step_fn
        self.ctx = ctx
        self.index = 0
        self.finished = False

    @classmethod
    def factory(cls, step_fn):
        """A ``program_factory`` for ``Kernel.create_thread``."""
        return functools.partial(cls, step_fn)

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, observation):
        if self.finished:
            raise StopIteration
        instruction = self.step_fn(self.ctx, self.index, observation)
        if instruction is None:
            self.finished = True
            raise StopIteration
        self.index += 1
        return instruction


@dataclass
class KernelImage:
    """A kernel text image laid out in physical frames.

    With kernel clone enabled each domain has its own image in
    domain-coloured frames; otherwise all domains share the master image
    ("even read-only sharing of code is sufficient for creating a
    channel", Sect. 4.2).
    """

    name: str
    frames: List[Frame]
    page_size: int
    line_size: int

    @property
    def size_bytes(self) -> int:
        return len(self.frames) * self.page_size

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_size

    def line_paddr(self, line_index: int) -> int:
        """Physical address of the ``line_index``-th cache line of text."""
        offset = (line_index % self.n_lines) * self.line_size
        frame = self.frames[offset // self.page_size]
        return frame.base_paddr(self.page_size) + offset % self.page_size


@dataclass(slots=True)
class Tcb:
    """A thread control block."""

    name: str
    domain: "Domain"
    space: AddressSpace
    program: Generator
    pc: int
    core_id: int
    code_base: int = 0
    code_size: int = 0
    state: ThreadState = ThreadState.READY
    started: bool = False
    # Observation to deliver when the program next resumes (e.g. the value
    # returned by a syscall that blocked).
    pending_obs: Optional[Observation] = None
    blocked_on_endpoint: Optional[int] = None
    wake_time: Optional[int] = None
    steps_executed: int = 0

    def normalise_pc(self) -> None:
        """Wrap the synthetic pc back into the code region.

        Programs are generators, so the pc exists only to drive I-cache
        and branch-predictor behaviour; real code of this size would
        loop, which the wrap models.
        """
        if self.code_size > 0 and not (
            self.code_base <= self.pc < self.code_base + self.code_size
        ):
            self.pc = self.code_base + (self.pc - self.code_base) % self.code_size

    def runnable(self, now: int) -> bool:
        if self.state is not ThreadState.READY:
            return False
        return self.wake_time is None or now >= self.wake_time


@dataclass
class Domain:
    """A security domain: colours, threads, padding, owned IRQ lines."""

    name: str
    domain_id: int
    colours: Set[int]
    slice_cycles: int
    pad_cycles: int
    irq_lines: Set[int] = field(default_factory=set)
    kernel_image: Optional[KernelImage] = None
    threads: List[Tcb] = field(default_factory=list)
    # Round-robin position for intra-domain scheduling, per core.
    rr_position: dict = field(default_factory=dict)

    def threads_on_core(self, core_id: int) -> List[Tcb]:
        return [tcb for tcb in self.threads if tcb.core_id == core_id]

    def next_runnable(self, core_id: int, now: int) -> Optional[Tcb]:
        """Round-robin pick of the next runnable thread on ``core_id``."""
        candidates = self.threads_on_core(core_id)
        if not candidates:
            return None
        start = self.rr_position.get(core_id, 0) % len(candidates)
        for offset in range(len(candidates)):
            tcb = candidates[(start + offset) % len(candidates)]
            if tcb.runnable(now):
                self.rr_position[core_id] = (start + offset + 1) % len(candidates)
                return tcb
        return None

    def earliest_wake(self, core_id: int, now: int) -> Optional[int]:
        """Earliest future wake time among this core's waiting threads."""
        times = [
            tcb.wake_time
            for tcb in self.threads_on_core(core_id)
            if tcb.state is ThreadState.READY
            and tcb.wake_time is not None
            and tcb.wake_time > now
        ]
        return min(times) if times else None

    def all_done(self) -> bool:
        return all(
            tcb.state in (ThreadState.DONE, ThreadState.FAULTED)
            for tcb in self.threads
        )
