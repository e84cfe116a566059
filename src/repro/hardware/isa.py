"""The abstract ISA and the user-program protocol.

User programs are Python generators over a tiny abstract instruction set:
they ``yield`` instructions and receive back an observation carrying the
architecturally visible result (a loaded value, a timestamp, a syscall
return) as ``value`` and ``latency``.  What the kernel hands back is the
read-only record it appended to the domain's observation trace
(:class:`repro.kernel.kernel.ObservationRecord`, which also names the
thread), or one shared empty :class:`Observation` when the last step
left none; either way a program can read its observation but not edit
the trace.  This makes attackers naturally *adaptive* -- a
prime-and-probe spy can branch on the probe latencies it just measured --
while keeping the hardware/software boundary explicit: the only things a
program can observe are the values the ISA hands back, and the only clock
it can read is the hardware cycle counter via :class:`ReadTime` (the
``rdtsc`` of this machine).

The ISA deliberately abstracts *computation* (a :class:`Compute` burns
cycles) but models *interaction with shared microarchitectural state*
precisely: memory accesses, branches, cache-line flushes, traps.  That is
the paper's level of abstraction: which state an instruction touches, not
what it computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Tuple, Union


@dataclass(frozen=True, slots=True)
class Access:
    """Load (``write=False``) or store (``write=True``) at ``vaddr``.

    The observation of a load carries the word read; stores echo the value
    written.
    """

    vaddr: int
    write: bool = False
    value: int = 0


@dataclass(frozen=True, slots=True)
class Compute:
    """Pure computation taking ``cycles`` cycles (no state touched)."""

    cycles: int = 1


@dataclass(frozen=True, slots=True)
class Branch:
    """A conditional branch at the current pc.

    ``taken`` is the actual outcome; ``target`` the taken-path virtual
    address (defaults to a skip of two instruction slots).  Exercises the
    branch predictor; a misprediction costs a fixed penalty.
    """

    taken: bool
    target: Optional[int] = None


@dataclass(frozen=True, slots=True)
class ReadTime:
    """Read the hardware cycle counter (user-level ``rdtsc``)."""


@dataclass(frozen=True, slots=True)
class FlushLine:
    """User-level ``clflush``: evict ``vaddr``'s line from all levels."""

    vaddr: int


@dataclass(frozen=True, slots=True)
class Syscall:
    """Trap into the kernel (Case 2a of Sect. 5.2).

    Operations understood by the kernel model:

    * ``("send", endpoint_id, value)``    -- enqueue a message.
    * ``("recv", endpoint_id)``           -- block until a message is visible.
    * ``("poll", endpoint_id)``           -- non-blocking receive (-1 if none).
    * ``("io_submit", line, delay, payload)`` -- device completion IRQ in
      ``delay`` cycles on IRQ ``line``.
    * ``("yield",)``                      -- yield to the next thread in the
      domain.
    * ``("nop",)``                        -- trap and return (pure kernel
      round-trip; used to exercise the kernel-text channel).
    """

    op: str
    args: Tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class Halt:
    """Terminate the issuing thread."""


Instruction = Union[Access, Compute, Branch, ReadTime, FlushLine, Syscall, Halt]


@dataclass(frozen=True, slots=True)
class Observation:
    """What a program sees after an instruction completes.

    ``value`` is the architectural result (load data, timestamp, syscall
    return; ``None`` where there is none).  ``latency`` is provided as a
    simulator convenience for tests; faithful attackers measure latency
    themselves by bracketing accesses with :class:`ReadTime`.  The
    kernel sends the empty instance when a step left no observation;
    otherwise it sends its trace record, which has the same two fields.
    """

    value: Optional[int] = None
    latency: int = 0


Program = Generator[Instruction, Observation, None]


@dataclass
class ProgramContext:
    """Per-thread memory layout and parameters handed to program factories.

    Attributes:
        data_base: virtual address of the thread's private data buffer.
        data_size: size of that buffer in bytes.
        code_base: virtual address the thread's code is fetched from.
        shared_text_base: virtual address where (possibly cloned) kernel
            text is mapped read-only, or ``None`` when not mapped.
        page_size: machine page size.
        line_size: LLC line size (for attack stride arithmetic).
        params: free-form parameters from the experiment (secrets, knobs).
    """

    data_base: int
    data_size: int
    code_base: int
    page_size: int
    line_size: int
    shared_text_base: Optional[int] = None
    shared_text_size: int = 0
    # LLC page colour of each data page, in page order.  A cooperating
    # Trojan legitimately knows its own physical layout; a spy can learn
    # it with standard eviction-set construction, so exposing it models
    # the standard attacker capability without re-implementing that step.
    page_colours: Tuple[int, ...] = ()
    params: dict = field(default_factory=dict)
