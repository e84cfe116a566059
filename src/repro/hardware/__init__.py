"""Microarchitectural timing simulator: the hardware substrate.

This subpackage stands in for the physical processors of the paper's
setting.  It models exactly the state the paper's argument is about --
caches, TLBs, branch predictors, prefetchers, the shared interconnect,
interrupt lines and cycle clocks -- with deterministic latencies so the
proof layer can reason about *dependence* rather than absolute time.
"""

from .branch import BranchPredictor, PredictResult
from .cache import AccessResult, Cache, CacheLine, LatencyParams, ReplacementPolicy
from .clock import CycleClock
from .cpu import Core, LatencyConfig, StepResult, Trap, TrapKind, INSTRUCTION_BYTES
from .geometry import CacheGeometry, TlbGeometry, colour_of_frame
from .interconnect import Interconnect, MbaConfig, TransferResult
from .interrupts import InterruptController, PendingInterrupt, PREEMPTION_TIMER_IRQ
from .isa import (
    Access,
    Branch,
    Compute,
    FlushLine,
    Halt,
    Instruction,
    Observation,
    Program,
    ProgramContext,
    ReadTime,
    Syscall,
)
from .machine import Machine, MachineConfig
from .memory import Frame, PhysicalMemory
from .mmu import AddressSpace, AddressSpaceManager, Mapping, TranslationFault
from .prefetcher import StridePrefetcher
from .state import (
    FlushResult,
    Instrumentation,
    InstrumentationMode,
    Scope,
    StateCategory,
    StateElement,
    TouchKind,
)
from .tlb import Tlb, TlbEntry, TlbLookupResult

from . import presets

__all__ = [
    "Access",
    "AccessResult",
    "AddressSpace",
    "AddressSpaceManager",
    "Branch",
    "BranchPredictor",
    "Cache",
    "CacheGeometry",
    "CacheLine",
    "Compute",
    "Core",
    "CycleClock",
    "FlushLine",
    "FlushResult",
    "Frame",
    "Halt",
    "Instruction",
    "Instrumentation",
    "InstrumentationMode",
    "Interconnect",
    "InterruptController",
    "INSTRUCTION_BYTES",
    "LatencyConfig",
    "LatencyParams",
    "Machine",
    "MachineConfig",
    "Mapping",
    "MbaConfig",
    "Observation",
    "PendingInterrupt",
    "PhysicalMemory",
    "PredictResult",
    "PREEMPTION_TIMER_IRQ",
    "Program",
    "ProgramContext",
    "ReadTime",
    "ReplacementPolicy",
    "Scope",
    "StateCategory",
    "StateElement",
    "StepResult",
    "StridePrefetcher",
    "Syscall",
    "Tlb",
    "TlbEntry",
    "TlbGeometry",
    "TlbLookupResult",
    "TouchKind",
    "TransferResult",
    "TranslationFault",
    "Trap",
    "TrapKind",
    "colour_of_frame",
    "presets",
]
