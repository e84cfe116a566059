"""Whole-machine assembly: cores, cache hierarchy, interconnect, memory.

A :class:`Machine` is the hardware the kernel model boots on.  Its
configuration determines whether the machine *can* honour the
security-oriented hardware-software contract (the aISA of Ge et al.
[2018a]): SMT pairs make "private" state concurrently shared, an
unflushable prefetcher leaves state unmanaged, a broken flush fails to
reset, and an LLC no larger per way than a page offers a single colour.
The abstract-model extraction in ``repro.core.absmodel`` reads these
properties off the built machine, never off the configuration -- the
proof examines the hardware it actually got.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .branch import BranchPredictor
from .cache import Cache, LatencyParams, ReplacementPolicy
from .clock import CycleClock
from .cpu import Core, LatencyConfig
from .geometry import CacheGeometry, TlbGeometry
from .interconnect import Interconnect, MbaConfig
from .interrupts import InterruptController
from .memory import PhysicalMemory
from .prefetcher import StridePrefetcher
from .state import (
    CountingInstrumentation,
    Instrumentation,
    InstrumentationMode,
    Scope,
    StateCategory,
)
from .tlb import Tlb


@dataclass
class MachineConfig:
    """Everything needed to build a machine."""

    n_cores: int = 1
    page_size: int = 256
    total_frames: int = 512
    l1i_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(sets=8, ways=2, line_size=32)
    )
    l1d_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(sets=8, ways=2, line_size=32)
    )
    l2_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(sets=32, ways=4, line_size=32)
    )
    llc_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(sets=64, ways=8, line_size=32)
    )
    tlb_entries: int = 16
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    l1i_latency: LatencyParams = field(default_factory=lambda: LatencyParams(hit_cycles=1))
    l1d_latency: LatencyParams = field(default_factory=lambda: LatencyParams(hit_cycles=4))
    l2_latency: LatencyParams = field(default_factory=lambda: LatencyParams(hit_cycles=12))
    llc_latency: LatencyParams = field(default_factory=lambda: LatencyParams(hit_cycles=40))
    replacement: ReplacementPolicy = ReplacementPolicy.LRU
    # Branch predictor global-history width.  8 = gshare; 0 = a classic
    # bimodal (pc-indexed) predictor, whose cross-domain training channel
    # is the simplest to demonstrate.
    branch_history_bits: int = 8
    interconnect_transfer_cycles: int = 24
    mba: Optional[MbaConfig] = None
    irq_lines: int = 16
    # Contract-violation knobs (experiment E9):
    smt: bool = False  # pair cores share all "private" state concurrently
    prefetcher_flushable: bool = True
    broken_l1d_flush: bool = False

    def n_llc_colours(self) -> int:
        return self.llc_geometry.n_colours(self.page_size)


#: A core's private structures; an SMT pair shares all of them.
_PRIVATE_ELEMENTS = ("l1i", "l1d", "l2", "tlb", "branch", "prefetcher")


class Machine:
    """The built hardware: shared levels plus per-core private state."""

    def __init__(self, config: MachineConfig):
        if config.n_cores < 1:
            raise ValueError("need at least one core")
        if config.smt and config.n_cores % 2:
            raise ValueError("SMT machines need an even number of cores")
        self.config = config
        self.instrumentation = Instrumentation(InstrumentationMode.SUMMARY)
        self.memory = PhysicalMemory(
            total_frames=config.total_frames,
            page_size=config.page_size,
            n_colours=config.n_llc_colours(),
        )
        self.interconnect = Interconnect(
            transfer_cycles=config.interconnect_transfer_cycles, mba=config.mba
        )
        self.llc = Cache(
            name="llc",
            geometry=config.llc_geometry,
            category=StateCategory.PARTITIONABLE,
            scope=Scope.SHARED,
            latency=config.llc_latency,
            page_size=config.page_size,
            policy=config.replacement,
            instrumentation=self.instrumentation,
        )
        self.cores: List[Core] = []
        for core_id in range(config.n_cores):
            if config.smt and core_id % 2 == 1:
                # The second hardware thread of an SMT pair shares every
                # "private" structure with its sibling, concurrently.
                sibling = self.cores[core_id - 1]
                private = {
                    name: getattr(sibling, name) for name in _PRIVATE_ELEMENTS
                }
                for element in private.values():
                    element.concurrently_shared = True
            else:
                thread_tag = f"core{core_id}"
                private = dict(
                    l1i=self._build_cache(f"{thread_tag}.l1i", config.l1i_geometry,
                                          config.l1i_latency, broken=False),
                    l1d=self._build_cache(f"{thread_tag}.l1d", config.l1d_geometry,
                                          config.l1d_latency,
                                          broken=config.broken_l1d_flush),
                    l2=self._build_cache(f"{thread_tag}.l2", config.l2_geometry,
                                         config.l2_latency, broken=False),
                    tlb=Tlb(
                        name=f"{thread_tag}.tlb",
                        geometry=TlbGeometry(entries=config.tlb_entries),
                        instrumentation=self.instrumentation,
                    ),
                    branch=BranchPredictor(
                        name=f"{thread_tag}.branch",
                        history_bits=config.branch_history_bits,
                        instrumentation=self.instrumentation,
                    ),
                    prefetcher=StridePrefetcher(
                        name=f"{thread_tag}.prefetcher",
                        instrumentation=self.instrumentation,
                        flushable_in_hardware=config.prefetcher_flushable,
                    ),
                )
            core = Core(
                core_id=core_id,
                clock=CycleClock(),
                llc=self.llc,
                irq=InterruptController(n_lines=config.irq_lines),
                interconnect=self.interconnect,
                memory=self.memory,
                latency=config.latency,
                **private,
            )
            self.cores.append(core)

    def _build_cache(
        self,
        name: str,
        geometry: CacheGeometry,
        latency: LatencyParams,
        broken: bool,
    ) -> Cache:
        return Cache(
            name=name,
            geometry=geometry,
            category=StateCategory.FLUSHABLE,
            scope=Scope.CORE_LOCAL,
            latency=latency,
            page_size=self.config.page_size,
            policy=self.config.replacement,
            instrumentation=self.instrumentation,
            flush_is_broken=broken,
        )

    def clone_for_mc(self) -> "Machine":
        """A hand-rolled deep copy for model-checker clones.

        Behaviourally identical to ``copy.deepcopy`` but ~10x faster:
        immutable configuration (config, geometries, latency tables,
        Frame objects) is shared, mutable state is copied field by
        field.  SMT siblings keep sharing as in :meth:`__init__`: an odd
        core reuses its even sibling's cloned private elements.  Raises
        ``TypeError`` under counting instrumentation.
        """
        if type(self.instrumentation) is not Instrumentation:
            raise TypeError(
                "clone_for_mc needs plain Instrumentation "
                f"(got {type(self.instrumentation).__name__})"
            )
        other = Machine.__new__(Machine)
        other.config = self.config
        other.instrumentation = self.instrumentation.clone()
        other.memory = self.memory.clone_for_mc()
        other.interconnect = self.interconnect.clone_for_mc()
        other.llc = self.llc.clone_for_mc(other.instrumentation)
        other.cores = []
        instr = other.instrumentation
        for core in self.cores:
            if self.config.smt and core.core_id % 2 == 1:
                source = other.cores[core.core_id - 1]
                private = {
                    name: getattr(source, name) for name in _PRIVATE_ELEMENTS
                }
            else:
                private = {
                    name: getattr(core, name).clone_for_mc(instr)
                    for name in _PRIVATE_ELEMENTS
                }
            clone = Core(
                core_id=core.core_id,
                clock=CycleClock(core.clock.now),
                llc=other.llc,
                irq=core.irq.clone_for_mc(),
                interconnect=other.interconnect,
                memory=other.memory,
                latency=self.config.latency,
                **private,
            )
            other.cores.append(clone)
        return other

    def use_counting_instrumentation(self) -> CountingInstrumentation:
        """Swap in aggregate-count instrumentation (campaign fast path).

        Rewires every state element to a fresh
        :class:`CountingInstrumentation`, which records per-(domain,
        element) touch counts but none of the per-index evidence the
        proof layer audits.  Must be called before a kernel is booted on
        this machine: kernel subsystems capture the instrumentation
        reference at construction time.
        """
        counting = CountingInstrumentation()
        self.instrumentation = counting
        for element in self.all_state_elements():
            element.instr = counting
        return counting

    # ------------------------------------------------------------------
    # Enumeration for the abstract model and the kernel
    # ------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self.config.page_size

    @property
    def n_colours(self) -> int:
        return self.config.n_llc_colours()

    def all_state_elements(self) -> List:
        """Every microarchitectural state element, deduplicated.

        SMT siblings share objects; each shared object appears once.
        The element population is fixed at construction, so the list is
        computed once per machine instance (deepcopy maps the cached
        list onto the copied elements; ``clone_for_mc`` starts from a
        bare instance and rebuilds it lazily).
        """
        elements = getattr(self, "_elements_list", None)
        if elements is not None:
            return elements
        seen = set()
        elements = [self.llc]
        seen.add(id(self.llc))
        for core in self.cores:
            for element in core.private_elements():
                if id(element) not in seen:
                    seen.add(id(element))
                    elements.append(element)
        self._elements_list = elements
        return elements

    def flushable_elements_of_core(self, core_id: int) -> List:
        """Elements the kernel flushes when switching domains on a core."""
        return self.cores[core_id].private_elements()

    def fingerprint_all(self):
        """Fingerprints of every state element (for two-run comparison).

        Uses the version-memoised accessor: elements recompute their
        canonical digest only when they actually mutated since the last
        call (the model checker calls this after every transition).
        """
        return tuple(
            (element.name, element.cached_fingerprint())
            for element in self.all_state_elements()
        )

    def digest_all(self) -> tuple:
        """16-byte digest per state element, version-memoised.

        Equality-equivalent to :meth:`fingerprint_all` (two machines
        digest equal iff every element fingerprint agrees, modulo
        BLAKE2b collisions) but constant-size per element, so hashing a
        whole machine state costs O(elements) instead of O(state).
        """
        return tuple(
            (element.name, element.cached_digest())
            for element in self.all_state_elements()
        )
