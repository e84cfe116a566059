"""Named machine configurations.

``tiny`` machines keep experiments fast for tests; ``desktop`` is sized
like a small x86 part for the benchmark harness.  The remaining presets
deliberately violate the security-oriented hardware-software contract in
one specific way each, so experiment E9 can show the proof failing for
the *right* reason on each of them:

* ``tiny_smt``       -- hyperthreading: private state concurrently shared
                        ("hyperthreading is fundamentally insecure", Sect. 4.1).
* ``tiny_unflushable`` -- a prefetcher with no architected flush.
* ``tiny_broken_flush`` -- an L1D whose flush does not reset all lines.
* ``tiny_nocolour``  -- an LLC with a single page colour: a shared cache
                        the OS cannot partition.

``MACHINES`` names the presets the CLI, the model checker and campaign
trials choose from.
"""

from __future__ import annotations

from typing import Callable, Dict

from .cache import ReplacementPolicy
from .geometry import CacheGeometry
from .interconnect import MbaConfig
from .machine import Machine, MachineConfig


def tiny_config(n_cores: int = 1) -> MachineConfig:
    """Small, fast machine: 256 B pages, 8-colour LLC."""
    return MachineConfig(n_cores=n_cores)


def tiny_machine(n_cores: int = 1) -> Machine:
    return Machine(tiny_config(n_cores=n_cores))


def micro_config(n_cores: int = 1) -> MachineConfig:
    """The model checker's machine: the smallest contract-conforming part.

    128 B pages over a 4-colour, 1 KiB LLC; direct-mapped 4-set L1s, a
    4-entry TLB and a bimodal predictor.  Every structure is sized so the
    exhaustive product-construction check (``repro.mc``) can enumerate
    reachable states quickly while still exercising colouring (4 > 1
    colour), flushing (dirty-line-dependent latency) and padding.
    """
    return MachineConfig(
        n_cores=n_cores,
        page_size=128,
        total_frames=96,
        l1i_geometry=CacheGeometry(sets=4, ways=1, line_size=32),
        l1d_geometry=CacheGeometry(sets=4, ways=1, line_size=32),
        l2_geometry=CacheGeometry(sets=8, ways=2, line_size=32),
        llc_geometry=CacheGeometry(sets=16, ways=2, line_size=32),
        tlb_entries=4,
        branch_history_bits=0,
        irq_lines=4,
    )


def micro_machine(n_cores: int = 1) -> Machine:
    return Machine(micro_config(n_cores=n_cores))


def pocket_config(n_cores: int = 1) -> MachineConfig:
    """Between tiny and desktop: 256 B pages over a 16-colour 32 KiB LLC.

    Doubles every structure tiny has (L1/L2/LLC sets, TLB reach, frame
    count) without leaving the envelope the exhaustive model checker can
    drain: the first preset larger than ``tiny`` with a complete
    reachable-state-space PASS on record (EXPERIMENTS.md E19).
    """
    return MachineConfig(
        n_cores=n_cores,
        total_frames=1024,
        l1i_geometry=CacheGeometry(sets=16, ways=2, line_size=32),
        l1d_geometry=CacheGeometry(sets=16, ways=2, line_size=32),
        l2_geometry=CacheGeometry(sets=64, ways=4, line_size=32),
        llc_geometry=CacheGeometry(sets=128, ways=8, line_size=32),
        tlb_entries=32,
    )


def pocket_machine(n_cores: int = 1) -> Machine:
    return Machine(pocket_config(n_cores=n_cores))


def desktop_config(n_cores: int = 2, mba: bool = False) -> MachineConfig:
    """A small x86-like part: 4 KiB pages, 64-colour 4 MiB LLC."""
    return MachineConfig(
        n_cores=n_cores,
        page_size=4096,
        total_frames=4096,
        l1i_geometry=CacheGeometry(sets=64, ways=8, line_size=64),
        l1d_geometry=CacheGeometry(sets=64, ways=8, line_size=64),
        l2_geometry=CacheGeometry(sets=512, ways=8, line_size=64),
        llc_geometry=CacheGeometry(sets=4096, ways=16, line_size=64),
        tlb_entries=64,
        replacement=ReplacementPolicy.LRU,
        mba=MbaConfig() if mba else None,
    )


def desktop_machine(n_cores: int = 2, mba: bool = False) -> Machine:
    return Machine(desktop_config(n_cores=n_cores, mba=mba))


def tiny_bimodal_machine(n_cores: int = 1) -> Machine:
    """Tiny machine with a bimodal (pc-indexed, history-free) predictor.

    Bimodal predictors make the cross-domain direction-training channel
    directly visible: one domain's training is consulted verbatim by the
    next domain's branches at aliasing pcs.
    """
    config = tiny_config(n_cores=n_cores)
    config.branch_history_bits = 0
    return Machine(config)


def contended_machine(n_cores: int = 2, mba: bool = False) -> Machine:
    """A machine whose memory interconnect has little headroom.

    The stateless-interconnect covert channel (Sect. 2) lives on the
    *finite bandwidth* of the bus; with the default overprovisioned bus a
    single in-order core cannot saturate it.  This preset models the
    bandwidth-constrained case (slow transfers relative to core demand),
    where the Trojan's modulation is plainly visible to a concurrent spy.
    """
    config = tiny_config(n_cores=n_cores)
    # Two cores issuing back-to-back misses must (together) exceed the
    # bus: each miss costs ~120 cycles of core time plus the transfer, so
    # a 180-cycle transfer puts one core at ~60% occupancy and two
    # saturating cores at ~120% demand -- queueing is then unavoidable.
    config.interconnect_transfer_cycles = 180
    if mba:
        config.mba = MbaConfig(
            window_cycles=4000, requests_per_window=12, throttle_delay_cycles=120
        )
    return Machine(config)


def tiny_smt_machine() -> Machine:
    """Two hardware threads sharing all core-private state concurrently."""
    config = tiny_config(n_cores=2)
    config.smt = True
    return Machine(config)


def tiny_unflushable_machine(n_cores: int = 1) -> Machine:
    """Prefetcher state the OS has no instruction to clear."""
    config = tiny_config(n_cores=n_cores)
    config.prefetcher_flushable = False
    return Machine(config)


def tiny_broken_flush_machine(n_cores: int = 1) -> Machine:
    """An L1D flush that silently leaves residue behind."""
    config = tiny_config(n_cores=n_cores)
    config.broken_l1d_flush = True
    return Machine(config)


def tiny_nocolour_machine(n_cores: int = 2) -> Machine:
    """An LLC whose per-way capacity equals the page size: one colour."""
    config = tiny_config(n_cores=n_cores)
    config.llc_geometry = CacheGeometry(sets=8, ways=16, line_size=32)
    return Machine(config)


#: Every machine preset by its command-line name.
MACHINES: Dict[str, Callable[[], Machine]] = {
    "micro": micro_machine,
    "tiny": tiny_machine,
    "pocket": pocket_machine,
    "tiny2": lambda: tiny_machine(n_cores=2),
    "desktop": desktop_machine,
    "smt": tiny_smt_machine,
    "unflushable": tiny_unflushable_machine,
    "broken-flush": tiny_broken_flush_machine,
    "nocolour": lambda: tiny_nocolour_machine(n_cores=1),
    "contended": contended_machine,
}
