"""Run one evolved genome against one victim and quantify the channel.

This is the synth counterpart of the hand-written attack experiments
(``repro.attacks.primeprobe`` et al.) and follows their exact shape --
a boot-only :func:`build` of the two-domain system per symbol, which
:func:`~repro.attacks.harness.run_symbol_sweep` runs over the symbol
alphabet into a :class:`ChannelResult` -- so evolved genomes are
measured by the same harness, the same estimator and the same campaign
machinery as the fixed suite.  The function signature matches the
campaign registry's runner contract, which is what lets winning genomes
register as first-class attacks.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Hashable, List, Optional, Sequence, Union

from ..attacks.harness import ChannelResult, run_symbol_sweep
from ..hardware.machine import Machine
from ..kernel.kernel import Kernel
from ..kernel.objects import ReplayableProgram
from ..kernel.timeprotect import TimeProtectionConfig
from .genome import (
    FlushData,
    Genome,
    TimedSweep,
    TouchSweep,
    YieldToVictim,
    classify,
    genome_step,
)
from .victims import DEFAULT_SYMBOLS, VICTIMS

_HI_SLICE = 3000
_LO_SLICE = 9000


def build(
    kernel: Kernel,
    symbol: int,
    results: List[Hashable],
    genome: dict,
    victim: str = "set_hammer",
    rounds_per_run: int = 4,
    hi_slice: int = _HI_SLICE,
    lo_slice: int = _LO_SLICE,
    data_pages: Optional[int] = None,
    hi_data_pages: Optional[int] = None,
    victim_params: Optional[dict] = None,
) -> int:
    """Boot ``victim`` sending ``symbol`` against the dict-form ``genome``.

    Returns the horizon.  The genome's decoder appends one observation
    per round to ``results``.
    """
    geometry = kernel.machine.config.l1d_geometry
    pages = data_pages if data_pages is not None else geometry.ways + 2
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=hi_slice)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=lo_slice)
    # Endpoint 0 exists so victims may make send/poll syscalls.
    kernel.create_endpoint("synth")
    kernel.create_thread(
        hi,
        ReplayableProgram.factory(VICTIMS[victim]),
        params={"symbol": symbol, **(victim_params or {})},
        data_pages=hi_data_pages if hi_data_pages is not None else geometry.ways,
        daemon=True,
    )
    kernel.create_thread(
        lo,
        ReplayableProgram.factory(genome_step),
        params={"genome": genome, "results": results, "rounds": rounds_per_run},
        data_pages=pages,
    )
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    # Each round spans both slices and, when switches are padded, both
    # pads.  The victim is a daemon, so the run still ends at the spy's
    # last step; the horizon only has to leave it room.
    return (
        (rounds_per_run + 3)
        * (hi_slice + lo_slice + hi.pad_cycles + lo.pad_cycles) * 2
    )


def experiment(
    tp: TimeProtectionConfig,
    machine_factory: Callable[[], Machine],
    genome: Union[Genome, dict],
    victim: str = "set_hammer",
    symbols: Optional[Sequence[int]] = None,
    rounds_per_run: int = 4,
    sweep_rounds: int = 1,
    hi_slice: int = _HI_SLICE,
    lo_slice: int = _LO_SLICE,
    data_pages: Optional[int] = None,
    hi_data_pages: Optional[int] = None,
    victim_params: Optional[dict] = None,
    on_kernel: Optional[Callable[[Kernel], None]] = None,
) -> ChannelResult:
    """Measure the channel a genome opens against ``victim`` under ``tp``.

    ``genome`` may be a :class:`Genome` or its dict form (what campaign
    trial params carry).  Hi runs the victim transmitting each symbol;
    Lo runs the compiled genome; the genome's per-round decoded features
    are the channel observations.
    """
    genome_dict = genome.to_dict() if isinstance(genome, Genome) else dict(genome)
    if victim not in VICTIMS:
        raise KeyError(f"unknown victim {victim!r}; choices: {sorted(VICTIMS)}")
    # The first round runs before the genome's waits align with the
    # domain schedule: warm-up.
    return run_symbol_sweep(
        f"synth[{victim}]", tp, machine_factory,
        partial(
            build, genome=genome_dict, victim=victim,
            rounds_per_run=rounds_per_run, hi_slice=hi_slice,
            lo_slice=lo_slice, data_pages=data_pages,
            hi_data_pages=hi_data_pages, victim_params=victim_params,
        ),
        DEFAULT_SYMBOLS[victim] if symbols is None else symbols,
        rounds=sweep_rounds, warmup=1, on_kernel=on_kernel,
        metadata={
            "victim": victim,
            "genome": genome_dict,
            "classes": list(classify(
                genome if isinstance(genome, Genome) else Genome.from_dict(genome_dict)
            )),
        },
    )


# ----------------------------------------------------------------------
# Canonical discovered genomes
# ----------------------------------------------------------------------
# Checked-in witnesses of what the search finds (see EXPERIMENTS.md E15
# for the seeds); the registry's default `synth` attack and the novelty
# tests use them so CI does not depend on re-running a full search.

#: Prime+probe-class genome: prime both L1 ways of every set, yield
#: through the victim's slice, then time one cross-page probe pair per
#: candidate set; the binned timing vector names the hammered set.
#: (``bins`` beats ``argmax`` here because an L1 miss that hits L2 costs
#: only ~8 extra cycles -- comparable to syscall-path cache pollution on
#: low sets -- so per-probe bins are robust where a single argmax isn't.)
PRIME_PROBE_GENOME = Genome(
    ops=(
        TouchSweep(page=0, line=0, count=16, stride_lines=1, write=False),
        YieldToVictim(cycles=10000),
        TimedSweep(page=0, line=1, count=2, stride_lines=8),
        TimedSweep(page=0, line=3, count=2, stride_lines=8),
        TimedSweep(page=0, line=5, count=2, stride_lines=8),
        TimedSweep(page=0, line=7, count=2, stride_lines=8),
    ),
    decoder="bins",
    bin_width=8,
)

#: Prefetcher-residue genome: reads the stride-prefetcher stream entry a
#: ``stream_strider`` victim leaves behind.  Per round: flush the
#: trigger and candidate lines from the whole hierarchy, warm the TLB
#: across all pages (page-table walks are L1d misses and would otherwise
#: pollute the stream entry between handoff and trigger), yield through
#: the victim's slice, then one trigger miss in the victim-trained
#: region -- the prefetcher still holds ``(last_addr, stride, conf=3)``
#: from the victim, so the trigger at ``a0`` issues prefetches at
#: ``2*a0 - last_addr`` into L2 -- and finally time the candidate lines:
#: the one that arrives from L2 instead of DRAM names the victim's
#: stride.  No hand-written attack in ``repro.attacks`` touches the
#: prefetcher element at all (see tests/synth/test_rediscovery.py for
#: the per-element counter evidence).
#:
#: Tuned for ``experiment(..., victim="stream_strider", data_pages=6,
#: hi_data_pages=8, victim_params=PREFETCH_RESIDUE_VICTIM_PARAMS)`` on
#: the ``tiny``/``unflushable`` presets, where Hi's streaming window
#: (pages 4-6) and all of Lo's pages share one 4 KiB prefetcher region.
PREFETCH_RESIDUE_GENOME = Genome(
    ops=(
        FlushData(page=3, line=3, count=2, stride_lines=1),
        FlushData(page=4, line=6, count=5, stride_lines=5),
        TouchSweep(page=0, line=7, count=6, stride_lines=8, write=False),
        YieldToVictim(cycles=10000),
        TouchSweep(page=0, line=0, count=1, stride_lines=1, write=False),
        TimedSweep(page=5, line=3, count=1, stride_lines=1),
        TimedSweep(page=4, line=6, count=1, stride_lines=1),
        TimedSweep(page=3, line=3, count=1, stride_lines=1),
        TimedSweep(page=3, line=4, count=1, stride_lines=1),
    ),
    decoder="bins",
    bin_width=32,
)

#: Victim/runner knobs the prefetcher-residue genome was tuned against.
PREFETCH_RESIDUE_VICTIM_PARAMS = {
    "base_page": 4,
    "window_pages": 3,
    "strides": (1, 2, 3, 4),
}
