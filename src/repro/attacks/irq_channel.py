"""The interrupt channel (Sect. 4.2).

"Interrupts could also be used as a channel, if the Trojan triggers an
I/O such that its completion interrupt fires during Lo's execution."

The Trojan programs a device whose completion IRQ is timed to land inside
Lo's slice when the secret bit is 1 (and inside its own slice when 0).
Lo runs a tight timestamp loop; an interrupt delivered mid-loop inserts
the kernel handler's latency as a visible gap.  With interrupt
partitioning, the Trojan's line is masked whenever Lo runs, so the
completion is deferred to the Trojan's own next slice and Lo's loop stays
gapless.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List

from ..hardware.isa import Compute, ProgramContext, ReadTime, Syscall
from ..hardware.machine import Machine
from ..kernel.kernel import Kernel
from ..kernel.timeprotect import TimeProtectionConfig
from .harness import ChannelResult, run_symbol_sweep

_HI_SLICE = 6000
_LO_SLICE = 6000
_TROJAN_IRQ_LINE = 3


def irq_trojan(ctx: ProgramContext):
    """Aim a completion interrupt into Lo's slice iff the bit is 1."""
    bit = ctx.params["bit"]
    lo_slice = ctx.params["lo_slice"]
    hi_slice = ctx.params["hi_slice"]
    switch_estimate = ctx.params["switch_estimate"]
    while True:
        if bit:
            # Submitting near our own slice start, the next Lo slice
            # begins after the rest of our slice plus one switch; aim
            # early inside it.  (The Trojan knows the static schedule --
            # it is public configuration.)
            yield Syscall(
                "io_submit",
                (_TROJAN_IRQ_LINE, hi_slice + switch_estimate + lo_slice // 2, 1),
            )
        yield Syscall("sleep", (lo_slice + hi_slice,))


def gap_spy(ctx: ProgramContext):
    """Tight rdtsc loop; report the largest inter-sample gap per slice.

    A warm-up pass absorbs the cold instruction-cache misses the spy
    inherits from flush-on-switch (those are its own, deterministic
    start-up costs, not signal); only the warm steady-state loop is
    sensitive to injected interrupt handlers.
    """
    results: List[int] = ctx.params["results"]
    rounds = ctx.params.get("rounds", 6)
    warmup = ctx.params.get("warmup_samples", 90)
    samples_per_round = ctx.params.get("samples_per_round", 300)
    gap_threshold = ctx.params["gap_threshold"]
    for _round in range(rounds):
        for _i in range(warmup):
            yield ReadTime()
        previous = None
        max_gap = 0
        for _i in range(samples_per_round):
            stamp = yield ReadTime()
            if previous is not None:
                max_gap = max(max_gap, stamp.value - previous)
            previous = stamp.value
        results.append(1 if max_gap > gap_threshold else 0)
        yield Syscall("sleep", (ctx.params["sleep_cycles"],))


def build(
    kernel: Kernel, bit: int, results: List[int], rounds_per_run: int = 6
) -> int:
    """Boot the system with the Trojan sending ``bit``; returns its horizon."""
    hi = kernel.create_domain(
        "Hi", n_colours=2, slice_cycles=_HI_SLICE, irq_lines=(_TROJAN_IRQ_LINE,)
    )
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=_LO_SLICE)
    switch_estimate = kernel.pad_wcet_estimate if kernel.tp.pad_switch else 800
    kernel.create_thread(
        hi,
        irq_trojan,
        params={
            "bit": bit,
            "lo_slice": _LO_SLICE,
            "hi_slice": _HI_SLICE,
            "switch_estimate": switch_estimate,
        },
        daemon=True,
    )
    # A quiet ReadTime-to-ReadTime step is ~a dozen cycles; even a
    # fully warm IRQ handler inserts several times that.
    config = kernel.machine.config
    gap_threshold = 4 * (
        config.latency.readtime_cycles
        + config.latency.base_cycles
        + config.l1i_latency.hit_cycles
        + config.latency.tlb_hit_cycles
    )
    kernel.create_thread(
        lo,
        gap_spy,
        params={
            "results": results,
            "rounds": rounds_per_run,
            "gap_threshold": gap_threshold,
            "sleep_cycles": _HI_SLICE // 2,
        },
    )
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    return rounds_per_run * 400_000


def experiment(
    tp: TimeProtectionConfig,
    machine_factory: Callable[[], Machine],
    rounds_per_run: int = 6,
    sweep_rounds: int = 2,
) -> ChannelResult:
    """Measure the completion-interrupt channel under ``tp``."""
    return run_symbol_sweep(
        "I/O completion interrupt channel", tp, machine_factory,
        partial(build, rounds_per_run=rounds_per_run), [0, 1],
        rounds=sweep_rounds, warmup=1,
    )
