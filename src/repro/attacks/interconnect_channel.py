"""The stateless-interconnect covert channel (Sect. 2): out of scope, by design.

"Such channels, exploiting the finite bandwidth of interconnects through
concurrent competing access, are trivial to implement: a Trojan running
on one core signals by modulating its use of interconnect bandwidth, and
a spy running on a different core measures the remaining bandwidth...
Such channels can only be prevented with hardware support that is not
available on any contemporary mainstream hardware."

This experiment demonstrates exactly that: with *every* time-protection
mechanism enabled (colouring, cloning, flushing, padding, IRQ
partitioning), the cross-core bandwidth channel still decodes perfectly.
The MBA variant reproduces footnote 1: approximate, windowed throttling
narrows but does not close the channel.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List

from ..hardware.isa import Access, Compute, FlushLine, ProgramContext, ReadTime
from ..hardware.machine import Machine
from ..kernel.kernel import Kernel
from ..kernel.timeprotect import TimeProtectionConfig
from .harness import ChannelResult, run_symbol_sweep


def bandwidth_trojan(ctx: ProgramContext):
    """Saturate the memory bus iff the bit is 1 (flush+reload = always-miss)."""
    bit = ctx.params["bit"]
    lines = 8
    while True:
        if bit:
            for line in range(lines):
                address = ctx.data_base + line * ctx.line_size
                yield FlushLine(address)
                yield Access(address)
        else:
            yield Compute(lines * 40)


def bandwidth_spy(ctx: ProgramContext):
    """Measure the latency of guaranteed-miss probes: residual bandwidth."""
    results: List[int] = ctx.params["results"]
    rounds = ctx.params.get("rounds", 8)
    probes = ctx.params.get("probes_per_round", 24)
    for round_index in range(rounds):
        t0 = yield ReadTime()
        for probe in range(probes):
            address = ctx.data_base + probe * ctx.line_size
            yield FlushLine(address)
            yield Access(address)
            # Dither the probe spacing: in a fully deterministic system a
            # fixed-period probe train phase-locks with the Trojan's bus
            # pattern and can sit entirely inside its gaps; sweeping the
            # phase makes the measured total reflect true bus occupancy.
            yield Compute((probe * 13 + round_index * 7) % 37)
        t1 = yield ReadTime()
        results.append(t1.value - t0.value)


def build(
    kernel: Kernel, bit: int, results: List[int], rounds_per_run: int = 8
) -> int:
    """Boot the two-core system with Hi sending ``bit``; returns its horizon."""
    if len(kernel.machine.cores) < 2:
        raise ValueError("the interconnect experiment needs two cores")
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=8000)
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=8000)
    kernel.create_thread(
        lo,
        bandwidth_spy,
        core_id=0,
        params={"results": results, "rounds": rounds_per_run},
    )
    kernel.create_thread(
        hi, bandwidth_trojan, core_id=1, params={"bit": bit}, daemon=True
    )
    kernel.set_schedule(0, [(lo, None)])
    kernel.set_schedule(1, [(hi, None)])
    return rounds_per_run * 120_000


def experiment(
    tp: TimeProtectionConfig,
    machine_factory: Callable[[], Machine],
    rounds_per_run: int = 8,
    sweep_rounds: int = 2,
    quantum: int = 64,
) -> ChannelResult:
    """Measure the cross-core bandwidth channel under ``tp``.

    Expected result: capacity stays high for every ``tp`` -- including
    full time protection -- because the interconnect is stateless and the
    OS has no mechanism for it.
    """
    result = run_symbol_sweep(
        "stateless interconnect bandwidth channel (cross-core)",
        tp, machine_factory, partial(build, rounds_per_run=rounds_per_run), [0, 1],
        rounds=sweep_rounds, warmup=1, quantum=quantum,
    )
    if machine_factory().interconnect.mba:
        result.tp_label += ",MBA"
    return result
