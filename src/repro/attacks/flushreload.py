"""Flush+Reload on shared kernel text (Yarom & Falkner [2014]).

Sect. 4.2: "even read-only sharing of code is sufficient for creating a
channel [Gullasch et al. 2011; Yarom and Falkner 2014], we also colour
the kernel image ... a policy-free kernel clone mechanism".

Without cloning, every domain's "kernel text" mapping aliases the same
physical master image.  The spy flushes the cache lines of a chosen
syscall handler, waits through the victim's slice, then reloads them with
timing: a fast reload means the victim executed that handler.  With
cloning, the spy's mapping resolves to its *own domain's* image, so the
victim's kernel activity leaves no trace the spy can address -- the
channel is closed structurally, not just statistically.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from ..hardware.isa import Access, Compute, FlushLine, ProgramContext, ReadTime, Syscall
from ..hardware.machine import Machine
from ..kernel.kernel import Kernel
from ..kernel.timeprotect import TimeProtectionConfig
from .harness import ChannelResult, run_symbol_sweep

_HI_SLICE = 5000
_LO_SLICE = 10000

# Text-line window of the "nop" syscall handler (see
# repro.kernel.syscalls._OP_COSTS): the probe target.
_TARGET_LINE_OFFSET = 32
_TARGET_LINES = 8


def victim(ctx: ProgramContext):
    """Execute the probed syscall iff the secret bit is 1."""
    bit = ctx.params["bit"]
    while True:
        if bit:
            yield Syscall("nop")
            yield Compute(50)
        else:
            yield Compute(400)


def fr_spy(ctx: ProgramContext):
    """Flush the handler's lines, wait a slice, reload with timing."""
    results: List[int] = ctx.params["results"]
    rounds = ctx.params.get("rounds", 6)
    threshold = ctx.params["hit_threshold"]
    base = ctx.shared_text_base
    targets = [
        base + (_TARGET_LINE_OFFSET + line) * ctx.line_size
        for line in range(_TARGET_LINES)
    ]
    # Reload in a permuted order so the probe's own stride does not train
    # the prefetcher (which would turn every reload into a prefetch hit).
    reload_order = [targets[(i * 3 + 1) % _TARGET_LINES] for i in range(_TARGET_LINES)]
    for _round in range(rounds):
        for address in targets:
            yield FlushLine(address)
        yield Syscall("sleep", (ctx.params["sleep_cycles"],))
        hits = 0
        for address in reload_order:
            t0 = yield ReadTime()
            yield Access(address)
            t1 = yield ReadTime()
            if (t1.value - t0.value) <= threshold:
                hits += 1
        results.append(1 if hits >= _TARGET_LINES // 2 else 0)


def build(
    kernel: Kernel, bit: int, results: List[int], rounds_per_run: int = 6
) -> int:
    """Boot the system with the victim sending ``bit``; returns its horizon."""
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=_HI_SLICE)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=_LO_SLICE)
    kernel.create_thread(hi, victim, params={"bit": bit}, daemon=True)
    config = kernel.machine.config
    # A reload that hits the LLC is clearly below this; a DRAM miss
    # is clearly above (the spy calibrates this in reality).
    threshold = (
        config.latency.readtime_cycles * 2
        + config.l1d_latency.hit_cycles
        + config.l2_latency.hit_cycles
        + config.llc_latency.hit_cycles
        + config.interconnect_transfer_cycles
    )
    kernel.create_thread(
        lo,
        fr_spy,
        params={
            "results": results,
            "rounds": rounds_per_run,
            "hit_threshold": threshold,
            "sleep_cycles": _LO_SLICE + _HI_SLICE // 2,
        },
    )
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    return rounds_per_run * 400_000


def experiment(
    tp: TimeProtectionConfig,
    machine_factory: Callable[[], Machine],
    rounds_per_run: int = 6,
    sweep_rounds: int = 2,
    on_kernel: Optional[Callable[[Kernel], None]] = None,
) -> ChannelResult:
    """Measure the kernel-text Flush+Reload channel under ``tp``."""
    return run_symbol_sweep(
        "flush+reload on kernel text", tp, machine_factory,
        partial(build, rounds_per_run=rounds_per_run), [0, 1],
        rounds=sweep_rounds, warmup=2, on_kernel=on_kernel,
    )
