"""The switch-latency channel: why padding exists (Sect. 4.2).

"For writable micro-architectural state (e.g. the L1 data cache), the
latency of the flush is itself dependent on execution history (number of
dirty lines), which would create a channel.  We avoid this channel by
padding the domain-switch latency to a fixed value."

The Trojan dirties a secret-dependent number of cache lines each slice;
the flush's write-back latency then shifts when Lo's next slice starts.
Lo timestamps its slice starts and decodes the secret from consecutive
start-to-start periods.  With padding, every period is constant.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence

from ..hardware.isa import Access, Compute, ProgramContext, ReadTime, Syscall
from ..hardware.machine import Machine
from ..kernel.kernel import Kernel
from ..kernel.timeprotect import TimeProtectionConfig
from .harness import ChannelResult, run_symbol_sweep

_HI_SLICE = 5000
_LO_SLICE = 5000


def dirty_trojan(ctx: ProgramContext):
    """Dirty ``symbol`` distinct lines each slice, then go quiet."""
    symbol = ctx.params["symbol"]
    lines_per_page = ctx.page_size // ctx.line_size
    while True:
        for line in range(symbol):
            page, offset = divmod(line, lines_per_page)
            yield Access(
                ctx.data_base + page * ctx.page_size + offset * ctx.line_size,
                write=True,
                value=line,
            )
        yield Syscall("sleep", (_HI_SLICE + _LO_SLICE,))


def slice_start_spy(ctx: ProgramContext):
    """Timestamp each of the spy's slice starts; report the periods."""
    results: List[int] = ctx.params["results"]
    rounds = ctx.params.get("rounds", 8)
    previous = None
    for _round in range(rounds):
        stamp = yield ReadTime()
        if previous is not None:
            results.append(stamp.value - previous)
        previous = stamp.value
        # Sleep past our own slice end; we resume at the start of our
        # next slice, right after the (possibly unpadded) switch.
        yield Syscall("sleep", (_LO_SLICE + _HI_SLICE // 2,))


def build(
    kernel: Kernel, symbol: int, results: List[int], rounds_per_run: int = 8
) -> int:
    """Boot the system with Hi dirtying ``symbol`` lines; returns its horizon."""
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=_HI_SLICE)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=_LO_SLICE)
    kernel.create_thread(
        hi, dirty_trojan, params={"symbol": symbol}, data_pages=4, daemon=True
    )
    kernel.create_thread(
        lo,
        slice_start_spy,
        params={"results": results, "rounds": rounds_per_run},
    )
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    return rounds_per_run * 300_000


def experiment(
    tp: TimeProtectionConfig,
    machine_factory: Callable[[], Machine],
    symbols: Optional[Sequence[int]] = None,
    rounds_per_run: int = 8,
    sweep_rounds: int = 1,
    quantum: int = 8,
    on_kernel: Optional[Callable[[Kernel], None]] = None,
) -> ChannelResult:
    """Measure the dirty-line switch-latency channel under ``tp``."""
    if symbols is None:
        geometry = machine_factory().config.l1d_geometry
        max_lines = geometry.sets * geometry.ways
        symbols = sorted({1, max_lines // 3, 2 * max_lines // 3, max_lines})
    return run_symbol_sweep(
        "dirty-line switch-latency channel", tp, machine_factory,
        partial(build, rounds_per_run=rounds_per_run), symbols,
        rounds=sweep_rounds, warmup=2, quantum=quantum, on_kernel=on_kernel,
    )
