"""Cache-occupancy channel: timing your own progress (Sect. 3.1).

The coarsest instance of "Lo's rate of progress is affected by cache
misses": the victim's working-set *size* modulates how much of the spy's
buffer survives the victim's slice, so the spy's traversal time of a
fixed buffer encodes the victim's memory intensity -- no per-set address
resolution required.  Flushing core-private state (plus LLC colouring)
makes the spy's traversal time a function of its own history only.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence

from ..hardware.isa import Access, Compute, ProgramContext, ReadTime, Syscall
from ..hardware.machine import Machine
from ..kernel.kernel import Kernel
from ..kernel.timeprotect import TimeProtectionConfig
from .harness import ChannelResult, run_symbol_sweep

_HI_SLICE = 6000
_LO_SLICE = 12000


def wss_victim(ctx: ProgramContext):
    """Cycle through a working set of ``symbol`` pages, forever."""
    pages = max(1, ctx.params["symbol"])
    lines_per_page = ctx.page_size // ctx.line_size
    n_pages = ctx.data_size // ctx.page_size
    while True:
        for page in range(min(pages, n_pages)):
            for line in range(lines_per_page):
                yield Access(
                    ctx.data_base + page * ctx.page_size + line * ctx.line_size,
                    write=True,
                    value=page,
                )


def traversal_spy(ctx: ProgramContext):
    """Time a fixed traversal of the spy's own buffer each round."""
    results: List[int] = ctx.params["results"]
    rounds = ctx.params.get("rounds", 6)
    lines_per_page = ctx.page_size // ctx.line_size
    n_pages = ctx.data_size // ctx.page_size
    addresses = [
        ctx.data_base + page * ctx.page_size + line * ctx.line_size
        for page in range(n_pages)
        for line in range(lines_per_page)
    ]
    step = 7 if len(addresses) % 7 else 5  # defeat the stride prefetcher
    walk = [addresses[(i * step + 3) % len(addresses)] for i in range(len(addresses))]
    for address in walk:
        yield Access(address)  # initial fill
    for _round in range(rounds):
        yield Syscall("sleep", (ctx.params["sleep_cycles"],))
        t0 = yield ReadTime()
        for address in walk:
            yield Access(address)
        t1 = yield ReadTime()
        results.append(t1.value - t0.value)


def build(
    kernel: Kernel, symbol: int, results: List[int], rounds_per_run: int = 6
) -> int:
    """Boot the system with a ``symbol``-page victim; returns its horizon."""
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=_HI_SLICE)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=_LO_SLICE)
    kernel.create_thread(
        hi, wss_victim, params={"symbol": symbol}, data_pages=12, daemon=True
    )
    kernel.create_thread(
        lo,
        traversal_spy,
        data_pages=6,
        params={
            "results": results,
            "rounds": rounds_per_run,
            "sleep_cycles": _LO_SLICE + _HI_SLICE // 2,
        },
    )
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    return rounds_per_run * 500_000


def experiment(
    tp: TimeProtectionConfig,
    machine_factory: Callable[[], Machine],
    symbols: Optional[Sequence[int]] = None,
    rounds_per_run: int = 6,
    sweep_rounds: int = 1,
    quantum: int = 64,
) -> ChannelResult:
    """Measure the occupancy channel: symbol = victim working-set pages.

    Observations are traversal times quantised to ``quantum`` cycles so
    that residual single-cycle jitter does not register as capacity.
    """
    if symbols is None:
        symbols = [1, 4, 8, 12]
    return run_symbol_sweep(
        "cache occupancy (timing own progress)", tp, machine_factory,
        partial(build, rounds_per_run=rounds_per_run), symbols,
        rounds=sweep_rounds, warmup=2, quantum=quantum,
    )
