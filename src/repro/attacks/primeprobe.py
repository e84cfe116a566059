"""Prime-and-probe channels (Sect. 3.1; Percival [2005], Osvik et al. [2006]).

Two variants, matching the paper's two sharing modes:

* **Time-shared L1** (:func:`l1_experiment`): Trojan and spy share a core.
  The Trojan encodes a symbol by hammering one L1 set; the spy primes the
  whole L1, sleeps through the Trojan's slice, then probes each set with
  timed loads -- the slow set names the symbol.  Flushing the L1 on every
  domain switch (plus padding) is the defence: L1 caches have a single
  page colour, so partitioning cannot help (Sect. 4.1).

* **Concurrent LLC** (:func:`llc_experiment`): Trojan and spy run on
  different cores sharing the LLC.  The Trojan hammers pages of one
  colour; the spy prime-probes one page of each colour and watches which
  colour's probe slows down.  "Partitioning is the only option where
  concurrent accesses happen": cache colouring gives the domains disjoint
  colours, after which the spy's probes can no longer collide with the
  Trojan's working set.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence

from ..hardware.isa import Access, Compute, ProgramContext, ReadTime, Syscall
from ..hardware.machine import Machine
from ..kernel.kernel import Kernel
from ..kernel.timeprotect import TimeProtectionConfig
from .harness import ChannelResult, run_symbol_sweep

_HI_SLICE = 4000
_LO_SLICE = 12000


# ----------------------------------------------------------------------
# Time-shared L1 variant
# ----------------------------------------------------------------------

def l1_trojan(ctx: ProgramContext):
    """Hammer one L1 set (page-offset addressed) forever."""
    symbol = ctx.params["symbol"]
    n_pages = ctx.data_size // ctx.page_size
    # Instructions are immutable, so the hammer sequence is built once.
    accesses = [
        Access(
            ctx.data_base + page * ctx.page_size + symbol * ctx.line_size,
            write=True,
            value=symbol,
        )
        for page in range(n_pages)
    ]
    while True:
        for access in accesses:
            yield access


def l1_spy(ctx: ProgramContext):
    """Differential prime-and-probe over all L1 sets.

    Each round: prime every set (both ways), time a per-set probe as the
    baseline, sleep through the Trojan's slice, time the probe again, and
    report the set with the largest latency increase.  The differential
    cancels the deterministic pollution of the spy's own kernel entries
    (the sleep syscall touches kernel data in fixed sets); only the
    Trojan's evictions remain.
    """
    n_sets = ctx.params["l1_sets"]
    ways_pages = ctx.params.get("prime_pages", 2)
    results: List[int] = ctx.params["results"]
    rounds = ctx.params.get("rounds", 6)
    # Instructions are immutable; build the prime walk, per-set probe
    # lines, timer and sleep once and replay them every round.
    read_time = ReadTime()
    sleep = Syscall("sleep", (ctx.params["sleep_cycles"],))
    prime = [
        Access(ctx.data_base + page * ctx.page_size + set_index * ctx.line_size)
        for page in range(ways_pages)
        for set_index in range(n_sets)
    ]
    probe_lines = [
        [
            Access(ctx.data_base + page * ctx.page_size + set_index * ctx.line_size)
            for page in range(ways_pages)
        ]
        for set_index in range(n_sets)
    ]

    def probe():
        latencies = []
        for lines in probe_lines:
            t0 = yield read_time
            for access in lines:
                yield access
            t1 = yield read_time
            latencies.append(t1.value - t0.value)
        return latencies

    for _round in range(rounds):
        # Prime: cover every set with `ways_pages` lines.
        for access in prime:
            yield access
        baseline = yield from probe()
        # Sleep through (at least) one Trojan slice.
        yield sleep
        after = yield from probe()
        delta = [after[s] - baseline[s] for s in range(n_sets)]
        slowest = max(range(n_sets), key=lambda s: delta[s])
        results.append(slowest)


def l1_build(
    kernel: Kernel, symbol: int, results: List[int], rounds_per_run: int = 6
) -> int:
    """Boot the system with Hi hammering set ``symbol``; returns its horizon.

    Prime depth and slice lengths scale with the L1 geometry: the spy
    needs ``ways`` lines per set to own the whole cache, the Trojan needs
    ``ways`` conflicting lines to evict a full set, and the spy's slice
    must fit a prime plus two timed probes.
    """
    geometry = kernel.machine.config.l1d_geometry
    lo_slice = max(_LO_SLICE, geometry.sets * geometry.ways * 80)
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=_HI_SLICE)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=lo_slice)
    kernel.create_thread(
        hi, l1_trojan, params={"symbol": symbol},
        data_pages=geometry.ways, daemon=True,
    )
    kernel.create_thread(
        lo,
        l1_spy,
        params={
            "l1_sets": geometry.sets,
            "prime_pages": geometry.ways,
            "results": results,
            "rounds": rounds_per_run,
            "sleep_cycles": lo_slice + _HI_SLICE // 2,
        },
        data_pages=geometry.ways,
    )
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    return rounds_per_run * (60 * lo_slice)


def l1_experiment(
    tp: TimeProtectionConfig,
    machine_factory: Callable[[], Machine],
    symbols: Optional[Sequence[int]] = None,
    rounds_per_run: int = 6,
    sweep_rounds: int = 1,
    on_kernel: Optional[Callable[[Kernel], None]] = None,
) -> ChannelResult:
    """Measure the time-shared L1 prime-and-probe channel under ``tp``."""
    l1_sets = machine_factory().config.l1d_geometry.sets
    # The first rounds run before prime/sleep aligns with the domain
    # schedule: warm-up.
    return run_symbol_sweep(
        "prime+probe L1 (time-shared)", tp, machine_factory,
        partial(l1_build, rounds_per_run=rounds_per_run),
        range(l1_sets) if symbols is None else symbols,
        rounds=sweep_rounds, warmup=2, on_kernel=on_kernel,
        metadata={"l1_sets": l1_sets},
    )


# ----------------------------------------------------------------------
# Concurrent LLC variant
# ----------------------------------------------------------------------

def llc_trojan(ctx: ProgramContext):
    """Hammer every line of the data pages that have the symbol's colour.

    Without colouring the Trojan's pages span all colours, so it can
    modulate exactly the LLC region named by the symbol; with colouring
    its pages only ever have its own domain's colours and the loop
    degenerates to hammering its own partition.
    """
    symbol = ctx.params["symbol"]
    n_colours = ctx.params["n_colours"]
    target_pages = [
        page
        for page, colour in enumerate(ctx.page_colours)
        if colour == symbol % n_colours
    ]
    if not target_pages:
        # Colouring denied the Trojan any page of that colour: hammer the
        # first page so it still executes (and still leaks nothing).
        target_pages = [0]
    lines_per_page = ctx.page_size // ctx.line_size
    while True:
        for page in target_pages:
            for line in range(lines_per_page):
                yield Access(
                    ctx.data_base + page * ctx.page_size + line * ctx.line_size,
                    write=True,
                    value=symbol,
                )


def llc_spy(ctx: ProgramContext):
    """Continuously prime-probe an eviction set per colour.

    The per-colour probe set spans several pages so it exceeds the
    private L1/L2 associativity: the probe's own lines self-evict from
    the private levels, and the timed reload measures *LLC* residency --
    the standard construction for last-level prime-and-probe.  The colour
    whose probe slows down is the colour the Trojan is hammering.
    """
    results: List[int] = ctx.params["results"]
    rounds = ctx.params.get("rounds", 8)
    pages_of_colour: dict = {}
    for page, colour in enumerate(ctx.page_colours):
        pages_of_colour.setdefault(colour, []).append(page)
    colours = sorted(pages_of_colour)
    lines_per_page = ctx.page_size // ctx.line_size

    def probe_addresses(colour):
        addresses = [
            ctx.data_base + page * ctx.page_size + line * ctx.line_size
            for page in pages_of_colour[colour]
            for line in range(lines_per_page)
        ]
        # Deterministically permute so consecutive strides vary: a
        # sequential walk would train the stride prefetcher and hide LLC
        # state behind prefetch hits (the standard countermeasure used by
        # real LLC prime-and-probe implementations).
        count = len(addresses)
        step = 7 if count % 7 else 5
        return [addresses[(i * step + 3) % count] for i in range(count)]

    def probe_colour(colour):
        t0 = yield ReadTime()
        for address in probe_addresses(colour):
            yield Access(address)
        t1 = yield ReadTime()
        return t1.value - t0.value

    # Prime every colour once (also warms translations).
    for colour in colours:
        yield from probe_colour(colour)
    for _round in range(rounds):
        yield Compute(2000)  # let the Trojan work
        latencies = []
        for colour in colours:
            latency = yield from probe_colour(colour)
            latencies.append(latency)
        slowest = colours[max(range(len(colours)), key=lambda i: latencies[i])]
        results.append(slowest)


def llc_build(
    kernel: Kernel, symbol: int, results: List[int], rounds_per_run: int = 8
) -> int:
    """Boot the 2-core system, Hi on colour ``symbol``; returns its horizon."""
    machine = kernel.machine
    if len(machine.cores) < 2:
        raise ValueError("the LLC experiment needs a 2-core machine")
    n_colours = machine.n_colours
    lo = kernel.create_domain("Lo", n_colours=3, slice_cycles=_LO_SLICE)
    hi = kernel.create_domain("Hi", n_colours=3, slice_cycles=_HI_SLICE)
    # Eviction-set sizing: each colour-c page contributes one line to
    # every private-L2 set the colour maps to, so (l2.ways + 2) pages
    # per colour overflow the private levels while still fitting the
    # (larger) LLC colour capacity -- the probe then measures LLC
    # residency, not private-cache residency.
    pages_per_colour = machine.config.l2_geometry.ways + 2
    buffer_pages = pages_per_colour * n_colours
    kernel.create_thread(
        lo,
        llc_spy,
        core_id=0,
        data_pages=buffer_pages,
        params={
            "results": results,
            "rounds": rounds_per_run,
            "n_colours": n_colours,
        },
    )
    kernel.create_thread(
        hi,
        llc_trojan,
        core_id=1,
        data_pages=buffer_pages,
        params={"symbol": symbol, "n_colours": n_colours},
        daemon=True,
    )
    kernel.set_schedule(0, [(lo, None)])
    kernel.set_schedule(1, [(hi, None)])
    return rounds_per_run * 200_000


def llc_experiment(
    tp: TimeProtectionConfig,
    machine_factory: Callable[[], Machine],
    symbols: Optional[Sequence[int]] = None,
    rounds_per_run: int = 8,
    sweep_rounds: int = 1,
    on_kernel: Optional[Callable[[Kernel], None]] = None,
) -> ChannelResult:
    """Measure the concurrent (cross-core) LLC channel under ``tp``."""
    n_colours = machine_factory().n_colours
    return run_symbol_sweep(
        "prime+probe LLC (concurrent, cross-core)", tp, machine_factory,
        partial(llc_build, rounds_per_run=rounds_per_run),
        range(n_colours) if symbols is None else symbols,
        rounds=sweep_rounds, warmup=1, on_kernel=on_kernel,
        metadata={"n_colours": n_colours},
    )
