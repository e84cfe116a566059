"""Secret-dependent victim programs the guessing game runs as Hi.

Each victim is a stateless ``ReplayableProgram`` step function (pure in
``(ctx, index)``), so whole episodes -- victim and evolved spy alike --
snapshot and replay under the model checker.  A victim encodes
``ctx.params["symbol"]`` into some microarchitectural state and nothing
else; it never communicates architecturally.  Which state, differs per
victim, giving the search distinct channels to (re)discover:

``set_hammer``      L1 set occupancy (the E2 prime+probe target).
``syscall_user``    kernel-text residency: symbol selects which syscall
                    handler runs (the E4 flush+reload target).
``region_strider``  stride-prefetcher training: symbol sets the stride
                    and last-address of a hot prefetcher stream entry
                    (residual state on hardware without a prefetcher
                    flush -- the novel-channel target).
"""

from __future__ import annotations

from typing import Dict

from ..hardware.isa import Access, Compute, ProgramContext, Syscall

#: Syscall handlers a ``syscall_user`` victim cycles between; each has a
#: distinct kernel-text footprint (see ``kernel.syscalls._OP_COSTS``).
_SYSCALL_OPS = ("nop", "send", "poll", "sleep")


def set_hammer_victim(ctx: ProgramContext, index: int, observation):
    """Hammer the L1 set named by the symbol across all data pages."""
    symbol = ctx.params["symbol"]
    lines_per_page = max(1, ctx.page_size // ctx.line_size)
    n_pages = max(1, ctx.data_size // ctx.page_size)
    page = index % n_pages
    return Access(
        ctx.data_base
        + page * ctx.page_size
        + (symbol % lines_per_page) * ctx.line_size,
        write=True,
        value=symbol & 0xFF,
    )


def syscall_user_victim(ctx: ProgramContext, index: int, observation):
    """Alternate computes with the symbol's syscall handler.

    The handler's text lines (and only those) become cache-resident in
    the domain's kernel image -- the footprint flush+reload reads.
    ``send`` and ``poll`` use the endpoint the runner created, whose id
    it passes as ``ctx.params["endpoint"]``.
    """
    symbol = ctx.params["symbol"]
    if index % 4 == 3:
        return Compute(40)
    op = _SYSCALL_OPS[symbol % len(_SYSCALL_OPS)]
    if op == "send":
        return Syscall(op, (ctx.params["endpoint"], 0))
    if op == "poll":
        return Syscall(op, (ctx.params["endpoint"],))
    if op == "sleep":
        return Syscall(op, (0,))
    return Syscall(op)


def stream_strider_victim(ctx: ProgramContext, index: int, observation):
    """Stream over a multi-page window with a symbol-dependent stride.

    The window (``window_pages`` pages starting at ``base_page``,
    defaults 3 from page 0) holds more lines per L1 set than the cache
    has ways, so *every* access misses L1 and reaches the prefetcher's
    ``observe``.  The stream entry for the window's physical region is
    therefore live the whole slice and hands over ``(last_addr, stride)``
    both determined by the secret -- the residue a spy in the same
    region can convert back into the symbol.
    """
    symbol = ctx.params["symbol"]
    lines_per_page = max(1, ctx.page_size // ctx.line_size)
    n_pages = max(1, ctx.data_size // ctx.page_size)
    base_page = int(ctx.params.get("base_page", 0)) % n_pages
    window_pages = min(
        int(ctx.params.get("window_pages", 3)), n_pages - base_page
    )
    window_lines = max(1, window_pages * lines_per_page)
    strides = tuple(ctx.params.get("strides", (1, 5, 7, 11)))
    stride = strides[symbol % len(strides)]
    line = (index * stride) % window_lines
    return Access(
        ctx.data_base + base_page * ctx.page_size + line * ctx.line_size,
        write=False,
    )


def region_strider_victim(ctx: ProgramContext, index: int, observation):
    """Walk page 0 with a symbol-dependent stride, forever.

    Trains the stride prefetcher's entry for the page's physical region
    to a symbol-dependent ``(last_addr, stride)``.  On hardware with no
    architected prefetcher flush that entry survives the domain switch,
    and the *next* domain's first demand miss in the same 4 KiB region
    triggers prefetches at addresses derived from the victim's
    ``last_addr`` -- cache fills a spy can time.
    """
    symbol = ctx.params["symbol"]
    lines_per_page = max(1, ctx.page_size // ctx.line_size)
    stride_lines = 1 + symbol % max(1, lines_per_page - 1)
    line = (index * stride_lines) % lines_per_page
    return Access(ctx.data_base + line * ctx.line_size, write=False)


VICTIMS: Dict[str, object] = {
    "set_hammer": set_hammer_victim,
    "syscall_user": syscall_user_victim,
    "stream_strider": stream_strider_victim,
    "region_strider": region_strider_victim,
}

#: Default symbol alphabet per victim (small, well-separated).
DEFAULT_SYMBOLS: Dict[str, tuple] = {
    "set_hammer": (1, 3, 5, 7),
    "syscall_user": (0, 1, 2, 3),
    "stream_strider": (0, 1, 2, 3),
    "region_strider": (0, 1, 2, 3),
}
