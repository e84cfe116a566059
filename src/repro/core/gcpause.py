"""Pause the cyclic garbage collector for one proof or model check.

A proof keeps its reference run alive while it runs every other secret:
tens of thousands of footprint tuples and observation records, all
tracked by the cyclic collector, which walks them again at every
generation-2 collection the other runs' allocations trigger.  The model
checker allocates kernel clones fast enough that the generation scans
alone cost about a fifth of its wall clock.  Neither relies on prompt
cycle collection: reference counting still frees every finished kernel
and every dropped clone the moment its last reference goes.  Only the
few cyclic objects a run builds (domains, threads, address spaces) wait
for the one sweep at the end.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic collector off, then sweep once.

    The sweep is a full collection.  A young-generation one would be
    cheaper, but it promotes what the block still holds (the command's
    argument parser, say), so in a process that proves or checks again
    and again the cycles those objects leave pile up in the older
    generations.  The collector's state is restored however the block
    ends.  When it was already off (a caller paused it, or a nested
    pause), the block runs as it is and nothing is swept.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()
