"""E12 (Sect. 5.3): the TLB/ASID partitioning theorem, functional + timing.

Paper claim: the Syeda & Klein TLB model shows "page tables modifications
under one address space identifier (ASID) do not affect TLB consistency
for any other ASID" -- "the kind of partitioning theorem we would make
use of for timing-relevant state."

Regenerated: (i) the functional theorem on the TLB model directly, over a
sweep of mutation counts; (ii) its timing shadow in the full system: a
Hi domain that remaps its own pages at a secret-dependent rate never
perturbs Lo's TLB-sensitive walk timing under full TP.
"""

from repro.core import secret_swap_experiment
from repro.core.noninterference import SWAP_EVIDENCE
from repro.hardware import Access, Compute, Halt, ReadTime, presets
from repro.hardware.geometry import TlbGeometry
from repro.hardware.memory import PhysicalMemory
from repro.hardware.mmu import AddressSpaceManager
from repro.hardware.tlb import Tlb
from repro.kernel import Kernel, TimeProtectionConfig

from _common import run_once


def _functional_theorem(mutations):
    """Mutate space B ``mutations`` times; A's TLB view must not move."""
    memory = PhysicalMemory(total_frames=128, page_size=256, n_colours=8)
    manager = AddressSpaceManager(memory)
    space_a, space_b = manager.create(), manager.create()
    for page in range(4):
        space_a.map(0x1000 + page * 256, memory.alloc_frame())
        space_b.map(0x1000 + page * 256, memory.alloc_frame())
    tlb = Tlb(name="e12.tlb", geometry=TlbGeometry(entries=16))
    for page in range(4):
        mapping = space_a.lookup(0x1000 + page * 256)
        tlb.fill(space_a.asid, (0x1000 + page * 256) // 256,
                 mapping.frame.number, True, space_a.generation)
    view_before = tlb.entries_for_asid(space_a.asid)
    for mutation in range(mutations):
        vaddr = 0x1000 + (mutation % 4) * 256
        space_b.unmap(vaddr)
        space_b.map(vaddr, memory.alloc_frame())
    view_after = tlb.entries_for_asid(space_a.asid)
    consistent = tlb.consistent_with(space_a.asid, space_a)
    return view_before.keys() == view_after.keys(), consistent


def _remapper(ctx):
    # Hi: plain compute; its *kernel-visible* behaviour (remap rate) is
    # modelled by secret-dependent memory pressure over many pages, which
    # churns the shared TLB when unprotected.
    secret = ctx.params["secret"]
    n_pages = ctx.data_size // ctx.page_size
    while True:
        for i in range(secret + 1):
            yield Access(ctx.data_base + (i % n_pages) * ctx.page_size, write=True,
                         value=i)
        yield Compute(20)


def _walker(ctx):
    # Lo: touches many of its own pages so TLB misses (and their cached
    # walks) dominate its timing.
    n_pages = ctx.data_size // ctx.page_size
    for i in range(300):
        yield ReadTime()
        yield Access(ctx.data_base + (i % n_pages) * ctx.page_size)
    yield Halt()


def _system(secret):
    machine = presets.tiny_machine()
    kernel = Kernel(machine, TimeProtectionConfig.full())
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=3000)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=3000)
    kernel.create_thread(hi, _remapper, data_pages=8, params={"secret": secret})
    kernel.create_thread(lo, _walker, data_pages=8)
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    kernel.declare(SWAP_EVIDENCE)
    kernel.run(max_cycles=500_000)
    return kernel


def _sweep():
    functional = {m: _functional_theorem(m) for m in (0, 1, 8, 64)}
    timing = secret_swap_experiment(_system, 1, 7, observer_domain="Lo")
    return functional, timing


def test_e12_tlb_asid_partitioning(benchmark):
    functional, timing = run_once(benchmark, _sweep)
    print("\n=== E12: TLB/ASID partitioning theorem ===")
    print(f"{'B mutations':>12s} {'A view unchanged':>17s} {'A consistent':>13s}")
    for mutations, (unchanged, consistent) in sorted(functional.items()):
        print(f"{mutations:>12d} {str(unchanged):>17s} {str(consistent):>13s}")
    print(f"\ntiming shadow (two-run, TLB-heavy Lo): {timing}")
    for unchanged, consistent in functional.values():
        assert unchanged and consistent
    assert timing.holds
