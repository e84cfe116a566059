"""The branch-predictor channel (Sect. 3.1's "branch predictors").

Branch predictors are untagged: entries trained by one domain are
consulted by the next domain's branches at the same (virtual) pc --
exactly the residue behind the Spectre-family attacks the paper's
introduction cites.  The Trojan trains the shared direction predictor
taken or not-taken at the spy's own branch addresses; the spy then times
a run of not-taken branches -- inherited taken-training makes every one
of them mispredict, adding a fixed penalty each.  Flushing predictor
state on the domain switch leaves the spy facing the reset-state
prediction, identical whatever the Trojan trained.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List

from ..hardware.cpu import INSTRUCTION_BYTES
from ..hardware.isa import Branch, Compute, ProgramContext, ReadTime, Syscall
from ..hardware.machine import Machine
from ..kernel.kernel import Kernel
from ..kernel.timeprotect import TimeProtectionConfig
from .harness import ChannelResult, run_symbol_sweep

_HI_SLICE = 5000
_LO_SLICE = 10000
_TRAIN_BRANCHES = 12


def branch_trojan(ctx: ProgramContext):
    """Saturate the predictor taken (bit 1) or not-taken (bit 0).

    Both domains' code regions start at the same virtual base and the
    predictor is untagged, so as the Trojan's pc wraps around its code
    page it trains *every* pc slot the spy's branches will later index.
    """
    bit = ctx.params["bit"]
    while True:
        yield Branch(taken=bool(bit))


def branch_spy(ctx: ProgramContext):
    """Time a run of not-taken branches right after the slice starts."""
    results: List[int] = ctx.params["results"]
    rounds = ctx.params.get("rounds", 6)
    threshold = ctx.params["penalty_threshold"]
    for _round in range(rounds):
        t0 = yield ReadTime()
        for _branch in range(_TRAIN_BRANCHES):
            yield Branch(taken=False)
        t1 = yield ReadTime()
        results.append(1 if (t1.value - t0.value) > threshold else 0)
        yield Syscall("sleep", (_LO_SLICE + _HI_SLICE // 2,))


def build(
    kernel: Kernel, bit: int, results: List[int], rounds_per_run: int = 8
) -> int:
    """Boot the system with the Trojan training ``bit``; returns its horizon."""
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=_HI_SLICE)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=_LO_SLICE)
    kernel.create_thread(hi, branch_trojan, params={"bit": bit}, daemon=True)
    # A mispredicted run pays the penalty on most of the probe
    # branches; half the total penalty cleanly separates the cases.
    config = kernel.machine.config
    quiet_step = (
        config.latency.base_cycles
        + config.l1i_latency.hit_cycles
        + config.latency.tlb_hit_cycles
        + 2
    )
    # A taken-trained predictor makes roughly every other probe
    # branch mispredict (taken training covers every other pc slot);
    # a quarter of the full penalty splits the two cases.
    threshold = (
        _TRAIN_BRANCHES * quiet_step
        + (_TRAIN_BRANCHES // 4) * config.latency.mispredict_penalty_cycles
    )
    kernel.create_thread(
        lo,
        branch_spy,
        params={
            "results": results,
            "rounds": rounds_per_run,
            "penalty_threshold": threshold,
        },
    )
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    return rounds_per_run * 300_000


def experiment(
    tp: TimeProtectionConfig,
    machine_factory: Callable[[], Machine],
    rounds_per_run: int = 8,
    sweep_rounds: int = 2,
) -> ChannelResult:
    """Measure the cross-domain branch-predictor channel under ``tp``."""
    # The early rounds are dominated by the spy's own cold
    # instruction-cache misses as its pc walks fresh code lines.
    return run_symbol_sweep(
        "branch-predictor training channel", tp, machine_factory,
        partial(build, rounds_per_run=rounds_per_run), [0, 1],
        rounds=sweep_rounds, warmup=4,
    )
