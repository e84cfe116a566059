"""Model-checked system specifications and their fixed workloads.

The checker explores *small, closed* systems: a Hi domain whose program
depends on a secret, a Lo domain running a fixed timing-probe program,
one core, a static two-slot schedule.  Everything here is plain data
(:class:`McSpec` is a frozen dataclass of names and integers) so a spec
plus a choice path rebuilds a system deterministically -- which
counterexample replay relies on.

The workload is chosen so each mechanism failure is *reachable*:

* Hi dirties ``secret + 1`` cache lines, so the flush latency at the
  switch out of Hi -- and, without colouring, the shared-cache residue --
  is a function of the secret;
* Lo interleaves ``ReadTime`` with a fixed probe sweep, so both release
  timestamps and inherited cache state are architecturally visible to it.

Nondeterminism is explicit: a *choice* is either ``("step",)`` -- one
kernel scheduler step -- or ``("irq", line)`` -- a device raises ``line``
now (scheduled at the stepped core's current clock), then the kernel
steps.  A path of choices fully determines an execution, which is what
makes counterexamples replayable through the concrete two-run harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..campaign.registry import MACHINES, TP_CONFIGS
from ..hardware.isa import Access, Compute, Halt, ReadTime
from ..hardware.state import Evidence
from ..kernel.kernel import Kernel
from ..kernel.objects import ReplayableProgram, ThreadState

#: The abstract choice alphabet: one kernel step, or an IRQ injection.
STEP = ("step",)


def hi_step(ctx, index, observation):
    """Hi's program: dirty ``secret + 1`` lines, compute briefly, stop."""
    secret = ctx.params["secret"]
    writes = secret + 1
    if index < writes:
        return Access(
            ctx.data_base + (index * ctx.line_size) % ctx.data_size,
            write=True,
            value=secret,
        )
    if index < writes + 2:
        return Compute(20)
    return None


def lo_step(ctx, index, observation):
    """Lo's program: rounds of ReadTime plus a fixed probe sweep, then halt."""
    probes = ctx.params["probes"]
    rounds = ctx.params["rounds"]
    per_round = 1 + probes
    if index >= rounds * per_round:
        return Halt()
    phase = index % per_round
    if phase == 0:
        return ReadTime()
    return Access(
        ctx.data_base + ((phase - 1) * ctx.line_size) % ctx.data_size
    )


@dataclass(frozen=True)
class McSpec:
    """Everything needed to rebuild a model-checked system by name."""

    machine: str
    tp: str
    secrets: Tuple[int, ...] = (0, 1, 2)
    depth: int = 400
    max_states: int = 200_000
    #: IRQ lines the environment may raise (owned by Hi; line 0 is the
    #: preemption timer and cannot be injected).
    irq_lines: Tuple[int, ...] = (1,)
    #: How many injections one path may contain.
    irq_budget: int = 1
    #: Safety horizon: a state whose clock passed this is terminal.  The
    #: workloads halt well before it (pad cycles dominate: each domain
    #: switch costs ~14k cycles on micro), so ordinary paths end by
    #: thread completion, never by the horizon.
    max_cycles: int = 150_000
    slice_cycles: int = 400
    kernel_image_pages: Optional[int] = None
    #: Two rounds are the minimum that observes anything: round one
    #: primes (compulsory misses, a timestamp), round two measures
    #: (hits unless evicted by residue; a second timestamp that catches
    #: accumulated timing drift).
    lo_probes: int = 2
    lo_rounds: int = 2

    @classmethod
    def for_machine(cls, machine: str, tp: str, **overrides) -> "McSpec":
        """Per-machine defaults (image sizing, slice length), overridable.

        Raises ``ValueError`` for a bound that leaves nothing to explore
        (``depth`` or ``max_states`` below 1, a negative ``irq_budget``)
        and for an IRQ line the preset cannot inject: line 0 is the
        preemption timer, and lines stop at the preset's controller
        width.
        """
        if machine not in MACHINES:
            raise KeyError(f"unknown machine preset {machine!r}")
        if tp not in TP_CONFIGS:
            raise KeyError(f"unknown tp config {tp!r}")
        spec = cls(machine=machine, tp=tp)
        if machine == "micro":
            # 8 pages x 4 lines/page = 32 text lines: enough for both
            # switch-code sides; handler offsets wrap modulo the image.
            spec = replace(spec, kernel_image_pages=8, slice_cycles=400)
        else:
            spec = replace(spec, slice_cycles=600)
        spec = replace(spec, **overrides)
        for name, value, least in (("depth", spec.depth, 1),
                                   ("max_states", spec.max_states, 1),
                                   ("irq_budget", spec.irq_budget, 0)):
            if value < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {value}")
        n_lines = MACHINES[machine]().config.irq_lines
        for line in spec.irq_lines:
            if not 0 < line < n_lines:
                raise ValueError(
                    f"IRQ line {line} cannot be injected on {machine}: "
                    f"use lines 1..{n_lines - 1} (line 0 is the "
                    f"preemption timer)"
                )
        return spec

    def secret_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """All unordered pairs of distinct secrets (product-state roots)."""
        ordered = sorted(set(self.secrets))
        return tuple(
            (ordered[i], ordered[j])
            for i in range(len(ordered))
            for j in range(i + 1, len(ordered))
        )


#: What the product checks read: the case labels (no footprints), the
#: switch snapshots behind the Lo-projection and flush-reset checks, and
#: touch sets of the LLC only -- the one element the per-transition
#: partition audit (check_partition_touches) examines.
MC_EVIDENCE = Evidence(touches=frozenset({"llc"}), cases=True, switches=True)


def build_system(spec: McSpec, secret: int) -> Kernel:
    """Construct (but do not run) the model-checked system for a secret."""
    machine = MACHINES[spec.machine]()
    tp = TP_CONFIGS[spec.tp]()
    kernel = Kernel(machine, tp, kernel_image_pages=spec.kernel_image_pages)
    kernel.declare(MC_EVIDENCE)
    hi = kernel.create_domain(
        "Hi", n_colours=1, slice_cycles=spec.slice_cycles,
        irq_lines=spec.irq_lines,
    )
    lo = kernel.create_domain("Lo", n_colours=1, slice_cycles=spec.slice_cycles)
    kernel.create_thread(
        hi, ReplayableProgram.factory(hi_step),
        data_pages=2, code_pages=1, params={"secret": secret},
    )
    kernel.create_thread(
        lo, ReplayableProgram.factory(lo_step),
        data_pages=2, code_pages=1,
        params={"probes": spec.lo_probes, "rounds": spec.lo_rounds},
    )
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    return kernel


def is_terminal(kernel: Kernel, spec: McSpec) -> bool:
    """All threads finished (or the safety horizon was crossed)."""
    if kernel.machine.cores[0].clock.now >= spec.max_cycles:
        return True
    threads = kernel.all_threads()
    return bool(threads) and all(
        tcb.state in (ThreadState.DONE, ThreadState.FAULTED)
        for tcb in threads
    )


def apply_choice(kernel: Kernel, choice: Tuple) -> None:
    """Concretise one abstract choice on one side of the product."""
    if choice[0] == "irq":
        core = kernel.machine.cores[0]
        core.irq.schedule(choice[1], fire_time=core.clock.now)
    kernel.step(core_id=0)
