"""Per-element counter evidence: *which* hardware state carries a channel.

An evolved genome claiming a "new" channel needs more than nonzero
mutual information -- it needs attribution.  This module runs an evolved
genome once per symbol on machines whose recorder is a
:class:`CountingRecorder` and asks, per ``(domain, element)`` counter,
whether the count observed *in the spy's domain* depends on the secret.
Elements whose spy-side counts vary across symbols are the state the
channel flows through; re-running on a prefetcher-ablated machine
(:func:`ablate_prefetcher`) then isolates the capacity that flows
through that element.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.hardware.state import Instrumentation
from repro.kernel.timeprotect import TimeProtectionConfig
from repro.synth.genome import Genome
from repro.synth.runner import experiment

#: One per-symbol counter profile: (domain, element) -> touch count.
CounterProfile = Dict[Tuple[Optional[str], str], int]


class CountingRecorder(Instrumentation):
    """A recorder fake that counts every touch per (domain, element).

    It counts every touch whatever the run declared, so no evidence
    declaration can hide one from it.  Latencies read concrete state,
    never the recorder, so counting changes no simulated result.
    """

    def __init__(self) -> None:
        super().__init__()
        self.counts: CounterProfile = {}

    def declare(self, evidence) -> None:
        super().declare(evidence)
        # The elements call touch() for every access of every element.
        self.recording = True
        self.kept = None

    def touch(self, element, index, kind) -> None:
        key = (self.current_domain, element)
        self.counts[key] = self.counts.get(key, 0) + 1


def counting_machines(machine_factory: Callable) -> Callable:
    """Machine factory whose machines record through a CountingRecorder.

    Installed before any kernel boots on the machine, because kernel
    subsystems capture the machine's recorder at construction.
    """

    def build():
        machine = machine_factory()
        recorder = CountingRecorder()
        machine.instrumentation = recorder
        for element in machine.all_state_elements():
            element.instr = recorder
        return machine

    return build


def ablate_prefetcher(machine_factory: Callable) -> Callable:
    """Machine factory with every core's stride prefetcher disabled.

    Setting ``degree = 0`` makes ``observe`` never issue prefetches while
    leaving the element registered, enumerated and flushed exactly as
    before -- so re-running a program on the ablated machine isolates the
    capacity that flows *through* the prefetcher.  Counter sensitivity
    alone cannot attribute a channel to the prefetcher (any program whose
    L1 miss count is secret-dependent perturbs the prefetcher's touch
    count incidentally); an evolved genome claims the prefetcher channel
    iff its capacity drops under ablation while every hand-written
    attack's trace is bit-identical.
    """

    def build():
        machine = machine_factory()
        for core in machine.cores:
            core.prefetcher.degree = 0
        return machine

    return build


def genome_counter_profiles(
    tp: TimeProtectionConfig,
    machine_factory: Callable,
    genome: Union[Genome, dict],
    victim: str,
    symbols: Sequence[int],
    rounds_per_run: int = 4,
    **runner_kwargs,
) -> Dict[int, CounterProfile]:
    """Per-symbol aggregate touch counts for one genome run.

    Extra keyword arguments (``victim_params``, ``data_pages``, ...) are
    forwarded to :func:`repro.synth.runner.experiment` so genomes tuned
    against a specific allocation layout profile under that same layout.
    """
    counting = counting_machines(machine_factory)
    profiles: Dict[int, CounterProfile] = {}

    def run_symbol(symbol: int) -> None:
        captured: List[CounterProfile] = []
        experiment(
            tp,
            counting,
            genome,
            victim=victim,
            symbols=(symbol,),
            rounds_per_run=rounds_per_run,
            on_kernel=lambda kernel: captured.append(
                dict(kernel.machine.instrumentation.counts)
            ),
            **runner_kwargs,
        )
        profiles[symbol] = captured[-1] if captured else {}

    for symbol in symbols:
        run_symbol(symbol)
    return profiles


def touched_elements(
    profiles: Dict[int, CounterProfile],
    domain: Optional[str] = None,
) -> Set[str]:
    """Every element with a nonzero count (optionally in one domain)."""
    out: Set[str] = set()
    for profile in profiles.values():
        for (dom, element), count in profile.items():
            if count > 0 and (domain is None or dom == domain):
                out.add(element)
    return out


def sensitive_elements(
    profiles: Dict[int, CounterProfile],
    domain: Optional[str] = "Lo",
) -> Dict[str, Tuple[int, int]]:
    """Elements whose counts in ``domain`` *vary with the secret*.

    Returns ``element -> (min_count, max_count)`` across symbols, for
    elements where the two differ.  A secret-sensitive spy-side count is
    direct counter evidence that victim state modulated the spy's
    execution through that element.
    """
    per_element: Dict[str, List[int]] = {}
    for profile in profiles.values():
        seen: Dict[str, int] = {}
        for (dom, element), count in profile.items():
            if domain is None or dom == domain:
                seen[element] = seen.get(element, 0) + count
        for element in sorted(set(per_element) | set(seen)):
            per_element.setdefault(element, []).append(seen.get(element, 0))
    # Backfill zeros for elements absent from earlier profiles.
    n = len(profiles)
    out: Dict[str, Tuple[int, int]] = {}
    for element, counts in per_element.items():
        counts = counts + [0] * (n - len(counts))
        lo, hi = min(counts), max(counts)
        if lo != hi:
            out[element] = (lo, hi)
    return out
