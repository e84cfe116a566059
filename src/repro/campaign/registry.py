"""Name registries for campaign trials.

A campaign trial is described entirely by *names* (machine preset, TP
config, attack) plus plain-data parameters, so that trial payloads can
cross a ``multiprocessing`` pickle boundary without dragging closures or
simulator state along.  Worker processes resolve the names back to
factories through these registries.

``MACHINES`` and ``TP_CONFIGS`` are the canonical catalogues for the
whole package; ``repro.cli`` re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from ..attacks import (
    branch_channel,
    event_timing,
    flushreload,
    interconnect_channel,
    irq_channel,
    occupancy,
    primeprobe,
    switch_latency,
)
from ..attacks.harness import ChannelResult
from ..hardware import presets
from ..kernel import TimeProtectionConfig

MACHINES: Dict[str, Callable] = {
    "micro": presets.micro_machine,
    "tiny": presets.tiny_machine,
    "pocket": presets.pocket_machine,
    "tiny2": lambda: presets.tiny_machine(n_cores=2),
    "desktop": presets.desktop_machine,
    "smt": presets.tiny_smt_machine,
    "unflushable": presets.tiny_unflushable_machine,
    "broken-flush": presets.tiny_broken_flush_machine,
    "nocolour": lambda: presets.tiny_nocolour_machine(n_cores=1),
    "contended": presets.contended_machine,
}

TP_CONFIGS: Dict[str, Callable[[], TimeProtectionConfig]] = {
    "full": TimeProtectionConfig.full,
    "none": TimeProtectionConfig.none,
    "way": TimeProtectionConfig.full_with_way_partitioning,
    "no-pad": lambda: TimeProtectionConfig.full().without(pad_switch=False),
    "no-flush": lambda: TimeProtectionConfig.full().without(flush_on_switch=False),
    "no-clone": lambda: TimeProtectionConfig.full().without(kernel_clone=False),
    "no-colour": lambda: TimeProtectionConfig.full().without(cache_colouring=False),
}


@dataclass(frozen=True)
class AttackEntry:
    """One runnable attack: an experiment function plus default knobs.

    ``runner`` must accept ``(tp, machine_factory, **params)`` and return
    a :class:`~repro.attacks.harness.ChannelResult`.
    """

    description: str
    runner: Callable[..., ChannelResult]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    needs_cores: int = 1

    def run(
        self,
        tp: TimeProtectionConfig,
        machine_factory: Callable,
        params: Optional[Mapping[str, Any]] = None,
    ) -> ChannelResult:
        merged = dict(self.defaults)
        merged.update(params or {})
        return self.runner(tp, machine_factory, **merged)


def _synth_experiment(tp, machine_factory, **params):
    """Evolved-genome attack: the genome itself rides in ``params``.

    Imported lazily so this registry stays importable without pulling in
    the synth package (which itself imports the registry).
    """
    from ..synth.runner import PRIME_PROBE_GENOME, experiment

    params.setdefault("genome", PRIME_PROBE_GENOME.to_dict())
    return experiment(tp, machine_factory, **params)


ATTACKS: Dict[str, AttackEntry] = {
    "e1": AttackEntry(
        "downgrader event-timing channel", event_timing.experiment
    ),
    "e2": AttackEntry(
        "time-shared L1 prime-and-probe",
        primeprobe.l1_experiment,
        {"symbols": (2, 4, 6), "rounds_per_run": 6},
    ),
    "e3": AttackEntry(
        "concurrent LLC prime-and-probe",
        primeprobe.llc_experiment,
        needs_cores=2,
    ),
    "e4": AttackEntry("kernel-text Flush+Reload", flushreload.experiment),
    "e5": AttackEntry(
        "dirty-line switch-latency channel",
        switch_latency.experiment,
        {"symbols": (1, 10), "rounds_per_run": 6},
    ),
    "e6": AttackEntry("completion-interrupt channel", irq_channel.experiment),
    "e7": AttackEntry(
        "cross-core interconnect bandwidth channel",
        interconnect_channel.experiment,
        needs_cores=2,
    ),
    "branch": AttackEntry(
        "cross-domain branch-predictor channel", branch_channel.experiment
    ),
    "occupancy": AttackEntry(
        "cache occupancy channel",
        occupancy.experiment,
        {"symbols": (1, 8), "rounds_per_run": 5},
    ),
    "synth": AttackEntry(
        "search-evolved attack genome (see repro.synth)",
        _synth_experiment,
        {"victim": "set_hammer"},
    ),
}


def register_attack(
    name: str,
    runner: Callable[..., ChannelResult],
    defaults: Optional[Mapping[str, Any]] = None,
    needs_cores: int = 1,
    description: str = "",
) -> AttackEntry:
    """Register a custom attack so campaigns can refer to it by name.

    With the default ``fork`` start method on POSIX, attacks registered
    before a campaign forks its workers are visible inside them too.
    """
    entry = AttackEntry(
        description or name, runner, dict(defaults or {}), needs_cores
    )
    ATTACKS[name] = entry
    return entry


def unregister_attack(name: str) -> None:
    ATTACKS.pop(name, None)


def machine_core_count(machine_name: str) -> int:
    """Number of cores of a machine preset (builds one instance)."""
    if machine_name not in MACHINES:
        raise KeyError(f"unknown machine preset {machine_name!r}")
    return len(MACHINES[machine_name]().cores)
