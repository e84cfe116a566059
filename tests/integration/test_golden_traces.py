"""Golden-trace equivalence: the engine must reproduce recorded traces.

The fast-path engine's correctness claim is *bit-identical observable
behaviour*: every value and every timestamp Lo observes must match what
the original engine produced.  These tests pin that claim to committed
evidence: ``tests/golden/*.json`` holds Lo's full observation trace
(thread, value, latency triples), final per-core cycle counts, step
counts, switch counts, and the pooled channel samples for each
(machine x attack x tp) case.  Every field is compared exactly, so any
engine change that shifts a single latency by a single cycle fails these
tests.

The traces and samples were captured from the pre-optimisation engine.
The run-length fields (``final_cycles``, ``total_steps``,
``n_switches``) were re-captured once, when the attacks' Hi trojans
became daemon threads: a run now ends at the Lo spy's last step rather
than at the ``max_cycles`` horizon, so it is shorter, while every trace
and sample stayed byte-identical.  tiny_unflushable/prefetch_residue/full
was re-captured once more when the synth runner's horizon came to
include both domains' switch pads: its spy now finishes its last round,
so each run's trace gains that round (the old trace is a prefix of the
new one) and the case pools six samples instead of four.

The registered cases (``_REGISTERED``) pin the shipped ``ATTACKS``
entries the cases above do not reach, run through the registry at small
params.  Not every experiment takes an ``on_kernel`` hook, so they are
captured by wrapping ``Kernel.run``.  ``tiny__e1__tp-full-padded-ipc``
is what ``channels --tp full`` runs for e1; it pins the downgrader as it
stands, including Lo's first arrival, which moves with the secret while
the inter-arrival samples do not.

Regenerate (only when an *intentional* behaviour change is reviewed)::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_traces.py

The mutation test proves the harness can fail: a one-cycle change to one
latency constant must break Lo's recorded trace itself, not only the
run length.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.attacks import flushreload, primeprobe, switch_latency
from repro.campaign.registry import ATTACKS
from repro.hardware import presets
from repro.hardware.machine import Machine
from repro.kernel import Kernel
from repro.kernel.timeprotect import TimeProtectionConfig

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
REGEN = bool(os.environ.get("REGEN_GOLDEN"))

_MACHINES = {
    "tiny": presets.tiny_machine,
    # Single-core desktop: these are all time-shared (same-core) channels.
    "desktop": lambda: presets.desktop_machine(n_cores=1),
    # Targeted presets (see _EXTRA_CASES): the model checker's machine
    # and the contract-violating prefetcher-without-flush part.
    "micro": presets.micro_machine,
    "tiny_unflushable": presets.tiny_unflushable_machine,
    # The cross-core attacks' machine.
    "tiny2": lambda: presets.tiny_machine(n_cores=2),
}

# Machines swept against the full attack product; the targeted presets
# above only appear in _EXTRA_CASES to keep the suite's runtime sane.
_PRODUCT_MACHINES = ("desktop", "tiny")

_TPS = {
    "none": TimeProtectionConfig.none,
    "full": TimeProtectionConfig.full,
    # E1's defence: what ``channels --tp full`` runs for e1.
    "full-padded-ipc": lambda: TimeProtectionConfig.full(padded_ipc=True),
}

# The TP configs swept against the full attack product.
_PRODUCT_TPS = ("full", "none")


def _run_primeprobe_l1(tp, machine_factory, on_kernel):
    return primeprobe.l1_experiment(
        tp, machine_factory, symbols=(2, 4), rounds_per_run=4,
        on_kernel=on_kernel,
    )


def _run_flushreload(tp, machine_factory, on_kernel):
    return flushreload.experiment(
        tp, machine_factory, rounds_per_run=4, sweep_rounds=1,
        on_kernel=on_kernel,
    )


def _run_switch_latency(tp, machine_factory, on_kernel):
    return switch_latency.experiment(
        tp, machine_factory, symbols=(1, 6), rounds_per_run=5,
        on_kernel=on_kernel,
    )


def _run_prefetch_residue(tp, machine_factory, on_kernel):
    # The one attack in the suite that reads *prefetcher* state: the
    # evolved residue genome against the stream_strider victim (see
    # repro.synth.runner).  Golden-pinning it keeps the StridePrefetcher
    # model honest cycle-for-cycle.
    from repro.synth.runner import (
        PREFETCH_RESIDUE_GENOME,
        PREFETCH_RESIDUE_VICTIM_PARAMS,
        experiment,
    )

    return experiment(
        tp, machine_factory, PREFETCH_RESIDUE_GENOME,
        victim="stream_strider", symbols=(1, 3), rounds_per_run=4,
        data_pages=6, hi_data_pages=8,
        victim_params=PREFETCH_RESIDUE_VICTIM_PARAMS,
        on_kernel=on_kernel,
    )


def _run_registered(name, params):
    """Run ``ATTACKS[name]``, handing each finished kernel to ``on_kernel``.

    ``Kernel.run`` is wrapped for the duration of the run, because not
    every experiment takes an ``on_kernel`` hook of its own.
    """

    def run(tp, machine_factory, on_kernel):
        real_run = Kernel.run

        def recording_run(kernel, *args, **kwargs):
            real_run(kernel, *args, **kwargs)
            on_kernel(kernel)

        Kernel.run = recording_run
        try:
            return ATTACKS[name].run(tp, machine_factory, params)
        finally:
            Kernel.run = real_run

    return run


# Registered attacks pinned through ``ATTACKS`` at the smallest params
# that still give every symbol a sample.
_REGISTERED = {
    "e1": {"symbols": (0, 5), "messages_per_run": 2},
    "e3": {"symbols": (1, 3), "rounds_per_run": 2},
    "e6": {"rounds_per_run": 2, "sweep_rounds": 1},
    "e7": {"rounds_per_run": 2, "sweep_rounds": 1},
    "branch": {"rounds_per_run": 5, "sweep_rounds": 1},
    "occupancy": {"symbols": (1, 8), "rounds_per_run": 3},
}

_ATTACKS = {
    "primeprobe_l1": _run_primeprobe_l1,
    "flushreload": _run_flushreload,
    "switch_latency": _run_switch_latency,
    "prefetch_residue": _run_prefetch_residue,
    **{name: _run_registered(name, params)
       for name, params in _REGISTERED.items()},
}

# Every shipped ``ATTACKS`` entry -> the golden attack that runs its
# experiment.
_SHIPPED_COVERAGE = {
    "e1": "e1",
    "e2": "primeprobe_l1",
    "e3": "e3",
    "e4": "flushreload",
    "e5": "switch_latency",
    "e6": "e6",
    "e7": "e7",
    "branch": "branch",
    "occupancy": "occupancy",
    "synth": "prefetch_residue",
}

# Targeted cases outside the full product: micro exercises the 4-set
# direct-mapped/bimodal geometry (tp none only -- its 128 B pages leave
# the colouring allocator no headroom for the attacks' working sets
# under tp full), tiny_unflushable the un-clearable prefetcher (where
# the residue channel survives tp full -- the paper's Sect. 4.1
# violation made golden evidence).
_EXTRA_CASES = [
    ("micro", "flushreload", "none"),
    ("micro", "primeprobe_l1", "none"),
    ("micro", "switch_latency", "none"),
    ("tiny_unflushable", "switch_latency", "none"),
    ("tiny_unflushable", "switch_latency", "full"),
    ("tiny_unflushable", "prefetch_residue", "none"),
    ("tiny_unflushable", "prefetch_residue", "full"),
]

# The registered cases: the cross-core attacks on tiny2, the rest on
# tiny, each under none and full, plus e1 with its padded-IPC defence.
_REGISTERED_CASES = [
    ("tiny2" if name in ("e3", "e7") else "tiny", name, tp)
    for name in sorted(_REGISTERED)
    for tp in _PRODUCT_TPS
] + [("tiny", "e1", "full-padded-ipc")]

CASES = [
    (machine, attack, tp)
    for machine in _PRODUCT_MACHINES
    for attack in ("flushreload", "primeprobe_l1", "switch_latency")
    for tp in _PRODUCT_TPS
] + _EXTRA_CASES + _REGISTERED_CASES


def case_id(machine: str, attack: str, tp: str) -> str:
    return f"{machine}__{attack}__tp-{tp}"


def capture_case(machine: str, attack: str, tp: str, machine_factory=None) -> dict:
    """Run one golden case and serialise everything Lo can observe.

    ``machine_factory`` overrides the preset (the mutation test injects a
    perturbed machine this way).
    """
    factory = machine_factory or _MACHINES[machine]
    runs = []

    def on_kernel(kernel):
        runs.append({
            "trace": [list(entry) for entry in kernel.observation_trace("Lo")],
            "final_cycles": [core.clock.now for core in kernel.machine.cores],
            "total_steps": kernel.total_steps,
            "n_switches": len(kernel.switch_records),
        })

    result = _ATTACKS[attack](_TPS[tp](), factory, on_kernel)
    payload = {
        "case": case_id(machine, attack, tp),
        "machine": machine,
        "attack": attack,
        "tp": tp,
        "runs": runs,
        "samples": [list(sample) for sample in result.samples],
    }
    # JSON round-trip normalises tuples/ints so captured payloads compare
    # equal to loaded golden files.
    return json.loads(json.dumps(payload))


def golden_path(machine: str, attack: str, tp: str) -> Path:
    return GOLDEN_DIR / f"{case_id(machine, attack, tp)}.json"


@pytest.mark.parametrize("machine,attack,tp", CASES,
                         ids=[case_id(*case) for case in CASES])
def test_engine_reproduces_golden_trace(machine, attack, tp):
    path = golden_path(machine, attack, tp)
    if REGEN:
        payload = capture_case(machine, attack, tp)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    if not path.exists():
        pytest.fail(
            f"missing golden file {path.name}; generate with REGEN_GOLDEN=1"
        )
    golden = json.loads(path.read_text())
    fresh = capture_case(machine, attack, tp)
    # Compare piecewise first so a mismatch names the diverging part
    # instead of dumping two multi-thousand-line payloads.
    for index, (golden_run, fresh_run) in enumerate(
        zip(golden["runs"], fresh["runs"])
    ):
        for key in ("final_cycles", "total_steps", "n_switches", "trace"):
            assert fresh_run[key] == golden_run[key], (
                f"{path.name}: run {index} diverges in {key!r}"
            )
    assert fresh["samples"] == golden["samples"], f"{path.name}: samples diverge"
    assert fresh == golden


def test_every_shipped_attack_is_covered():
    # Entries registered at run time (by tests, or evolved genomes, which
    # all run through the synth runner) are not part of the shipped table.
    shipped = {
        name for name, entry in ATTACKS.items()
        if entry.runner.__module__.startswith(("repro.attacks", "repro.campaign"))
    }
    assert shipped == set(_SHIPPED_COVERAGE)
    pinned = {attack for _machine, attack, _tp in CASES}
    for name, attack in _SHIPPED_COVERAGE.items():
        assert attack in pinned, f"{name}: no golden case runs {attack!r}"


class TestHarnessCanFail:
    """Perturbing one latency constant must break the golden traces.

    If a one-cycle DRAM latency change slipped through these tests, the
    golden files would be decorative.  This is the mutation check that
    proves they are load-bearing.
    """

    @staticmethod
    def _perturbed_tiny() -> Machine:
        config = presets.tiny_config()
        config.latency = dataclasses.replace(
            config.latency, dram_cycles=config.latency.dram_cycles + 1
        )
        return Machine(config)

    @pytest.mark.skipif(REGEN, reason="regenerating goldens")
    def test_one_cycle_latency_perturbation_detected(self):
        machine, attack, tp = "tiny", "switch_latency", "none"
        path = golden_path(machine, attack, tp)
        if not path.exists():
            pytest.fail(f"missing golden file {path.name}")
        golden = json.loads(path.read_text())
        mutated = capture_case(
            machine, attack, tp, machine_factory=self._perturbed_tiny
        )
        # Run length alone could differ for reasons Lo cannot see; the
        # perturbation must show in what Lo observed.
        assert any(
            fresh["trace"] != pinned["trace"]
            for fresh, pinned in zip(mutated["runs"], golden["runs"])
        ), (
            "a +1 cycle DRAM latency perturbation left Lo's golden trace "
            "unchanged: the traces do not constrain timing"
        )
