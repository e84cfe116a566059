"""Every shipped attack is a boot-only builder, and only the harness runs it.

``run_symbol_sweep`` is the one code path that runs an attack system:
per symbol it boots ``Kernel(machine_factory(), tp)``, hands it to the
attack's module-level builder and runs it to the horizon the builder
returns.  The builder contract is the one ``sweep_secrets`` and the
prover take, pinned here three ways:

* the kernel a builder hands back has taken no step, and Lo has
  observed nothing, when the harness starts running it;
* every shipped attack's builder is reachable at module level, and
  booting it directly gives the system the harness runs (same horizon,
  same Lo trace);
* ``sweep_secrets`` over e5's builder gives each symbol the same Lo
  trace as the harness's run of it.  The sweep declares
  ``SWAP_EVIDENCE`` and the harness declares nothing, so this also pins
  that the evidence changes no simulated result.

Params are the daemon-equivalence test's: the smallest that still give
every symbol a sample.
"""

from __future__ import annotations

import pytest

from repro.attacks import (
    branch_channel,
    event_timing,
    flushreload,
    interconnect_channel,
    irq_channel,
    occupancy,
    primeprobe,
    switch_latency,
)
from repro.campaign.registry import ATTACKS, MACHINES
from repro.core.noninterference import sweep_secrets
from repro.hardware import presets
from repro.kernel import Kernel, TimeProtectionConfig
from repro.synth import runner as synth_runner

from .test_daemon_equivalence import _MACHINE, _PARAMS

# Every shipped attack -> its module-level builder.
_BUILDERS = {
    "e1": event_timing.build,
    "e2": primeprobe.l1_build,
    "e3": primeprobe.llc_build,
    "e4": flushreload.build,
    "e5": switch_latency.build,
    "e6": irq_channel.build,
    "e7": interconnect_channel.build,
    "branch": branch_channel.build,
    "occupancy": occupancy.build,
    "synth": synth_runner.build,
}

# Experiment params the harness takes itself; the rest go to the builder.
_SWEEP_PARAMS = ("symbols", "sweep_rounds", "quantum")


def _builder_knobs(attack):
    params = {**ATTACKS[attack].defaults, **_PARAMS[attack]}
    if attack == "synth":
        params.setdefault("genome", synth_runner.PRIME_PROBE_GENOME.to_dict())
    return {k: v for k, v in params.items() if k not in _SWEEP_PARAMS}


def test_every_shipped_attack_has_a_module_builder():
    shipped = {
        name for name, entry in ATTACKS.items()
        if entry.runner.__module__.startswith(("repro.attacks", "repro.campaign"))
    }
    assert shipped == set(_BUILDERS)


@pytest.mark.parametrize("attack", sorted(_BUILDERS))
def test_harness_runs_the_unrun_module_builder(attack, monkeypatch):
    runs = []
    real_run = Kernel.run

    def recording_run(kernel, max_cycles, *args, **kwargs):
        unrun = kernel.total_steps == 0 and not kernel.observation_trace("Lo")
        real_run(kernel, max_cycles, *args, **kwargs)
        runs.append((unrun, max_cycles, kernel.observation_trace("Lo")))

    machine = MACHINES[_MACHINE.get(attack, "tiny")]
    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "run", recording_run)
        result = ATTACKS[attack].run(
            TimeProtectionConfig.full(), machine, _PARAMS[attack]
        )
    assert runs and all(unrun for unrun, _horizon, _trace in runs)

    # The first run transmits the first sample's symbol.
    kernel = Kernel(machine(), TimeProtectionConfig.full())
    horizon = _BUILDERS[attack](
        kernel, result.samples[0][0], [], **_builder_knobs(attack)
    )
    assert kernel.total_steps == 0 and not kernel.observation_trace("Lo")
    kernel.run(max_cycles=horizon)
    assert (horizon, kernel.observation_trace("Lo")) == runs[0][1:]


@pytest.mark.parametrize("tp", ["none", "full"])
def test_sweep_secrets_over_a_builder_matches_the_harness(tp):
    config = getattr(TimeProtectionConfig, tp)()
    symbols, rounds = (1, 10), 4
    harness_traces = []
    switch_latency.experiment(
        config, presets.tiny_machine, symbols=symbols, rounds_per_run=rounds,
        on_kernel=lambda k: harness_traces.append(k.observation_trace("Lo")),
    )

    def build(symbol):
        kernel = Kernel(presets.tiny_machine(), config)
        switch_latency.build(kernel, symbol, [], rounds_per_run=rounds)
        return kernel

    horizon = switch_latency.build(
        Kernel(presets.tiny_machine(), config), symbols[0], [],
        rounds_per_run=rounds,
    )
    swept_traces = []
    verdicts = sweep_secrets(
        build, symbols, "Lo", horizon,
        on_kernel=lambda k: swept_traces.append(k.observation_trace("Lo")),
    )
    assert swept_traces == harness_traces
    # Padding closes the switch-latency channel; without it Lo's slice
    # starts move with the dirty-line count.
    assert [v.holds for v in verdicts] == [tp == "full"]
