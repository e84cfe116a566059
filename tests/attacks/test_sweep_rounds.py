"""A later sweep round repeats the first, so the harness pools it.

``run_symbol_sweep`` runs each symbol's system once and repeats the
kept samples ``rounds`` times.  That is exact because every run boots a
fresh machine, the builder and symbol are the same, and nothing on the
path draws randomness.  The reference here is the loop the harness used
to run, which boots and runs every round; for each ``ATTACKS`` entry
whose default ``sweep_rounds`` is above 1, under ``none`` and ``full``,
both must give the same samples and statistics, and ``on_kernel`` must
see one finished kernel per symbol.
"""

from __future__ import annotations

import inspect
import sys

import pytest

from repro.attacks import harness
from repro.attacks.harness import ChannelResult, run_symbol_sweep
from repro.campaign.registry import ATTACKS, MACHINES, TP_CONFIGS
from repro.kernel import Kernel

from .test_daemon_equivalence import _MACHINE, _PARAMS

_SWEEP = inspect.signature(run_symbol_sweep)


def _default_sweep_rounds(name):
    entry = ATTACKS[name]
    parameter = inspect.signature(entry.runner).parameters.get("sweep_rounds")
    if parameter is None:
        return 1
    return entry.defaults.get("sweep_rounds", parameter.default)


_REPEATED = sorted(
    name for name in ATTACKS
    if name in _PARAMS and _default_sweep_rounds(name) > 1
)


def reference_sweep(name, tp, machine_factory, build, symbols, rounds=1,
                    warmup=0, quantum=None, on_kernel=None, metadata=None):
    """The sweep that boots and runs every round."""
    samples = []
    for _round in range(rounds):
        for symbol in symbols:
            results = []
            kernel = Kernel(machine_factory(), tp)
            kernel.run(max_cycles=build(kernel, symbol, results))
            kept = results[warmup:] if len(results) > warmup else results
            samples.extend(
                (symbol, obs if quantum is None else obs // quantum)
                for obs in kept
            )
    return ChannelResult(name, harness._tp_label(tp), samples, dict(metadata or {}))


def test_the_repeated_attacks_are_the_expected_ones():
    assert _REPEATED == ["branch", "e4", "e6", "e7"]


@pytest.mark.parametrize("tp", ["none", "full"])
@pytest.mark.parametrize("attack", _REPEATED)
def test_later_round_repeats_the_first(attack, tp, monkeypatch):
    sweeps = []

    def recording_sweep(*args, **kwargs):
        bound = _SWEEP.bind(*args, **kwargs)
        bound.apply_defaults()
        kernels = []
        caller_hook = bound.arguments["on_kernel"]

        def on_kernel(kernel):
            kernels.append(kernel)
            if caller_hook is not None:
                caller_hook(kernel)

        arguments = dict(bound.arguments, on_kernel=on_kernel)
        result = run_symbol_sweep(**arguments)
        sweeps.append((arguments, kernels, result))
        return result

    module = sys.modules[ATTACKS[attack].runner.__module__]
    monkeypatch.setattr(module, "run_symbol_sweep", recording_sweep)
    params = {k: v for k, v in _PARAMS[attack].items() if k != "sweep_rounds"}
    result = ATTACKS[attack].run(
        TP_CONFIGS[tp](), MACHINES[_MACHINE.get(attack, "tiny")], params
    )

    ((arguments, kernels, pooled),) = sweeps
    assert pooled is result and arguments["rounds"] == 2
    reference = reference_sweep(**dict(arguments, on_kernel=None))
    assert result.samples == reference.samples
    assert result.stats() == reference.stats()
    half = len(result.samples) // 2
    assert result.samples[:half] == result.samples[half:]
    # One finished kernel per symbol, not one per symbol and round.
    assert len(kernels) == len(arguments["symbols"])
    assert len({id(kernel) for kernel in kernels}) == len(kernels)
    assert all(kernel.total_steps > 0 for kernel in kernels)
