"""Daemon trojans end a channel run at the spy's last step, and change
nothing Lo sees.

Every attack's Hi trojan (or victim) loops forever and is created with
``daemon=True``, so ``Kernel.run`` stops once the Lo spy has finished
instead of simulating on to the ``max_cycles`` horizon.  A channel is
what Lo can observe, so the change must leave Lo's observation trace
and the channel samples exactly as they were.

Each case runs twice: as shipped, and with daemon threads counted like
any other thread (every run goes on to its horizon, as before daemon
threads existed).  Both must give equal samples and equal Lo traces,
run by run.  Params are the smallest that still yield samples; at
them every trojan outlives its spy, so every shipped run must also end
before its horizon, at the spy's end, in fewer kernel steps.
"""

from __future__ import annotations

import pytest

from repro.campaign.registry import ATTACKS, MACHINES, TP_CONFIGS
from repro.kernel import Kernel, ThreadState
from repro.synth.runner import (
    PREFETCH_RESIDUE_GENOME,
    PREFETCH_RESIDUE_VICTIM_PARAMS,
)

_FINISHED = (ThreadState.DONE, ThreadState.FAULTED)

# attack -> the smallest params that still give every symbol a sample.
_PARAMS = {
    "e1": {"symbols": (0, 5), "messages_per_run": 2},
    "e2": {"symbols": (2, 4), "rounds_per_run": 3},
    "e3": {"symbols": (1, 3), "rounds_per_run": 2},
    "e4": {"rounds_per_run": 3, "sweep_rounds": 1},
    "e5": {"symbols": (1, 10), "rounds_per_run": 4},
    "e6": {"rounds_per_run": 2, "sweep_rounds": 1},
    "e7": {"rounds_per_run": 2, "sweep_rounds": 1},
    "branch": {"rounds_per_run": 5, "sweep_rounds": 1},
    "occupancy": {"symbols": (1, 8), "rounds_per_run": 3},
    "synth": {"symbols": (1, 5), "rounds_per_run": 2},
}

# One more genome than the registry's default: the prefetcher-residue
# witness, whose victim is a ReplayableProgram like every synth victim.
_PREFETCH_RESIDUE = {
    "genome": PREFETCH_RESIDUE_GENOME.to_dict(),
    "victim": "stream_strider",
    "symbols": (1, 3),
    "rounds_per_run": 2,
    "data_pages": 6,
    "hi_data_pages": 8,
    "victim_params": PREFETCH_RESIDUE_VICTIM_PARAMS,
}

_MACHINE = {"e3": "tiny2", "e7": "tiny2"}

# Cases that take more than a few seconds (both modes together).
_SLOW = {("branch", "none")}


def _count_daemons_too(kernel: Kernel) -> bool:
    """The all-finished check as it was before daemon threads."""
    threads = kernel.all_threads()
    return bool(threads) and all(tcb.state in _FINISHED for tcb in threads)


def _measure(attack, tp, params, monkeypatch, to_horizon):
    """Run one case; returns (samples, per-run records)."""
    runs = []
    real_run = Kernel.run

    def recording_run(kernel, max_cycles, *args, **kwargs):
        real_run(kernel, max_cycles, *args, **kwargs)
        cores = kernel.machine.cores
        runs.append({
            "trace": kernel.observation_trace("Lo"),
            "steps": kernel.total_steps,
            "spy_done": all(
                tcb.state in _FINISHED
                for tcb in kernel.all_threads() if not tcb.daemon
            ),
            "early": any(
                cores[core_id].clock.now < max_cycles
                for core_id in kernel.scheduler.scheduled_cores()
            ),
        })

    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "run", recording_run)
        if to_horizon:
            patch.setattr(Kernel, "_all_threads_finished", _count_daemons_too)
        machine = MACHINES[_MACHINE.get(attack, "tiny")]
        result = ATTACKS[attack].run(TP_CONFIGS[tp](), machine, params)
    return result.samples, runs


def _cases():
    named = [(attack, attack, params) for attack, params in _PARAMS.items()]
    named.append(("synth-prefetch", "synth", _PREFETCH_RESIDUE))
    return [
        pytest.param(
            attack, tp, params, id=f"{label}-{tp}",
            marks=[pytest.mark.slow] if (label, tp) in _SLOW else [],
        )
        for label, attack, params in named
        for tp in ("none", "full")
    ]


def test_every_shipped_attack_is_covered():
    # Entries registered at run time (by tests, or evolved genomes, which
    # all run through the synth runner) are not part of the shipped table.
    shipped = {
        name for name, entry in ATTACKS.items()
        if entry.runner.__module__.startswith(("repro.attacks", "repro.campaign"))
    }
    assert shipped == set(_PARAMS)


@pytest.mark.parametrize("attack,tp,params", _cases())
def test_daemon_trojans_change_only_run_length(attack, tp, params, monkeypatch):
    samples, runs = _measure(attack, tp, params, monkeypatch, to_horizon=False)
    horizon_samples, horizon_runs = _measure(
        attack, tp, params, monkeypatch, to_horizon=True
    )
    assert samples, "the smallest params must still yield samples"
    assert samples == horizon_samples
    assert len(runs) == len(horizon_runs)
    for index, (run, horizon) in enumerate(zip(runs, horizon_runs)):
        assert run["trace"] == horizon["trace"], f"run {index}: Lo trace"
        # Every trojan loops forever: counted, it holds each run to its
        # horizon.
        assert not horizon["early"], f"run {index} ended before its horizon"
        # At these params every spy finishes before the horizon, so the
        # trojan outlives it and the shipped run ends at the spy's end.
        assert run["early"] and run["spy_done"], f"run {index}: not cut"
        assert run["steps"] < horizon["steps"], f"run {index}: steps"
