"""Named, deterministic bench workloads over the real experiment code.

Each scenario calls the *actual* attack experiment functions (the same
entry points the campaign engine and ``benchmarks/bench_*`` drive), with
fixed symbols/rounds so the simulated work is identical run to run, and
returns the total number of simulated kernel steps executed.  The bench
engine divides host wall-clock time by that count, so results read as
"host nanoseconds per simulated instruction step" -- a unit that stays
comparable when scenario parameters change.

Step counting rides on the experiments' ``on_kernel`` hook rather than a
re-implementation of their setup, so a bench always measures exactly the
code path the experiment suite exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..attacks import flushreload, primeprobe, switch_latency
from ..hardware import presets
from ..kernel.kernel import Kernel
from ..kernel.timeprotect import TimeProtectionConfig


@dataclass(frozen=True)
class Scenario:
    """One bench workload: ``run()`` returns the op count, optionally
    paired with a dict of side metrics for the baseline record."""

    name: str
    description: str
    run: Callable[[], object]


class _StepCounter:
    """Accumulates ``kernel.total_steps`` across an experiment's runs."""

    def __init__(self) -> None:
        self.steps = 0

    def __call__(self, kernel: Kernel) -> None:
        self.steps += kernel.total_steps


def _both_tp_configs() -> Tuple[TimeProtectionConfig, TimeProtectionConfig]:
    # Every scenario runs the channel open *and* defended: the unprotected
    # run stresses the cache/TLB hot loops, the protected run additionally
    # stresses the switch path (flush + pad + clone bookkeeping).
    return (TimeProtectionConfig.none(), TimeProtectionConfig.full())


def _run_e2_l1_primeprobe() -> int:
    counter = _StepCounter()
    for tp in _both_tp_configs():
        primeprobe.l1_experiment(
            tp,
            presets.tiny_machine,
            symbols=(2, 4),
            rounds_per_run=5,
            on_kernel=counter,
        )
    return counter.steps


def _run_e3_llc_primeprobe() -> int:
    counter = _StepCounter()
    for tp in _both_tp_configs():
        primeprobe.llc_experiment(
            tp,
            lambda: presets.tiny_machine(n_cores=2),
            symbols=(1, 3),
            rounds_per_run=5,
            on_kernel=counter,
        )
    return counter.steps


def _run_e4_flushreload() -> int:
    counter = _StepCounter()
    for tp in _both_tp_configs():
        flushreload.experiment(
            tp,
            presets.tiny_machine,
            rounds_per_run=5,
            sweep_rounds=1,
            on_kernel=counter,
        )
    return counter.steps


def _run_mc(machine: str):
    # The checker's throughput unit is explored product states: one
    # "op" = one deduplicated state (two kernels cloned and stepped in
    # lockstep plus a canonical fingerprint), so ns/op inverts to the
    # states/second figure E14 reports.  tp=full on two secrets is the
    # exhaustive-PASS path, so the bench covers the whole frontier
    # machinery with no early violation exit.  Peak frontier size rides
    # along as a side metric (memory high-water mark in states).
    from ..mc import McSpec, ModelChecker

    spec = McSpec.for_machine(machine, "full", secrets=(0, 1))
    report = ModelChecker(spec).run()
    return report.stats.states_visited, {
        "peak_frontier": report.stats.peak_frontier,
        "max_depth": report.stats.max_depth,
    }


def _run_mc_micro():
    return _run_mc("micro")


def _run_mc_tiny():
    return _run_mc("tiny")


def _run_mc_tiny_por():
    # Partial-order reduction at work.  The default specs raise a single
    # IRQ line, where the symmetric-line reduction is the identity; three
    # lines make it real.  The pruned-choice count rides along so a
    # pruning regression shows up in the bench diff (soundness against
    # the unreduced search is pinned by tests/mc/test_scale.py).
    from ..mc import McSpec, ModelChecker

    spec = McSpec.for_machine(
        "tiny", "full", secrets=(0, 1), irq_lines=(1, 2, 3)
    )
    report = ModelChecker(spec).run()
    return report.stats.states_visited, {
        "por_pruned": report.stats.por_pruned,
    }


def _run_mc_depth():
    # Depth scaling: two IRQ injections per path multiply the reachable
    # interleavings (~7x the states of the budget-1 run on micro), so
    # this scenario tracks how per-state cost holds up as the frontier
    # and path lengths grow -- the regime the incremental fingerprints
    # and prefix-cached trace checks exist for.
    from ..mc import McSpec, ModelChecker

    spec = McSpec.for_machine("micro", "full", secrets=(0, 1), irq_budget=2)
    report = ModelChecker(spec).run()
    return report.stats.states_visited, {
        "max_depth": report.stats.max_depth,
        "peak_frontier": report.stats.peak_frontier,
    }


def _run_synth_generation():
    # E14/E15 synthesis throughput: one seeded evolutionary generation
    # (initial population + one mutate-and-select round) on tiny with TP
    # off.  The unit is simulated kernel steps, counted through the same
    # ``on_kernel`` hook as the attack benches, so ns/op stays comparable
    # across scenarios; evaluations/generation rides along as a side
    # metric.  Fixed seed => fixed genomes => fixed simulated work.
    from ..synth import ChannelGuessEnv, EvolutionSearch, SearchConfig

    counter = _StepCounter()
    env = ChannelGuessEnv(
        machine="tiny", tp="none", victim="set_hammer",
        rounds_per_run=4, sweep_rounds=1,
    )

    def counting_evaluator(genomes):
        return [env.evaluate(genome, on_kernel=counter) for genome in genomes]

    config = SearchConfig(generations=1, population=6, elite=2)
    report = EvolutionSearch(
        env, config, seed=0, evaluator=counting_evaluator
    ).run()
    return counter.steps, {"evaluations": report.evaluations}


def _run_statcheck_lint():
    """Full static-conformance run (SC-1..SC-4) over ``src/repro``.

    Lint sits on the CI fast lane gating every other job, so its
    wall-time is a tracked budget like any hot path; ops = files
    analyzed, so ns_per_op reads as per-file analysis cost.
    """
    from pathlib import Path

    from ..statcheck.runner import run_lint

    src = Path(__file__).resolve().parents[2]
    baseline = src.parent / "statcheck.baseline.json"
    report = run_lint(
        [str(src / "repro")],
        baseline_path=str(baseline) if baseline.exists() else None,
    )
    return report.files_analyzed, {
        "findings": float(len(report.findings)),
        "checkers": float(len(report.checkers_run)),
    }


#: Lazily-built store fixture shared across ``campaign_store`` repeats.
_STORE_FIXTURE: Dict[str, Tuple[str, int]] = {}


def _campaign_store_fixture(n_records: int = 100_000) -> Tuple[str, int]:
    """A 100k-record JSONL store, built once, removed at interpreter exit."""
    if "path" not in _STORE_FIXTURE:
        import atexit
        import json
        import os
        import shutil
        import tempfile

        directory = tempfile.mkdtemp(prefix="bench_campaign_store_")
        atexit.register(shutil.rmtree, directory, ignore_errors=True)
        jsonl_path = os.path.join(directory, "store.jsonl")
        with open(jsonl_path, "w", encoding="utf-8") as handle:
            for i in range(n_records):
                # Shaped like a genuine run_trial record: the result
                # payload (samples + stats) dominates the line, exactly
                # as it does in a real sweep's store.
                record = {
                    "key": f"machine=tiny/tp=full/attack=e5/seed={i}",
                    "machine": "tiny",
                    "tp": "full",
                    "attack": "e5",
                    "seed": i,
                    "params": {},
                    "derived_seed": (i * 2654435761) % (1 << 32),
                    "attempts": 1,
                    "worker": {"pid": 4242, "host": "bench"},
                    "status": "ok" if i % 8 else "failed",
                    "result": {
                        "name": "e5",
                        "tp_label": "full",
                        "samples": [[s % 4, (s * i) % 4] for s in range(24)],
                        "stats": {
                            "n_samples": 24,
                            "capacity_bits": 0.0,
                            "mutual_information_bits": 0.0,
                            "accuracy": 0.25,
                            "noise_floor_bits": 0.021,
                        },
                        "metadata": {"symbols": [1, 8], "rounds_per_run": 6},
                    },
                    "error": None,
                    "wall_time_s": 0.5,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        _STORE_FIXTURE["path"] = (jsonl_path, n_records)
    return _STORE_FIXTURE["path"]


def _run_campaign_store():
    # The resume-check hot path at sweep scale: ``completed_keys()`` on
    # a fresh store handle, so it pays the whole-file parse instead of
    # serving from a warm instance cache.
    import time

    from ..campaign.store import ResultStore

    jsonl_path, n_records = _campaign_store_fixture()
    started = time.perf_counter()
    jsonl_keys = ResultStore(jsonl_path).completed_keys()
    jsonl_elapsed = time.perf_counter() - started
    return n_records, {
        "records": float(n_records),
        "completed_keys": float(len(jsonl_keys)),
        "jsonl_scan_ms": round(jsonl_elapsed * 1e3, 3),
    }


def _run_e5_switch_latency() -> int:
    counter = _StepCounter()
    for tp in _both_tp_configs():
        switch_latency.experiment(
            tp,
            presets.tiny_machine,
            symbols=(1, 8),
            rounds_per_run=6,
            on_kernel=counter,
        )
    return counter.steps


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "e2_l1_primeprobe",
            "time-shared L1 prime-and-probe on tiny, tp none+full",
            _run_e2_l1_primeprobe,
        ),
        Scenario(
            "e3_llc_primeprobe",
            "concurrent LLC prime-and-probe on 2-core tiny, tp none+full",
            _run_e3_llc_primeprobe,
        ),
        Scenario(
            "e4_flushreload",
            "kernel-text flush+reload on tiny, tp none+full",
            _run_e4_flushreload,
        ),
        Scenario(
            "e5_switch_latency",
            "dirty-line switch-latency channel on tiny, tp none+full",
            _run_e5_switch_latency,
        ),
        Scenario(
            "synth_generation",
            "one evolutionary generation of attack synthesis on tiny, tp none",
            _run_synth_generation,
        ),
        Scenario(
            "mc_micro",
            "exhaustive product-state model check on micro, tp full",
            _run_mc_micro,
        ),
        Scenario(
            "mc_tiny",
            "exhaustive product-state model check on tiny, tp full",
            _run_mc_tiny,
        ),
        Scenario(
            "mc_tiny_por",
            "3-IRQ-line model check on tiny, tp full, with partial-order "
            "reduction (reports pruned choices)",
            _run_mc_tiny_por,
        ),
        Scenario(
            "mc_depth",
            "deeper model check on micro with two IRQ injections per path",
            _run_mc_depth,
        ),
        Scenario(
            "campaign_store",
            "resume-check lookup on a 100k-record JSONL store: "
            "completed_keys on a fresh handle (a whole-file scan)",
            _run_campaign_store,
        ),
        Scenario(
            "statcheck_lint",
            "full SC-1..SC-4 static conformance run over src/repro",
            _run_statcheck_lint,
        ),
    )
}
