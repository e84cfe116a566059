"""E13 (engineering): campaign engine vs the hand-written serial loop.

Not a paper experiment: this benchmarks the orchestration subsystem that
regenerates the paper's config-matrix evaluations.  A 12-trial
(machine x tp x attack x seed) grid is run three ways — the old-style
serial ``for`` loop over experiment calls, the campaign executor with
one in-process worker (orchestration overhead), and the campaign
executor with forked workers (parallel speedup) — and a resumed re-run,
which must execute zero trials.

Shape asserted: the executor's in-process overhead is small, resume is
~free, and on a multi-core host the forked workers beat the serial loop.
On a single-core host the speedup assertion is skipped (there is nothing
to win).
"""

import os
import time

from repro.campaign import (
    ATTACKS,
    MACHINES,
    TP_CONFIGS,
    CampaignSpec,
    ResultStore,
    run_campaign,
)

from _common import run_once

SPEC = CampaignSpec(
    machines=("tiny",),
    tps=("full", "none", "no-pad"),
    attacks=("e5", "occupancy"),
    seeds=(0, 1),
    name="bench-e13",
)


def _serial_loop(trials):
    """The pre-campaign idiom: a bare loop over experiment calls."""
    results = []
    for trial in trials:
        tp = TP_CONFIGS[trial.tp]()
        machine_factory = MACHINES[trial.machine]
        results.append(ATTACKS[trial.attack].run(tp, machine_factory, trial.params))
    return results


def _run_campaign(tmp_path, n_workers, tag):
    store = ResultStore(str(tmp_path / f"e13-{tag}.jsonl"))
    report = run_campaign(SPEC, store, n_workers=n_workers, quiet=True)
    return store, report


def test_e13_campaign_speedup(benchmark, tmp_path):
    trials = SPEC.trials()
    n_trials = len(trials)
    assert n_trials >= 12

    t0 = time.perf_counter()
    serial_results = _serial_loop(trials)
    serial_s = time.perf_counter() - t0
    assert len(serial_results) == n_trials

    t0 = time.perf_counter()
    _store1, report1 = _run_campaign(tmp_path, 1, "in-process")
    campaign_serial_s = time.perf_counter() - t0

    n_workers = max(2, min(4, os.cpu_count() or 1))
    t0 = time.perf_counter()
    store, report = run_once(
        benchmark, _run_campaign, tmp_path, n_workers, "forked"
    )
    forked_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    _store2, resumed = _run_campaign(tmp_path, n_workers, "forked")
    resume_s = time.perf_counter() - t0

    print(f"\n=== E13: {n_trials}-trial campaign, {n_workers} workers ===")
    print(f"{'strategy':32s} {'wall (s)':>10s} {'speedup':>8s}")
    print("-" * 52)
    for label, seconds in (
        ("hand-written serial loop", serial_s),
        ("campaign engine, 1 in-process", campaign_serial_s),
        (f"campaign engine, {n_workers} forked", forked_s),
        ("resumed re-run", resume_s),
    ):
        print(f"{label:32s} {seconds:>10.2f} {serial_s / seconds:>7.1f}x")

    # One record per trial, all successful; the re-run executed nothing.
    assert report1.executed == n_trials and report1.all_ok
    assert report.executed == n_trials and report.all_ok
    assert len(store.completed_keys()) == n_trials
    assert resumed.executed == 0 and resumed.skipped == n_trials
    # Resume must be far cheaper than running (it only reads the store).
    assert resume_s < serial_s / 4
    # Orchestration overhead of the in-process worker stays modest.
    assert campaign_serial_s < serial_s * 1.6
    if (os.cpu_count() or 1) >= 2:
        # Forked workers must beat the hand-written serial loop outright.
        assert forked_s < serial_s
