"""Benchmark runner: one workload, one seed, one measuring window.

Usage (from the repository root)::

    python3 perfbench/run.py --workload channel_campaign --seed 1 \\
        --seconds 35 --trace 0

Untraced (``--trace 0``) runs repeat identical rounds of the workload
until the next round would overrun ``--seconds``, and print the
end-to-end metrics.  On a shared host a vCPU's speed drifts over
seconds, so each op (trial, model check, proof) is timed in
calibration-scaled seconds (see ``probe.ScaledClock``), and a round's
time is the sum over its ops of each op's median repeat.  Set-up time
is measured apart, in fresh interpreters (see ``probe_setup_seconds``).

Traced (``--trace 1``) runs do one round untraced and the same round
under :class:`probe.Tracer`, check that both computed the same outputs
and simulated totals, and print the per-layer metrics; the span table
goes to ``.perfbench/trace-<workload>-<seed>.json``.

The last stdout line is always the JSON result.  The benchmark exits 2
without a result when the product source (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Tuple

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
# Fresh interpreters that each repeat the set-up; the fastest gives
# ``setup_s`` (see ``probe_setup_seconds``).
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60


@dataclass
class Round:
    result: object  # workloads.RoundResult
    wall_s: float
    pieces: List[Tuple[str, float, float, int]]  # KernelMeter.pieces
    totals: Dict[str, int]  # KernelMeter.totals


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: shrunken inputs for the self-tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, clock):
    """Imports plus fixture creation; returns (workload, meter, scratch)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"no product source at {SRC}/repro")
    sys.path.insert(0, SRC)
    import importlib

    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"choices: {sorted(workloads.WORKLOADS)}"
        )
    for module in cls.imports:
        importlib.import_module(module)
    workdir = os.path.join(STATE_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    meter = probe.KernelMeter(clock)
    meter.install()
    workload = cls(args.seed, args.size, workdir)
    workload.fixture()
    return workload, meter, workdir


def probe_setup_seconds(args):
    """Set-up CPU seconds of fresh interpreters, one per probe.

    Set-up is mostly imports.  A slow host or a cold file cache only
    adds to it, and the calibration loop does not track it, so the
    fastest probe, in process CPU time, is the steady figure.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def timed_round(workload, meter, index, tag) -> Round:
    meter.reset()
    started = time.perf_counter()
    result = workload.run_round(index, tag, meter)
    wall = time.perf_counter() - started
    return Round(result, wall, list(meter.pieces), dict(meter.totals))


def measure(args, workload, meter) -> List[Round]:
    """Identical rounds until the next one would overrun the window."""
    rounds: List[Round] = []
    started = time.perf_counter()
    while True:
        rounds.append(timed_round(workload, meter, len(rounds), "run"))
        elapsed = time.perf_counter() - started
        typical = statistics.median(r.wall_s for r in rounds)
        if elapsed + typical > args.seconds:
            return rounds


def typical_round(rounds: List[Round]) -> Tuple[float, float]:
    """(round seconds, kernel ns per step), both scaled.

    Each op, keyed by its ``KernelMeter.piece`` key, contributes the
    median over rounds of its time and of its kernel ns per step.
    """
    walls: Dict[str, List[float]] = {}
    rates: Dict[str, List[float]] = {}
    steps: Dict[str, int] = {}
    for rnd in rounds:
        for key, wall, ns, n_steps in rnd.pieces:
            walls.setdefault(key, []).append(wall)
            if n_steps:
                rates.setdefault(key, []).append(ns / n_steps)
                steps[key] = n_steps
    total_steps = sum(steps.values())
    ns_per_step = sum(
        statistics.median(rates[key]) * n for key, n in steps.items()
    ) / total_steps if total_steps else 0.0
    return sum(statistics.median(w) for w in walls.values()), ns_per_step


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(rounds: List[Round], setup_samples):
    round_s, ns_per_step = typical_round(rounds)
    return {
        "setup_s": metric(min(setup_samples), "s"),
        "round_s": metric(round_s, "s"),
        "sim_ns_per_step": metric(ns_per_step, "ns"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer_metrics(tracer, traced: Round, untraced_wall: float):
    metrics = {}
    for name, (calls, ns, self_ns) in tracer.spans.items():
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.ns"] = metric(ns, "ns")
        metrics[f"{name}.self_ns"] = metric(self_ns, "ns")
    for name, (calls, _) in tracer.counts.items():
        metrics[f"{name}.calls"] = metric(calls, "count")
    for name in ("hardware.cache.access", "hardware.tlb.lookup"):
        calls, hits = tracer.counts[name]
        layer = name.rsplit(".", 1)[0]
        metrics[f"{layer}.hit_ratio"] = metric(
            hits / calls if calls else 0.0, "ratio"
        )
    totals = traced.totals
    metrics["kernel.steps"] = metric(totals["steps"], "count")
    metrics["kernel.cycles"] = metric(totals["cycles"], "cycles")
    metrics["kernel.switches"] = metric(totals["switches"], "count")
    metrics["kernel.irq_delivered"] = metric(totals["irq_delivered"], "count")
    mc = traced.result.mc_stats
    transitions = mc.get("transitions", 0)
    metrics["mc.states_visited"] = metric(mc.get("states_visited", 0), "count")
    metrics["mc.transitions"] = metric(transitions, "count")
    metrics["mc.dedup_ratio"] = metric(
        mc.get("deduped", 0) / transitions if transitions else 0.0, "ratio"
    )
    metrics["trace.overhead_ratio"] = metric(
        traced.wall_s / untraced_wall, "ratio"
    )
    return metrics


def traced_run(args, workload, meter):
    """One round untraced, then traced; returns (metrics, rounds, mismatches)."""
    reference = timed_round(workload, meter, 0, "ref")
    tracer = probe.Tracer()
    tracer.install()
    try:
        traced = timed_round(workload, meter, 0, "traced")
    finally:
        tracer.uninstall()
    mismatches = []
    if traced.result.outputs != reference.result.outputs:
        mismatches.append("traced outputs differ from untraced")
    if traced.totals != reference.totals:
        mismatches.append(
            f"simulated totals differ: traced {traced.totals} "
            f"untraced {reference.totals}"
        )
    if traced.result.mc_stats != reference.result.mc_stats:
        mismatches.append("mc state counts differ from untraced")
    trace_file = os.path.join(
        STATE_DIR, f"trace-{args.workload}-{args.seed}.json"
    )
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "untraced_round_s": reference.wall_s,
            "traced_round_s": traced.wall_s,
            "simulated_totals": traced.totals,
            "spans": tracer.span_table(),
            "counts": {name: {"calls": calls, "hits": hits}
                       for name, (calls, hits) in tracer.counts.items()},
            "missing_hooks": tracer.hooks.missing + meter.hooks.missing,
        }, handle, indent=1)
    metrics = per_layer_metrics(tracer, traced, reference.wall_s)
    return metrics, [reference, traced], mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    # Built before set-up starts: a ScaledClock calibrates as it is made.
    untraced = not (args.trace or args.setup_probe)
    clock = probe.ScaledClock() if untraced else probe.HostClock()
    started = time.process_time()
    try:
        workload, meter, workdir = set_up(args, clock)
    except (SystemExit, ImportError) as error:
        print(f"perfbench: set-up failed: {error}", file=sys.stderr)
        return 2
    setup_s = time.process_time() - started
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, rounds, failures = traced_run(args, workload, meter)
        else:
            # This process's own set-up may have compiled the bytecode
            # cache, so only the fresh probes count.
            setup_samples = probe_setup_seconds(args)
            rounds = measure(args, workload, meter)
            metrics = end_to_end_metrics(rounds, setup_samples)
            failures = []
    except Exception:
        traceback.print_exc()
        print("perfbench: the workload raised; no result", file=sys.stderr)
        return 1
    finally:
        meter.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # The traced run's comparison with its untraced twin is one more op.
    attempted = sum(r.result.attempted for r in rounds) + args.trace
    failed = sum(len(r.result.failures) for r in rounds) + bool(failures)
    for rnd in rounds:
        failures += rnd.result.failures
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
