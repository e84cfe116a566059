"""CLI: prove, model-check, survey channels, inspect, campaigns, lint, bench.

Nine subcommands::

    repro-tp prove    [--machine M] [--tp T] [--secrets 1,7,23]
                      [--format text|json]
    repro-tp mc       [--machine M] [--tp T] [--depth N] [--secrets 0,1,2]
                      [--max-states N] [--format text|json]
    repro-tp channels [--machine M] [--tp T] [--only e2,e4]
    repro-tp inspect  [--machine M]
    repro-tp campaign [--machines M1,M2] [--tps T1,T2] [--attacks A1,A2]
                      [--seeds 0,1] [--workers N] [--store results.jsonl]
                      [--genomes FILE]
                      [--serve] [--host H] [--port P]
                      [--shard-size N] [--lease-ttl S] [--status-interval S]
    repro-tp work     --coordinator URL [--jobs N] [--name ID]
                      [--max-failures N]
    repro-tp synth    [--machine M] [--tp T] [--victim V] [--generations N]
                      [--population N] [--seed N] [--jobs N] [--save FILE]
                      [--threshold BITS] [--format text|json]
    repro-tp lint     [paths ...] [--format text|json] [--baseline FILE]
                      [--jobs N] [--strict] [--prune-baseline]
    repro-tp bench    [--record | --compare] [--benches B1,B2]
                      [--repeats N] [--tolerance F] [--file PATH]

``prove`` runs the full Sect. 5 argument (obligations, case split,
unwinding, two-run noninterference) on a standard two-domain system and
prints the report.  ``mc`` exhaustively model-checks noninterference
over the reachable product state space of a small machine (``micro`` or
``tiny``): exit 0 when clean, 1 with a minimal replayable counterexample
otherwise.  ``channels`` measures the attack suite under the chosen
configuration.  ``prove``, ``mc`` and ``channels`` exit 2, with one line
naming the machine, the tp config and the reason, when the system cannot
boot there (``ColourExhausted``: no colours, frames or LLC ways left).
``inspect`` extracts and prints the abstract hardware model (Sect. 5.1)
of a machine.  ``campaign`` runs a whole (machine ×
tp × attack × seed) grid through a lease coordinator — one worker in
this process, or ``--workers N`` forked ones — appends one JSONL
record per trial, resumes past completed trials on re-run, and prints
the (machine × tp) channel-capacity matrix; ``--genomes`` registers
evolved genomes from a saved file as extra attacks for the grid.  The
store is a JSONL file; a ``--store`` path with a database suffix is
refused with exit 2 before the file is opened.  ``campaign --serve``
runs the grid as an HTTP *coordinator* (workers attach with
``repro-tp work``) with a live ``/status`` capacity view.  ``work`` is
the worker half: pull leases from a coordinator URL, run trials, send
each result back as its trial ends.
``synth`` runs the evolutionary attack search against the chosen
machine/TP configuration: exit 0 when no channel above the threshold
was found (time protection held against the search), 1 when the search
discovered one.  ``lint`` runs the static
conformance analyzer (``repro.statcheck``) over the source tree: exit 0
clean, 1 findings, 2 internal/configuration error; ``--jobs`` parses in
a process pool, stale baseline waivers warn by default, fail (exit 2)
under ``--strict``, and ``--prune-baseline`` rewrites the baseline file
without them.  ``bench`` runs the
throughput scenarios: ``--record`` writes the per-host
``benchmarks/BENCH_<host>.json`` baseline, ``--compare`` fails (exit 1)
when any bench exceeds the baseline by more than the tolerance band.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from .core import (
    AbstractHardwareModel,
    format_report,
    prove_time_protection,
)
from .hardware import Access, Compute, Halt, ReadTime, Syscall
from .hardware.presets import MACHINES
from .kernel import ColourExhausted, Kernel, TimeProtectionConfig
from .kernel.timeprotect import TP_CONFIGS


def _hi_program(ctx):
    secret = ctx.params["secret"]
    # Instructions are immutable; build the loop-invariant ones once.
    nop = Syscall("nop")
    spin = Compute(15)
    for i in range(80):
        yield Access(
            ctx.data_base + (i * (secret + 1) * ctx.line_size) % ctx.data_size,
            write=True,
            value=i,
        )
        if i % 9 == 0:
            yield nop
    while True:
        yield spin


def _lo_program(ctx):
    read_time = ReadTime()
    for i in range(150):
        yield read_time
        yield Access(ctx.data_base + (i * ctx.line_size) % ctx.data_size)
    yield Halt()


def _build_standard_system(machine_factory, tp):
    def build(secret):
        machine = machine_factory()
        kernel = Kernel(machine, tp)
        hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=3000)
        lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=3000)
        kernel.create_thread(hi, _hi_program, params={"secret": secret})
        kernel.create_thread(lo, _lo_program)
        kernel.set_schedule(0, [(hi, None), (lo, None)])
        return kernel

    return build


def _cannot_boot(command: str, args, error: ColourExhausted) -> int:
    """Report a system that cannot boot in one line; exit code 2."""
    print(
        f"{command}: machine {args.machine!r} cannot boot the system under "
        f"tp {args.tp!r}: {error}",
        file=sys.stderr,
    )
    return 2


def cmd_prove(args) -> int:
    from .core import format_report_json

    try:
        secrets = [int(s) for s in args.secrets.split(",") if s.strip()]
    except ValueError as error:
        print(f"invalid prove secrets: {error}", file=sys.stderr)
        return 2
    if len(set(secrets)) < 2:
        print("need at least two distinct secrets", file=sys.stderr)
        return 2
    if args.max_cycles < 1:
        print(f"--max-cycles must be at least 1, got {args.max_cycles}",
              file=sys.stderr)
        return 2
    machine_factory = MACHINES[args.machine]
    tp = TP_CONFIGS[args.tp]()
    try:
        report = prove_time_protection(
            _build_standard_system(machine_factory, tp),
            secrets=secrets,
            observer="Lo",
            max_cycles=args.max_cycles,
        )
    except ColourExhausted as error:
        return _cannot_boot("prove", args, error)
    if args.format == "json":
        print(format_report_json(report))
    else:
        print(format_report(report, verbose=True))
    return 0 if report.holds else 1


def cmd_mc(args) -> int:
    import time

    from .mc import McSpec, ModelChecker, render_json, render_text

    try:
        secrets = tuple(int(s) for s in args.secrets.split(",") if s.strip())
        overrides = dict(
            secrets=secrets,
            depth=args.depth,
            max_states=args.max_states,
            irq_budget=args.irq_budget,
        )
        if args.irq_lines:
            overrides["irq_lines"] = tuple(
                int(line) for line in args.irq_lines.split(",") if line.strip()
            )
        spec = McSpec.for_machine(args.machine, args.tp, **overrides)
    except (KeyError, ValueError) as error:
        print(f"invalid mc spec: {error}", file=sys.stderr)
        return 2
    if len(set(spec.secrets)) < 2:
        print("need at least two distinct secrets", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        report = ModelChecker(
            spec, clock=time.perf_counter if args.profile else None
        ).run()
    except ColourExhausted as error:
        return _cannot_boot("mc", args, error)
    elapsed = time.perf_counter() - started
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
        rate = report.stats.states_visited / elapsed if elapsed > 0 else 0.0
        print(f"[{elapsed:.2f}s wall, {rate:.0f} states/s]")
    return 0 if report.passed else 1


#: The ``ATTACKS`` entries ``channels`` surveys, each run with its
#: registered defaults.
CHANNEL_SURVEY = ("e1", "e2", "e4", "e5", "e6", "occupancy")


def cmd_channels(args) -> int:
    from .campaign.registry import ATTACKS

    selected = (
        [name.strip() for name in args.only.split(",")]
        if args.only
        else list(CHANNEL_SURVEY)
    )
    for name in selected:
        if name not in CHANNEL_SURVEY:
            print(f"  unknown experiment {name!r}; "
                  f"choices: {list(CHANNEL_SURVEY)}")
            return 2
    tp = TP_CONFIGS[args.tp]()
    machine_factory = MACHINES[args.machine]
    print(f"channel survey on machine={args.machine!r}, tp={args.tp!r}:\n")
    worst = 0.0
    for name in selected:
        # E1's defence is padded IPC, which ``full`` leaves off: under
        # ``full`` the survey runs E1 with it on.
        run_tp = (
            TimeProtectionConfig.full(padded_ipc=True)
            if name == "e1" and args.tp == "full" else tp
        )
        try:
            result = ATTACKS[name].run(run_tp, machine_factory)
        except ColourExhausted as error:
            return _cannot_boot(f"channels {name}", args, error)
        worst = max(worst, result.capacity_bits())
        print(f"  {result.summary()}")
    print(
        f"\nworst channel: {worst:.3f} bits/symbol "
        f"({'LEAKY' if worst > 1e-3 else 'all surveyed channels closed'})"
    )
    return 0


def cmd_inspect(args) -> int:
    machine = MACHINES[args.machine]()
    model = AbstractHardwareModel.from_machine(machine)
    summary = model.summary()
    print(f"abstract hardware model of machine {args.machine!r}:")
    for key in ("partitionable", "flushable", "unmanaged"):
        names = summary[key]
        print(f"  {key:14s} ({len(names)}): {', '.join(names) or '-'}")
    for element in model.elements:
        print(
            f"    {element.name:20s} declared={element.declared_category.value:14s} "
            f"effective={element.effective_category.value:14s} "
            f"partitions={element.n_partitions}"
        )
    print("  declared exclusions:")
    for exclusion in summary["exclusions"]:
        print(f"    * {exclusion}")
    verdict = "conforms to the aISA contract" if model.conforms_to_aisa() else (
        "VIOLATES the aISA contract: time protection cannot be proved"
    )
    print(f"  verdict: {verdict}")
    return 0 if model.conforms_to_aisa() else 1


def _campaign_serve(args, spec, trials, store) -> int:
    """``campaign --serve``: coordinator only; workers attach remotely."""
    from .campaign import ProgressReporter
    from .campaign.service import LeaseTable, plan_payloads
    from .campaign.service import protocol
    from .campaign.service.coordinator import Coordinator, CoordinatorServer
    from .campaign.service.status import format_status

    completed = store.completed_keys() if not args.fresh else set()
    todo = [trial for trial in trials if trial.key() not in completed]
    table = LeaseTable(
        plan_payloads(todo, timeout_s=args.timeout),
        shard_size=args.shard_size,
        lease_ttl_s=args.lease_ttl,
        max_retries=args.retries,
    )
    reporter = ProgressReporter(
        total=len(todo), label=f"{spec.name}/serve", enabled=not args.quiet
    )
    coordinator = Coordinator(
        table, store, campaign=spec.name, reporter=reporter
    )
    server = CoordinatorServer(coordinator, host=args.host, port=args.port)
    if not todo:
        print(f"campaign {spec.name!r}: all {len(trials)} trial(s) already "
              f"complete in {store.path}")
        return 0
    url = server.start()
    print(f"coordinator: {len(todo)} open trial(s) "
          f"({len(trials) - len(todo)} resumed) at {url}")
    print(f"attach workers with: repro-tp work --coordinator {url}")
    reporter.start(0, len(trials) - len(todo))
    interval = args.status_interval if args.status_interval > 0 else 30.0
    try:
        while not server.wait_done(timeout=interval):
            if args.status_interval > 0:
                print(format_status(coordinator.status()), flush=True)
    except KeyboardInterrupt:
        print("\ninterrupted; completed trials are resumable from the store",
              file=sys.stderr)
        return 1
    finally:
        import time as _time

        # Grace period: workers poll /lease every retry_after_s; keep
        # answering "done" long enough for them to exit cleanly instead
        # of burning their backoff budget against a closed socket.
        _time.sleep(3 * protocol.DEFAULT_RETRY_AFTER_S)
        server.stop()
        reporter.finish()
    print(format_status(coordinator.status()))
    return 0 if table.stats.failed == 0 else 1


def cmd_campaign(args) -> int:
    from .analysis.summary import capacity_matrix
    from .campaign import (
        CampaignSpec,
        ResultStore,
        default_workers,
        run_campaign,
    )
    from .campaign.registry import ATTACKS

    genome_attacks = ()
    if args.genomes:
        from .synth import register_saved

        try:
            genome_attacks = tuple(register_saved(args.genomes))
        except (OSError, ValueError, KeyError) as error:
            print(f"cannot load genomes {args.genomes!r}: {error}",
                  file=sys.stderr)
            return 2

    if args.spec:
        try:
            spec = CampaignSpec.from_json_file(args.spec)
        except (OSError, ValueError, KeyError) as error:
            print(f"cannot load campaign spec {args.spec!r}: {error}",
                  file=sys.stderr)
            return 2
    else:
        attacks = tuple(a.strip() for a in args.attacks.split(",") if a.strip())
        # Evolved genomes sweep the same grid as the named attacks.
        attacks += tuple(a for a in genome_attacks if a not in attacks)
        spec = CampaignSpec(
            machines=tuple(m.strip() for m in args.machines.split(",") if m.strip()),
            tps=tuple(t.strip() for t in args.tps.split(",") if t.strip()),
            attacks=attacks,
            seeds=tuple(int(s) for s in args.seeds.split(",") if s.strip()),
        )
    try:
        trials = spec.trials()
    except KeyError as error:
        print(f"invalid campaign spec: {error}", file=sys.stderr)
        print(f"known attacks: {sorted(ATTACKS)}", file=sys.stderr)
        return 2
    if not trials:
        print("campaign spec expands to zero trials", file=sys.stderr)
        return 2

    try:
        store = ResultStore(args.store)
    except ValueError as error:
        print(f"cannot use store: {error}", file=sys.stderr)
        return 2
    if args.serve:
        return _campaign_serve(args, spec, trials, store)
    report = run_campaign(
        spec,
        store,
        n_workers=args.workers if args.workers > 0 else default_workers(),
        timeout_s=args.timeout,
        max_retries=args.retries,
        resume=not args.fresh,
        quiet=args.quiet,
    )
    print(f"campaign {spec.name!r}: {report.summary()}")
    print(f"store: {store.path} ({len(store)} record(s))")
    if not args.no_summary:
        print()
        print(capacity_matrix(store.records()))
    return 0 if report.all_ok else 1


def cmd_work(args) -> int:
    from .campaign.service import (
        BackoffPolicy,
        CoordinatorUnreachable,
        ServiceWorker,
    )
    from .campaign.service.fleet import _fleet_worker_main
    from .campaign.service.worker import _mp_context

    if args.jobs > 1:
        ctx = _mp_context()
        processes = [
            ctx.Process(
                target=_fleet_worker_main,
                args=(
                    args.coordinator,
                    f"{args.name or 'w'}{index}",
                    args.seed + index,
                    args.max_failures,
                ),
            )
            for index in range(args.jobs)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
        codes = [process.exitcode for process in processes]
        print(f"{len(processes)} worker(s) exited: {codes}")
        return 0 if all(code == 0 for code in codes) else 1
    worker = ServiceWorker(
        args.coordinator,
        worker_id=args.name,
        max_failures=args.max_failures,
        backoff=BackoffPolicy(seed=args.seed),
        log=None if args.quiet else (
            lambda message: print(message, file=sys.stderr, flush=True)
        ),
    )
    try:
        stats = worker.run()
    except CoordinatorUnreachable as error:
        print(f"coordinator unreachable: {error}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print(f"interrupted: {worker.stats.summary()}", file=sys.stderr)
        return 1
    print(f"worker {worker.worker_id}: {stats.summary()}")
    return 0


def cmd_synth(args) -> int:
    import json as _json

    from .synth import (
        CampaignEvaluator,
        ChannelGuessEnv,
        EvolutionSearch,
        SearchConfig,
        save_genomes,
    )

    symbols = tuple(
        int(s) for s in args.symbols.split(",") if s.strip()
    ) if args.symbols else None
    try:
        env = ChannelGuessEnv(
            machine=args.machine,
            tp=args.tp,
            victim=args.victim,
            symbols=symbols,
            rounds_per_run=args.rounds,
            sweep_rounds=args.sweep_rounds,
            seed=args.seed,
        )
    except KeyError as error:
        print(f"invalid synth environment: {error}", file=sys.stderr)
        return 2
    threshold = (
        args.threshold if args.threshold >= 0 else env.noise_floor_bits()
    )
    config = SearchConfig(
        generations=args.generations,
        population=args.population,
        target_bits=args.target_bits if args.target_bits > 0 else None,
    )
    evaluator = None
    if args.jobs > 1:
        try:
            evaluator = CampaignEvaluator(
                env, args.store, n_workers=args.jobs, seed=args.seed
            )
        except ValueError as error:
            print(f"cannot use store: {error}", file=sys.stderr)
            return 2
    text = args.format == "text"
    log = print if text and not args.quiet else None
    search = EvolutionSearch(
        env, config, seed=args.seed, evaluator=evaluator, log=log
    )
    report = search.run()
    found = report.found_channel(threshold)

    if args.save:
        ranked = [report.champion] + [
            s for s in report.discovered if s.genome != report.champion.genome
        ]
        save_genomes(
            args.save, ranked, env=env,
            metadata={"seed": args.seed, "threshold_bits": threshold},
        )

    if text:
        champion = report.champion
        stats = champion.evaluation
        print(
            f"synth [{args.machine}/{args.tp}] victim={args.victim}: "
            f"{report.evaluations} evaluations, "
            f"{len(report.discovered)} genome(s) above the noise floor"
        )
        print(
            f"champion (gen {champion.generation}): "
            f"MI={stats.mutual_information_bits:.3f} bits, "
            f"capacity={stats.capacity_bits:.3f} bits, "
            f"accuracy={stats.accuracy:.2f}, "
            f"genes={[gene.kind for gene in champion.genome.ops]}"
        )
        verdict = (
            f"CHANNEL FOUND above {threshold:.3f} bits"
            if found
            else f"no channel above {threshold:.3f} bits"
        )
        print(f"verdict: {verdict}")
    else:
        print(_json.dumps({
            "env": env.spec(),
            "seed": args.seed,
            "threshold_bits": threshold,
            "found_channel": found,
            "report": report.to_record(),
        }, indent=2, sort_keys=True))
    return 1 if found else 0


def cmd_lint(args) -> int:
    from .statcheck import (
        BaselineError,
        StatcheckError,
        render_json,
        render_text,
        run_lint,
    )

    try:
        report = run_lint(
            paths=args.paths or ["src/repro"],
            baseline_path=args.baseline or None,
            jobs=args.jobs,
        )
    except (BaselineError, StatcheckError, SyntaxError) as error:
        print(f"lint error: {error}", file=sys.stderr)
        return 2
    render = render_json if args.format == "json" else render_text
    print(render(report))
    if report.stale_suppressions:
        if args.prune_baseline and report.baseline is not None:
            pruned = report.baseline.prune()
            print(
                f"pruned {len(pruned)} stale suppression(s) from "
                f"{report.baseline_path}",
                file=sys.stderr,
            )
        elif args.strict:
            print(
                f"lint error: {len(report.stale_suppressions)} stale "
                f"suppression(s) under --strict (run --prune-baseline)",
                file=sys.stderr,
            )
            return max(report.exit_code, 2)
    return report.exit_code


def cmd_bench(args) -> int:
    from pathlib import Path

    from .bench import (
        SCENARIOS,
        compare_results,
        default_baseline_path,
        load_baseline,
        run_benches,
        write_baseline,
    )

    names = [b.strip() for b in args.benches.split(",") if b.strip()] or None
    try:
        results = run_benches(names, repeats=args.repeats)
    except KeyError as error:
        print(f"bench error: {error.args[0]}", file=sys.stderr)
        return 2

    bench_dir = Path(args.dir)
    path = Path(args.file) if args.file else default_baseline_path(bench_dir)

    if args.compare:
        try:
            baseline = load_baseline(path)
        except (OSError, ValueError) as error:
            print(f"cannot load baseline {path}: {error}", file=sys.stderr)
            print("record one first: repro-tp bench --record", file=sys.stderr)
            return 2
        report = compare_results(results, baseline, tolerance=args.tolerance)
        print(f"comparing against {path} (host={baseline.host}, "
              f"python={baseline.python}):")
        print(report.format())
        return 0 if report.passed else 1

    for result in results:
        print(f"  {result.name:<22} {result.ns_per_op:>10.1f} ns/op "
              f"({result.ops} steps, median of {len(result.runs_ns)})")
    if args.record:
        write_baseline(results, path, repeats=args.repeats)
        print(f"recorded baseline: {path}")
    else:
        print(f"(dry run; benches available: {', '.join(sorted(SCENARIOS))})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tp",
        description="Prove (or refute) time protection on a simulated system.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    prove = subparsers.add_parser("prove", help="run the full Sect. 5 proof")
    prove.add_argument("--machine", choices=sorted(MACHINES), default="tiny")
    prove.add_argument("--tp", choices=sorted(TP_CONFIGS), default="full")
    prove.add_argument("--secrets", default="1,7,23",
                       help="comma-separated Hi secrets to sweep")
    prove.add_argument("--max-cycles", type=int, default=400_000)
    prove.add_argument("--format", choices=("text", "json"), default="text")
    prove.set_defaults(func=cmd_prove)

    mc = subparsers.add_parser(
        "mc",
        help="exhaustively model-check noninterference on a small machine",
    )
    mc.add_argument("--machine", choices=sorted(MACHINES), default="micro")
    mc.add_argument("--tp", choices=sorted(TP_CONFIGS), default="full")
    mc.add_argument("--depth", type=int, default=400,
                    help="bound on product-path length (default well above "
                         "any reachable depth on micro/tiny)")
    mc.add_argument("--secrets", default="0,1,2",
                    help="comma-separated Hi secret domain (all pairs checked)")
    mc.add_argument("--max-states", type=int, default=200_000,
                    help="visited-set memory bound")
    mc.add_argument("--format", choices=("text", "json"), default="text")
    mc.add_argument("--irq-lines", default="",
                    help="comma-separated IRQ lines the scheduler may raise "
                         "(default: the spec's, normally just line 1)")
    mc.add_argument("--irq-budget", type=int, default=1,
                    help="max IRQ injections per explored path")
    mc.add_argument("--profile", action="store_true",
                    help="report per-phase wall-clock breakdown "
                         "(clone/step/check/fingerprint/dedup)")
    mc.set_defaults(func=cmd_mc)

    channels = subparsers.add_parser("channels", help="measure the attack suite")
    channels.add_argument("--machine", choices=sorted(MACHINES), default="tiny")
    channels.add_argument("--tp", choices=sorted(TP_CONFIGS), default="full")
    channels.add_argument("--only", default="",
                          help="comma-separated experiment names (default: all)")
    channels.set_defaults(func=cmd_channels)

    inspect = subparsers.add_parser(
        "inspect", help="print a machine's abstract hardware model"
    )
    inspect.add_argument("--machine", choices=sorted(MACHINES), default="tiny")
    inspect.set_defaults(func=cmd_inspect)

    campaign = subparsers.add_parser(
        "campaign",
        help="run a (machine x tp x attack x seed) grid over local workers",
    )
    campaign.add_argument(
        "--spec", default="",
        help="JSON campaign spec file (overrides the grid flags)",
    )
    campaign.add_argument("--machines", default="tiny",
                          help="comma-separated machine presets")
    campaign.add_argument("--tps", default="full,none",
                          help="comma-separated TP configs")
    campaign.add_argument("--attacks", default="e5,occupancy",
                          help="comma-separated attack names")
    campaign.add_argument("--seeds", default="0",
                          help="comma-separated integer seeds")
    campaign.add_argument("--workers", type=int, default=0,
                          help="workers (1 = in this process, N > 1 = "
                               "forked; 0 = one per available CPU)")
    campaign.add_argument("--store", default="campaign_results.jsonl",
                          help="JSONL result store path (resume target)")
    campaign.add_argument("--serve", action="store_true",
                          help="run as a lease coordinator over HTTP; "
                               "workers attach with 'repro-tp work'")
    campaign.add_argument("--host", default="127.0.0.1",
                          help="with --serve: coordinator bind address")
    campaign.add_argument("--port", type=int, default=0,
                          help="with --serve: coordinator port "
                               "(0 = pick a free one)")
    campaign.add_argument("--shard-size", type=int, default=8,
                          help="with --serve: trials per lease shard")
    campaign.add_argument("--lease-ttl", type=float, default=30.0,
                          help="with --serve: lease deadline in seconds; an "
                               "expired lease re-issues its unresolved "
                               "trials")
    campaign.add_argument("--status-interval", type=float, default=0.0,
                          help="with --serve: print the /status capacity "
                               "view every S seconds (0 = only at the end)")
    campaign.add_argument("--timeout", type=float, default=0.0,
                          help="per-trial wall-clock budget in seconds (0 = off)")
    campaign.add_argument("--retries", type=int, default=1,
                          help="retry attempts per failed trial")
    campaign.add_argument("--fresh", action="store_true",
                          help="ignore existing records (disable resume)")
    campaign.add_argument("--no-summary", action="store_true",
                          help="skip the capacity-matrix summary table")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress per-trial progress lines")
    campaign.add_argument("--genomes", default="",
                          help="saved genome file (repro-tp synth --save); "
                               "registers each genome as an extra attack "
                               "and adds it to the grid")
    campaign.set_defaults(func=cmd_campaign)

    work = subparsers.add_parser(
        "work",
        help="pull trial leases from a campaign coordinator and run them",
    )
    work.add_argument("--coordinator", required=True,
                      help="coordinator base URL (printed by campaign --serve)")
    work.add_argument("--jobs", type=int, default=1,
                      help="worker processes to run against the coordinator")
    work.add_argument("--name", default="",
                      help="worker id prefix (default: host:pid)")
    work.add_argument("--seed", type=int, default=0,
                      help="backoff-jitter seed (worker index is added)")
    work.add_argument("--max-failures", type=int, default=8,
                      help="consecutive coordinator failures before giving up")
    work.add_argument("--quiet", action="store_true",
                      help="suppress reconnect/progress log lines")
    work.set_defaults(func=cmd_work)

    synth = subparsers.add_parser(
        "synth",
        help="evolve attack programs that search the machine for channels",
    )
    synth.add_argument("--machine", choices=sorted(MACHINES), default="tiny")
    synth.add_argument("--tp", choices=sorted(TP_CONFIGS), default="full")
    synth.add_argument("--victim", default="set_hammer",
                       help="secret-dependent victim program (see "
                            "repro.synth.victims.VICTIMS)")
    synth.add_argument("--symbols", default="",
                       help="comma-separated symbol alphabet "
                            "(default: the victim's)")
    synth.add_argument("--generations", type=int, default=8)
    synth.add_argument("--population", type=int, default=16)
    synth.add_argument("--rounds", type=int, default=6,
                       help="spy rounds per run (samples per symbol)")
    synth.add_argument("--sweep-rounds", type=int, default=2,
                       help="full alphabet sweeps per evaluation")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--jobs", type=int, default=1,
                       help="forked campaign workers per generation "
                            "(1 = in-process serial)")
    synth.add_argument("--store", default="synth_fitness.jsonl",
                       help="JSONL fitness cache for --jobs > 1")
    synth.add_argument("--threshold", type=float, default=-1.0,
                       help="open-channel verdict threshold in bits "
                            "(default: the estimator noise floor)")
    synth.add_argument("--target-bits", type=float, default=0.0,
                       help="stop early once champion MI clears this "
                            "(0 = run all generations)")
    synth.add_argument("--save", default="",
                       help="write discovered genomes to this JSON file")
    synth.add_argument("--quiet", action="store_true",
                       help="suppress per-generation progress lines")
    synth.add_argument("--format", choices=("text", "json"), default="text")
    synth.set_defaults(func=cmd_synth)

    lint = subparsers.add_parser(
        "lint",
        help="run the static conformance analyzer (SC-1/SC-2/SC-3/SC-4)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--baseline", default="",
        help="suppression file (default: discover statcheck.baseline.json)",
    )
    lint.add_argument(
        "--jobs", type=int, default=1,
        help="parse/index files in a process pool of this size",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="fail (exit 2) on stale baseline suppressions",
    )
    lint.add_argument(
        "--prune-baseline", action="store_true",
        help="rewrite the baseline file without stale suppressions",
    )
    lint.set_defaults(func=cmd_lint)

    bench = subparsers.add_parser(
        "bench",
        help="run throughput benches; record or compare a per-host baseline",
    )
    mode = bench.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true",
                      help="write BENCH_<host>.json after running")
    mode.add_argument("--compare", action="store_true",
                      help="compare against the recorded baseline (exit 1 on "
                           "regression)")
    bench.add_argument("--benches", default="",
                       help="comma-separated bench names (default: all)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timed runs per bench (median is kept)")
    bench.add_argument("--tolerance", type=float, default=1.0,
                       help="allowed slowdown fraction for --compare "
                            "(1.0 = fail only beyond 2x baseline)")
    bench.add_argument("--dir", default="benchmarks",
                       help="directory holding BENCH_<host>.json files")
    bench.add_argument("--file", default="",
                       help="explicit baseline path (overrides --dir/host)")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
