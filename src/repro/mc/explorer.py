"""Bounded explicit-state exploration of the noninterference product.

Breadth-first search over product states, deduplicated by canonical
fingerprint; frontier entries carry their full choice path from the
root, so a violating transition *is* a minimal counterexample path (BFS
discovers states in depth order, so the first violating depth is the
minimal one; every violation at that depth is collected, deeper ones
are provably redundant and the search stops).

The frontier holds live product states: expanding a state clones it
once per choice except the last, which consumes the parent in place --
snapshots are a dominant cost, so a k-way branch costs k-1 copies, not
k+1.  Violating children are recorded (for dedup) but never expanded:
everything after a violation is more of the same divergence.

Exploration scale is governed by :class:`McOptions`, three compounding
and independently toggleable levers (all proven verdict-identical to
the exact explorer by the differential test suite):

* ``por`` -- partial-order reduction collapsing symmetric ``irq(line)``
  choices (``por.py``; identity on single-line specs);
* ``incremental`` -- memoised canonical fingerprints plus
  checked-prefix cursors for the pair comparisons (``fingerprint.py``,
  ``product.py``);
* ``fast_clone`` -- the hand-rolled ``Kernel.clone_for_mc`` deep copy
  instead of ``copy.deepcopy`` (falls back automatically outside its
  envelope).

Memory scale: ``bitstate_mb`` swaps the visited set for a Bloom filter
(non-exhaustive "bitstate" verdict with an estimated omission
probability in the report) and ``spill_ram_states`` bounds live product
states in RAM by spilling frontier overflow to disk as replayable
paths.  Without them the verdict semantics are exactly the seed
explorer's: *exhaustive* only when every secret pair's frontier drained
with neither bound cutting anything off.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .frontier import BitstateVisited, SpillFrontier
from .por import reduce_choices
from .product import ProductState
from .report import McCounterexample, McReport, McStats
from .spec import McSpec, apply_choice, is_terminal

#: Stop-reason precedence: a violation verdict outranks a memory cut,
#: which outranks a depth cut, which outranks a clean full drain.
_STOP_PRECEDENCE = ("violation", "state-bound", "depth-bound", "exhausted")

#: The --profile phase keys, in render order.
PROFILE_PHASES = ("clone", "step", "check", "fingerprint", "dedup")


@dataclass(frozen=True)
class McOptions:
    """Exploration levers; defaults match the acceptance configuration."""

    por: bool = True
    incremental: bool = True
    fast_clone: bool = True
    bitstate_mb: Optional[float] = None
    spill_ram_states: Optional[int] = None
    spill_dir: Optional[str] = None
    profile: bool = False

    @classmethod
    def exact(cls) -> "McOptions":
        """The seed explorer's behaviour: every lever off."""
        return cls(por=False, incremental=False, fast_clone=False)


class _Profile:
    """Per-phase wall-clock accumulator; a no-op unless enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in PROFILE_PHASES}

    def add(self, phase: str, elapsed: float) -> None:
        self.seconds[phase] += elapsed

    def to_json(self) -> Dict[str, float]:
        return {phase: round(self.seconds[phase], 6) for phase in PROFILE_PHASES}


class ModelChecker:
    """Exhaustive (bounded) noninterference check of one :class:`McSpec`."""

    def __init__(self, spec: McSpec, jobs: int = 1,
                 options: Optional[McOptions] = None):
        self.spec = spec
        self.jobs = max(1, jobs)
        self.options = options if options is not None else McOptions()

    def run(self) -> McReport:
        # Exploration allocates kernel snapshots at a rate that makes
        # the cyclic GC's generation scans a measurable fraction of the
        # wall clock (~20%); nothing in the hot loop relies on prompt
        # cycle collection, so pause the collector and sweep once at
        # the end.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run()
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()

    def _run(self) -> McReport:
        options = self.options
        stats = McStats()
        counterexamples: List[McCounterexample] = []
        cuts: List[str] = []
        profile = _Profile(options.profile)
        bitstate_inserted = 0
        bitstate_probability = 0.0
        if self.jobs > 1:
            from .parallel import explore_pair_parallel
            with _fork_pool(self.jobs) as pool:
                for secret_a, secret_b in self.spec.secret_pairs():
                    pair_cexs, cut = explore_pair_parallel(
                        self.spec, secret_a, secret_b, stats, pool, self.jobs,
                        options,
                    )
                    counterexamples.extend(pair_cexs)
                    if cut is not None:
                        cuts.append(cut)
        else:
            for secret_a, secret_b in self.spec.secret_pairs():
                pair_cexs, cut, bloom = self._explore_pair(
                    secret_a, secret_b, stats, profile,
                )
                counterexamples.extend(pair_cexs)
                if cut is not None:
                    cuts.append(cut)
                if bloom is not None:
                    bitstate_inserted += bloom.inserted
                    bitstate_probability = max(
                        bitstate_probability, bloom.omission_probability()
                    )

        counterexamples.sort(
            key=lambda cex: (cex.depth, cex.secret_a, cex.secret_b))
        if counterexamples:
            stop_reason = "violation"
        elif "state-bound" in cuts:
            stop_reason = "state-bound"
        elif "depth-bound" in cuts:
            stop_reason = "depth-bound"
        else:
            stop_reason = "exhausted"
        bitstate = None
        if options.bitstate_mb:
            # A Bloom false positive can silently omit states, so a
            # bitstate run is never exhaustive, whatever the drain said.
            bitstate = {
                "mbytes": options.bitstate_mb,
                "inserted": bitstate_inserted,
                "est_omission_probability": round(bitstate_probability, 9),
            }
        return McReport(
            spec=self.spec,
            passed=not counterexamples,
            exhaustive=stop_reason == "exhausted" and bitstate is None,
            stop_reason=stop_reason,
            stats=stats,
            counterexamples=counterexamples,
            jobs=self.jobs,
            bitstate=bitstate,
            profile=profile.to_json() if options.profile else None,
        )

    def _explore_pair(
        self, secret_a: int, secret_b: int, stats: McStats, profile: _Profile,
    ) -> Tuple[List[McCounterexample], Optional[str],
               Optional[BitstateVisited]]:
        """Serial BFS over the product rooted at one secret pair."""
        spec = self.spec
        options = self.options
        timed = profile.enabled
        clock = time.perf_counter
        incremental = options.incremental

        root = ProductState.initial(spec, secret_a, secret_b)
        root_fp = root.fingerprint(incremental)
        bloom: Optional[BitstateVisited] = None
        if options.bitstate_mb:
            bloom = BitstateVisited(options.bitstate_mb)
            visited = bloom
        else:
            visited = set()
        visited.add(root_fp)
        stats.states_visited += 1
        if options.spill_ram_states is not None:
            frontier = SpillFrontier(
                spec, secret_a, secret_b,
                ram_states=options.spill_ram_states,
                spill_dir=options.spill_dir,
            )
        else:
            frontier = deque()
        _push, _pop = _frontier_ops(frontier)
        _push(root_fp, 0, (), root)
        # Peak frontier is the widest BFS level (states enqueued at one
        # depth) -- a raw frontier-length reading would mix two depths
        # and disagree with the level-synchronous parallel explorer.
        level_width: Dict[int, int] = {0: 1}
        stats.peak_frontier = max(stats.peak_frontier, 1)
        counterexamples: List[McCounterexample] = []
        violation_depth: Optional[int] = None
        cut: Optional[str] = None

        try:
            while frontier:
                _fingerprint, depth, path, state = _pop()
                # BFS pops in depth order, so widths of shallower levels
                # are final: prune them (the seed explorer leaked every
                # level's width for the whole exploration).
                for stale in [d for d in level_width if d < depth]:
                    del level_width[stale]

                if violation_depth is not None and depth + 1 > violation_depth:
                    # Every remaining expansion is deeper than the
                    # minimal violation already in hand.
                    break

                choices = state.available_choices(spec)
                if not choices:
                    stats.terminal_states += 1
                    continue
                if depth >= spec.depth:
                    cut = "depth-bound"
                    continue
                if options.por:
                    choices, pruned = reduce_choices(state, choices, spec)
                    stats.por_pruned += pruned

                # Phase 1: one child per choice.
                jobs: List[Tuple] = []  # (choice, child, marks)
                for position, choice in enumerate(choices):
                    if position == len(choices) - 1:
                        child = state
                    else:
                        start = clock() if timed else 0.0
                        child = state.clone(options.fast_clone)
                        if timed:
                            profile.add("clone", clock() - start)
                    jobs.append((choice, child, child.begin_apply()))

                # Phase 2: step every child's kernels.
                start = clock() if timed else 0.0
                for choice, child, _marks in jobs:
                    if not is_terminal(child.kernel_a, spec):
                        apply_choice(child.kernel_a, choice, spec)
                    if not is_terminal(child.kernel_b, spec):
                        apply_choice(child.kernel_b, choice, spec)
                if timed:
                    profile.add("step", clock() - start)

                # Phase 3: checks, fingerprint, dedup, enqueue -- in
                # choice order, which fixes the visited-set insertion
                # order and with it every statistic and counterexample.
                child_depth = depth + 1
                for choice, child, marks in jobs:
                    start = clock() if timed else 0.0
                    violations = child.finish_apply(choice, marks, incremental)
                    if timed:
                        now = clock()
                        profile.add("check", now - start)
                        start = now
                    stats.transitions += 1
                    stats.max_depth = max(stats.max_depth, child_depth)
                    child_fp = child.fingerprint(incremental)
                    if timed:
                        now = clock()
                        profile.add("fingerprint", now - start)
                        start = now
                    known = child_fp in visited
                    if known:
                        stats.deduped += 1
                    elif stats.states_visited < spec.max_states:
                        visited.add(child_fp)
                        stats.states_visited += 1
                    else:
                        cut = "state-bound"
                    if timed:
                        profile.add("dedup", clock() - start)
                    if violations:
                        if not known:
                            if violation_depth is None:
                                violation_depth = child_depth
                            if child_depth <= violation_depth:
                                counterexamples.append(McCounterexample(
                                    secret_a=secret_a,
                                    secret_b=secret_b,
                                    path=path + (choice,),
                                    depth=child_depth,
                                    violations=tuple(violations),
                                ))
                        continue
                    if not known and cut != "state-bound":
                        _push(child_fp, child_depth, path + (choice,), child)
                        level_width[child_depth] = (
                            level_width.get(child_depth, 0) + 1)
                        stats.peak_frontier = max(
                            stats.peak_frontier, level_width[child_depth])
                if cut == "state-bound":
                    break
        finally:
            if isinstance(frontier, SpillFrontier):
                frontier.close()
        return counterexamples, cut, bloom


def _frontier_ops(frontier):
    """(push, pop) closures over either frontier representation."""
    if isinstance(frontier, SpillFrontier):
        return frontier.push, frontier.pop

    def push(fingerprint, depth, path, state):
        frontier.append((fingerprint, depth, path, state))

    return push, frontier.popleft


def _fork_pool(jobs: int):
    """A fork-context pool (same rationale as the campaign executor)."""
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        context = multiprocessing.get_context()
    return context.Pool(processes=jobs)
