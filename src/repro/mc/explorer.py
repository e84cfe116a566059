"""Bounded explicit-state exploration of the noninterference product.

Breadth-first search over product states, deduplicated by canonical
fingerprint; frontier entries carry their full choice path from the
root, so a violating transition *is* a minimal counterexample path (BFS
discovers states in depth order, so the first violating depth is the
minimal one; every violation at that depth is collected, deeper ones
are provably redundant and the search stops).

The frontier holds live product states: expanding a state clones it
once per choice except the last, which consumes the parent in place --
clones are a dominant cost, so a k-way branch costs k-1 copies, not
k+1.  Violating children are recorded (for dedup) but never expanded:
everything after a violation is more of the same divergence.

There is one exploration path, and three reductions are built into it
(each pinned verdict-identical to the exact oracle in ``tests/mc/``):

* partial-order reduction collapsing symmetric ``irq(line)`` choices
  (``por.py``; identity on single-line specs);
* incremental fingerprints: memoised chain digests of the append-only
  evidence, plus checked-prefix cursors for the pair comparisons
  (``fingerprint.py``, ``product.py``);
* the hand-rolled ``Kernel.clone_for_mc`` deep copy.

Each secret pair gets one exact visited set of fingerprints and one
in-memory FIFO frontier.  The verdict is *exhaustive* only when every
secret pair's frontier drained with neither the depth nor the state
bound cutting anything off.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from .por import reduce_choices
from .product import ProductState
from .report import McCounterexample, McReport, McStats
from .spec import McSpec, apply_choice, is_terminal

#: The --profile phase keys, in render order.
PROFILE_PHASES = ("clone", "step", "check", "fingerprint", "dedup")


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

    def __init__(self, spec: McSpec, profile: bool = False):
        self.spec = spec
        self.profile = profile

    def run(self) -> McReport:
        # Exploration allocates kernel clones at a rate that makes
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
        stats = McStats()
        counterexamples: List[McCounterexample] = []
        cuts: List[str] = []
        profile = _Profile(self.profile)
        for secret_a, secret_b in self.spec.secret_pairs():
            pair_cexs, cut = self._explore_pair(
                secret_a, secret_b, stats, profile,
            )
            counterexamples.extend(pair_cexs)
            if cut is not None:
                cuts.append(cut)

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
        return McReport(
            spec=self.spec,
            passed=not counterexamples,
            stop_reason=stop_reason,
            stats=stats,
            counterexamples=counterexamples,
            profile=profile.to_json() if self.profile else None,
        )

    def _explore_pair(
        self, secret_a: int, secret_b: int, stats: McStats, profile: _Profile,
    ) -> Tuple[List[McCounterexample], Optional[str]]:
        """Serial BFS over the product rooted at one secret pair."""
        spec = self.spec
        timed = profile.enabled
        clock = time.perf_counter

        root = ProductState.initial(spec, secret_a, secret_b)
        visited = {root.fingerprint()}
        stats.states_visited += 1
        # Entries: (depth, choice path from the root, live product state).
        frontier = deque([(0, (), root)])
        # Peak frontier is the widest BFS level (states enqueued at one
        # depth); a raw frontier-length reading would mix two depths.
        level_width: Dict[int, int] = {0: 1}
        stats.peak_frontier = max(stats.peak_frontier, 1)
        counterexamples: List[McCounterexample] = []
        violation_depth: Optional[int] = None
        cut: Optional[str] = None

        while frontier:
            depth, path, state = frontier.popleft()
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
            choices, pruned = reduce_choices(state, choices, spec)
            stats.por_pruned += pruned

            # Phase 1: one child per choice.
            children: List[Tuple] = []  # (choice, child, marks)
            for position, choice in enumerate(choices):
                if position == len(choices) - 1:
                    child = state
                else:
                    start = clock() if timed else 0.0
                    child = state.clone()
                    if timed:
                        profile.add("clone", clock() - start)
                children.append((choice, child, child.begin_apply()))

            # Phase 2: step every child's kernels.
            start = clock() if timed else 0.0
            for choice, child, _marks in children:
                if not is_terminal(child.kernel_a, spec):
                    apply_choice(child.kernel_a, choice, spec)
                if not is_terminal(child.kernel_b, spec):
                    apply_choice(child.kernel_b, choice, spec)
            if timed:
                profile.add("step", clock() - start)

            # Phase 3: checks, fingerprint, dedup, enqueue -- in choice
            # order, which fixes the visited-set insertion order and
            # with it every statistic and counterexample.
            child_depth = depth + 1
            for choice, child, marks in children:
                start = clock() if timed else 0.0
                violations = child.finish_apply(choice, marks)
                if timed:
                    now = clock()
                    profile.add("check", now - start)
                    start = now
                stats.transitions += 1
                stats.max_depth = max(stats.max_depth, child_depth)
                child_fp = child.fingerprint()
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
                    frontier.append((child_depth, path + (choice,), child))
                    level_width[child_depth] = (
                        level_width.get(child_depth, 0) + 1)
                    stats.peak_frontier = max(
                        stats.peak_frontier, level_width[child_depth])
            if cut == "state-bound":
                break
        return counterexamples, cut
