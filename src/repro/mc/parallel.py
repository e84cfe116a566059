"""Level-synchronous parallel frontier expansion.

With ``--jobs N`` the BFS runs level by level: the frontier at depth d
is sharded by state hash (``int(fingerprint, 16) % jobs``) across a
fork pool, each worker rebuilds its product states from the root by
replaying the choice path (live kernel pairs do not cross the pickle
boundary; a spec plus a path rebuilds them deterministically -- the
same plain-data idiom as the campaign executor), expands them, and
ships back plain-data successor descriptors.  The parent merges results
in original frontier order, so visited-set insertion order, dedup
counts, counterexample selection and the final verdict are identical to
the serial explorer.

The one intentional divergence from the serial explorer is at the depth
bound itself: a level sitting exactly at ``spec.depth`` is cut without
being dispatched, so terminal states *at* the bound are not counted
(the serial loop counts them).  Verdicts are unaffected.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

from .product import McViolation, ProductState
from .report import McCounterexample, McStats
from .spec import McSpec

#: Worker result: (frontier index, POR-pruned count, expansions); each
#: expansion is (choice, child fingerprint, violations).
_Expansion = Tuple[Tuple, str, Tuple[McViolation, ...]]


def _expand_items(payload) -> List[Tuple[int, int, List[_Expansion]]]:
    """Worker: rebuild each product state by path replay and expand it."""
    spec, secret_a, secret_b, items, options = payload
    from .por import reduce_choices

    results = []
    for index, path in items:
        state = ProductState.from_path(spec, secret_a, secret_b, path)
        expansions: List[_Expansion] = []
        choices = state.available_choices(spec)
        pruned = 0
        if options.por and choices:
            choices, pruned = reduce_choices(state, choices, spec)
        for position, choice in enumerate(choices):
            child = (
                state if position == len(choices) - 1
                else state.clone(options.fast_clone)
            )
            violations = child.apply(choice, spec, options.incremental)
            expansions.append((
                choice,
                child.fingerprint(options.incremental),
                tuple(violations),
            ))
        results.append((index, pruned, expansions))
    return results


def explore_pair_parallel(
    spec: McSpec,
    secret_a: int,
    secret_b: int,
    stats: McStats,
    pool,
    jobs: int,
    options=None,
) -> Tuple[List[McCounterexample], Optional[str]]:
    """Level-synchronous BFS over the product rooted at one secret pair.

    Honours the ``por``, ``incremental`` and ``fast_clone`` levers of
    :class:`~repro.mc.explorer.McOptions` inside each worker; the
    memory-scale levers (bitstate, spill) are serial-explorer-only.
    """
    if options is None:
        from .explorer import McOptions

        options = McOptions()
    root_fp = ProductState.initial(spec, secret_a, secret_b).fingerprint(
        options.incremental
    )
    visited: Dict[str, int] = {root_fp: 0}
    stats.states_visited += 1
    # Frontier entries carry their full path so workers can replay them.
    level: List[Tuple[str, Tuple[Tuple, ...]]] = [(root_fp, ())]
    stats.peak_frontier = max(stats.peak_frontier, len(level))
    counterexamples: List[McCounterexample] = []
    cut: Optional[str] = None
    depth = 0

    while level:
        if depth >= spec.depth:
            cut = "depth-bound"
            break
        shards: List[List[Tuple[int, Tuple[Tuple, ...]]]] = [
            [] for _ in range(jobs)
        ]
        for index, (fingerprint, path) in enumerate(level):
            shards[int(fingerprint, 16) % jobs].append((index, path))
        payloads = [
            (spec, secret_a, secret_b, shard, options)
            for shard in shards if shard
        ]
        merged = sorted(chain.from_iterable(pool.map(_expand_items, payloads)))

        child_depth = depth + 1
        next_level: List[Tuple[str, Tuple[Tuple, ...]]] = []
        violated = False
        for index, pruned, expansions in merged:
            stats.por_pruned += pruned
            parent_fp, parent_path = level[index]
            if not expansions:
                stats.terminal_states += 1
                continue
            for choice, child_fp, violations in expansions:
                stats.transitions += 1
                stats.max_depth = max(stats.max_depth, child_depth)
                known = child_fp in visited
                if known:
                    stats.deduped += 1
                elif stats.states_visited < spec.max_states:
                    visited[child_fp] = child_depth
                    stats.states_visited += 1
                else:
                    cut = "state-bound"
                if violations:
                    if not known:
                        violated = True
                        counterexamples.append(McCounterexample(
                            secret_a=secret_a,
                            secret_b=secret_b,
                            path=parent_path + (choice,),
                            depth=child_depth,
                            violations=violations,
                        ))
                    continue
                if not known and cut != "state-bound":
                    next_level.append((child_fp, parent_path + (choice,)))
        if violated or cut == "state-bound":
            break
        level = next_level
        stats.peak_frontier = max(stats.peak_frontier, len(level))
        depth = child_depth
    return counterexamples, cut
