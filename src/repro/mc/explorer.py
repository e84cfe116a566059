"""Bounded explicit-state exploration of the noninterference product.

Each secret's system is stepped once, however many secret pairs it
takes part in.  A *system node* is one system state, keyed on its
canonical fingerprint and the IRQ budget left.  It keeps what the pair
checks read -- its Lo view, its terminal flag and its per-line POR
signatures -- and, until it is expanded, its live kernel.  The first
pair that takes a choice from a node expands it: every choice the node
can take is stepped once (the kernel is cloned for every choice but the
last, which consumes it), the per-side checks run once per system
transition, and each choice's child node and side violations are
memoised.  The kernel is then dropped.  A finished system is never
stepped: a step leaves its node as it is, and an injection moves it to
the node with one injection less to spend.

The product is a breadth-first search over pairs of nodes, deduplicated
by the product fingerprint; frontier entries carry their full choice
path from the root, so a violating transition *is* a minimal
counterexample path (BFS discovers states in depth order, so the first
violating depth is the minimal one; every violation at that depth is
collected, deeper ones are provably redundant and the search stops).
Violating children are recorded (for dedup) but never expanded:
everything after a violation is more of the same divergence.

Sharing a node between pairs is sound only because a system
fingerprint fixes the system's future: every hardware element
fingerprints the replacement order that picks its next victim, and the
budget is part of the node's key and of the product fingerprint.

There is one exploration path, and these reductions are built into it
(each pinned to the lockstep reference explorer and the exact oracle in
``tests/mc/``):

* the node memo above;
* partial-order reduction collapsing symmetric ``irq(line)`` choices
  (``por.py``; identity on single-line specs);
* incremental fingerprints: memoised chain digests of the append-only
  evidence, plus checked-prefix cursors for the pair comparisons
  (``fingerprint.py``, ``product.py``);
* the hand-rolled ``Kernel.clone_for_mc`` deep copy.

Each secret pair gets one exact visited set of product fingerprints and
one in-memory FIFO frontier; all pairs share the node memo.  The
verdict is *exhaustive* only when every secret pair's frontier drained
with neither the depth nor the state bound cutting anything off.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..core.gcpause import collector_paused
from ..kernel.kernel import Kernel
from .fingerprint import product_fingerprint, state_fingerprint_incremental
from .por import line_signatures, reduce_choices
from .product import OBSERVER, check_side, compare_lo_views, lo_view, sided
from .report import McCounterexample, McReport, McStats
from .spec import STEP, McSpec, apply_choice, build_system, is_terminal

#: The --profile phase keys, in render order.
PROFILE_PHASES = ("clone", "step", "check", "fingerprint", "dedup")


class _Profile:
    """Per-phase accumulator of ``clock`` seconds; a no-op without one."""

    def __init__(self, clock: Optional[Callable[[], float]]):
        self.enabled = clock is not None
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in PROFILE_PHASES}
        self.clock = clock

    def now(self) -> float:
        return self.clock() if self.enabled else 0.0

    def lap(self, phase: str, start: float) -> float:
        """Charge the time since ``start`` to ``phase``; returns now."""
        if not self.enabled:
            return 0.0
        now = self.clock()
        self.seconds[phase] += now - start
        return now

    def to_json(self) -> Dict[str, float]:
        return {phase: round(self.seconds[phase], 6) for phase in PROFILE_PHASES}


class _Node:
    """One system state at one IRQ budget; see the module docstring."""

    __slots__ = ("fingerprint", "budget", "terminal", "view", "signatures",
                 "kernel", "successors")

    def __init__(self, fingerprint: str, budget: int, terminal: bool,
                 view: Tuple, signatures: Optional[Dict[int, Tuple]],
                 kernel: Optional[Kernel]):
        self.fingerprint = fingerprint
        self.budget = budget
        self.terminal = terminal
        self.view = view
        self.signatures = signatures
        self.kernel = kernel
        #: choice -> (child node, side violations), once expanded.
        self.successors: Optional[Dict[Tuple, Tuple]] = None


def _choices(spec: McSpec, budget: int) -> List[Tuple]:
    """Every choice a state with ``budget`` injections left can take."""
    if budget > 0:
        return [STEP] + [("irq", line) for line in spec.irq_lines]
    return [STEP]


class _Systems:
    """The node memo every secret pair shares."""

    def __init__(self, spec: McSpec, profile: _Profile):
        self.spec = spec
        self.profile = profile
        self.nodes: Dict[Tuple[str, int], _Node] = {}
        self.roots: Dict[int, _Node] = {}

    def root(self, secret: int) -> _Node:
        node = self.roots.get(secret)
        if node is None:
            node = self._node(build_system(self.spec, secret),
                              self.spec.irq_budget)
            self.roots[secret] = node
        return node

    def successor(self, node: _Node, choice: Tuple) -> Tuple[_Node, Tuple]:
        """The node ``choice`` leads to, and that transition's side checks."""
        if node.terminal:
            if choice[0] == "irq":
                return self._spent(node), ()
            return node, ()
        if node.successors is None:
            self._expand(node)
        return node.successors[choice]

    def _node(self, kernel: Kernel, budget: int) -> _Node:
        """The node of ``kernel``'s state at ``budget``, made on first sight."""
        profile = self.profile
        start = profile.now()
        fingerprint = state_fingerprint_incremental(kernel, OBSERVER)
        start = profile.lap("fingerprint", start)
        key = (fingerprint, budget)
        node = self.nodes.get(key)
        start = profile.lap("dedup", start)
        if node is None:
            terminal = is_terminal(kernel, self.spec)
            node = _Node(
                fingerprint, budget, terminal, lo_view(kernel),
                line_signatures(kernel, self.spec)
                if len(self.spec.irq_lines) > 1 else None,
                None if terminal else kernel,
            )
            self.nodes[key] = node
            profile.lap("check", start)
        return node

    def _spent(self, node: _Node) -> _Node:
        """A finished system's node with one injection less to spend."""
        key = (node.fingerprint, node.budget - 1)
        spent = self.nodes.get(key)
        if spent is None:
            spent = _Node(node.fingerprint, node.budget - 1, True, node.view,
                          node.signatures, None)
            self.nodes[key] = spent
        return spent

    def _expand(self, node: _Node) -> None:
        """Step every choice ``node`` can take once; drop its kernel."""
        spec, profile = self.spec, self.profile
        kernel, node.kernel = node.kernel, None
        first_new_switch = len(kernel.switch_records)
        choices = _choices(spec, node.budget)
        successors = {}
        for position, choice in enumerate(choices):
            start = profile.now()
            if position < len(choices) - 1:
                child = kernel.clone_for_mc()
                start = profile.lap("clone", start)
            else:
                child = kernel
            apply_choice(child, choice)
            start = profile.lap("step", start)
            found = tuple(check_side(child, first_new_switch))
            profile.lap("check", start)
            budget = node.budget - 1 if choice[0] == "irq" else node.budget
            successors[choice] = (self._node(child, budget), found)
        node.successors = successors


class ModelChecker:
    """Exhaustive (bounded) noninterference check of one :class:`McSpec`.

    ``clock`` (a host timer such as ``time.perf_counter``, handed in by
    ``mc --profile``) turns on the per-phase profile; the explorer never
    reads host time itself.
    """

    def __init__(self, spec: McSpec,
                 clock: Optional[Callable[[], float]] = None):
        self.spec = spec
        self.clock = clock

    def run(self) -> McReport:
        with collector_paused():
            return self._run()

    def _run(self) -> McReport:
        stats = McStats()
        counterexamples: List[McCounterexample] = []
        cuts: List[str] = []
        profile = _Profile(self.clock)
        systems = _Systems(self.spec, profile)
        for secret_a, secret_b in self.spec.secret_pairs():
            pair_cexs, cut = self._explore_pair(
                systems, secret_a, secret_b, stats, profile,
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
            profile=profile.to_json() if profile.enabled else None,
        )

    def _explore_pair(
        self, systems: _Systems, secret_a: int, secret_b: int,
        stats: McStats, profile: _Profile,
    ) -> Tuple[List[McCounterexample], Optional[str]]:
        """Serial BFS over the pairs of nodes rooted at one secret pair."""
        spec = self.spec
        root_a = systems.root(secret_a)
        root_b = systems.root(secret_b)
        visited = {product_fingerprint(
            root_a.fingerprint, root_b.fingerprint, root_a.budget)}
        stats.states_visited += 1
        # Entries: (depth, choice path from the root, node a, node b,
        # checked-prefix cursors -- see compare_lo_views).
        frontier = deque([(0, (), root_a, root_b, [0, 0, 0])])
        # Peak frontier is the widest BFS level (states enqueued at one
        # depth); a raw frontier-length reading would mix two depths.
        level_width: Dict[int, int] = {0: 1}
        stats.peak_frontier = max(stats.peak_frontier, 1)
        counterexamples: List[McCounterexample] = []
        violation_depth: Optional[int] = None
        cut: Optional[str] = None

        while frontier:
            depth, path, node_a, node_b, cursors = frontier.popleft()
            # BFS pops in depth order, so widths of shallower levels
            # are final: prune them.
            for stale in [d for d in level_width if d < depth]:
                del level_width[stale]

            if violation_depth is not None and depth + 1 > violation_depth:
                # Every remaining expansion is deeper than the
                # minimal violation already in hand.
                break

            if node_a.terminal and node_b.terminal:
                stats.terminal_states += 1
                continue
            if depth >= spec.depth:
                cut = "depth-bound"
                continue
            choices, pruned = reduce_choices(
                _choices(spec, node_a.budget),
                node_a.signatures, node_b.signatures,
            )
            stats.por_pruned += pruned

            # In choice order, which fixes the visited-set insertion
            # order and with it every statistic and counterexample.
            child_depth = depth + 1
            for choice in choices:
                child_a, found_a = systems.successor(node_a, choice)
                child_b, found_b = systems.successor(node_b, choice)
                start = profile.now()
                child_cursors = list(cursors)
                violations = compare_lo_views(
                    child_a.view, child_b.view, child_cursors)
                violations.extend(sided(found_a, "a"))
                violations.extend(sided(found_b, "b"))
                start = profile.lap("check", start)
                stats.transitions += 1
                stats.max_depth = max(stats.max_depth, child_depth)
                child_fp = product_fingerprint(
                    child_a.fingerprint, child_b.fingerprint, child_a.budget)
                start = profile.lap("fingerprint", start)
                known = child_fp in visited
                if known:
                    stats.deduped += 1
                elif stats.states_visited < spec.max_states:
                    visited.add(child_fp)
                    stats.states_visited += 1
                else:
                    cut = "state-bound"
                profile.lap("dedup", start)
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
                    frontier.append((child_depth, path + (choice,),
                                     child_a, child_b, child_cursors))
                    level_width[child_depth] = (
                        level_width.get(child_depth, 0) + 1)
                    stats.peak_frontier = max(
                        stats.peak_frontier, level_width[child_depth])
            if cut == "state-bound":
                break
        return counterexamples, cut
