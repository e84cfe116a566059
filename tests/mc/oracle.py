"""The references the model checker's one explorer path is pinned to.

:class:`ReferenceChecker` is the lockstep explorer: every product state
is a pair of live kernels (:class:`ProductState`), cloned and stepped
on both sides for every secret pair it belongs to.  The explorer steps
each system state once and shares it between pairs (``repro.mc``); the
two must agree on every report.

Each reduction built into both has a slow, plainly correct counterpart
here:

* :func:`state_fingerprint` digests the whole canonical structure
  (:func:`canonical_state`) at every state, where the product folds the
  append-only evidence into chain digests;
* :func:`check_pair_full` compares full Lo-visible prefixes on every
  transition, where the product resumes from checked-prefix cursors;
* :func:`deepcopy_clone` copies product states with ``copy.deepcopy``,
  where the product walks the object graph (``Kernel.clone_for_mc``);
* :func:`keep_every_choice` explores every choice, where the product
  collapses symmetric IRQ lines (``repro.mc.por``).

:func:`exact_explorer` monkeypatches all four over the reference's
product path, so the oracle is the reference loop with nothing reduced;
:func:`without_por` swaps in only the last one, for both explorers.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
from collections import deque
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.noninterference import trace_divergence
from repro.core.unwinding import lo_projection
from repro.kernel.kernel import Kernel
from repro.mc import McSpec, ModelChecker, explorer, product
from repro.mc.explorer import _Profile
from repro.mc.fingerprint import (
    DIGEST_SIZE,
    _colour_map,
    _cores_component,
    _domain_order,
    _domains_component,
    _observation_item,
    _relabel_context,
    _role_labels,
    _switch_item,
    _tcb_labels,
    product_fingerprint,
)
from repro.mc.por import line_signatures
from repro.mc.product import OBSERVER, McViolation, ProductState
from repro.mc.report import McCounterexample, McStats
from repro.mc.spec import apply_choice, is_terminal


def case_trace(kernel: Kernel) -> Tuple[Tuple[str, str], ...]:
    """The (case, context) sequence of the Sect. 5.2 case split."""
    return tuple(
        (case, context) for case, context, _footprint in kernel.case_log
    )


def canonical_state(kernel: Kernel, observer: str = "Lo") -> Tuple:
    """The canonical (symmetry-reduced) structure the digest hashes."""
    labels = _role_labels(kernel, observer)
    colours = _colour_map(kernel)
    order = _domain_order(kernel)
    tcb_labels = _tcb_labels(order, labels)

    cores = _cores_component(kernel, tcb_labels)
    domains = _domains_component(order, labels, colours, tcb_labels)

    observations = tuple(
        (
            labels[domain.name],
            tuple(
                _observation_item(record, tcb_labels)
                for record in kernel.observations[domain.name]
            ),
        )
        for domain in order
    )

    switches = tuple(
        _switch_item(record, labels, colours)
        for record in kernel.switch_records
    )

    cases = tuple(
        (case, _relabel_context(context, labels))
        for case, context in case_trace(kernel)
    )

    return (
        cores,
        tuple(domains),
        kernel.machine.fingerprint_all(),
        kernel.machine.memory.fingerprint(),
        observations,
        switches,
        cases,
        kernel.endpoints.n_endpoints,
    )


def state_fingerprint(kernel: Kernel, observer: str = "Lo") -> str:
    """Stable hex digest of the canonical state."""
    doc = repr(canonical_state(kernel, observer)).encode()
    return hashlib.blake2b(doc, digest_size=DIGEST_SIZE).hexdigest()


def _lo_case_trace(kernel: Kernel) -> Tuple[str, ...]:
    """Case labels of every Lo-attributed step, in execution order."""
    labels = []
    for case, context in case_trace(kernel):
        if (
            context == OBSERVER
            or context == f"{OBSERVER}/kernel"
            or (context.startswith("@switch:") and context.endswith(f">{OBSERVER}"))
        ):
            labels.append(case)
    return tuple(labels)


def check_pair_full(
    kernel_a: Kernel, kernel_b: Kernel, cursors: List[int],
) -> List[McViolation]:
    """Cross-pair checks (a) and (b), recompared over full prefixes.

    Ignores (and never advances) the product's checked-prefix cursors.
    """
    violations: List[McViolation] = []

    trace_a = kernel_a.observation_trace(OBSERVER)
    trace_b = kernel_b.observation_trace(OBSERVER)
    common = min(len(trace_a), len(trace_b))
    divergence = trace_divergence(trace_a[:common], trace_b[:common])
    if divergence is not None:
        violations.append(McViolation(
            kind="lo-trace",
            detail=str(divergence),
            side="pair",
            divergence_index=divergence.index,
        ))

    projection_a = lo_projection(kernel_a, OBSERVER)
    projection_b = lo_projection(kernel_b, OBSERVER)
    for index in range(min(len(projection_a), len(projection_b))):
        if projection_a[index] != projection_b[index]:
            violations.append(McViolation(
                kind="lo-projection",
                detail=(
                    f"Lo-projection differs at entry #{index} "
                    f"(release {projection_a[index][0]} vs "
                    f"{projection_b[index][0]})"
                ),
                side="pair",
                divergence_index=index,
            ))
            break

    cases_a = _lo_case_trace(kernel_a)
    cases_b = _lo_case_trace(kernel_b)
    for index in range(min(len(cases_a), len(cases_b))):
        if cases_a[index] != cases_b[index]:
            violations.append(McViolation(
                kind="case-split",
                detail=(
                    f"Lo step #{index} classified as case "
                    f"{cases_a[index]!r} vs {cases_b[index]!r}"
                ),
                side="pair",
                divergence_index=index,
            ))
            break

    return violations


def exact_fingerprint(state: ProductState) -> str:
    """The product digest over two full-structure state digests."""
    return product_fingerprint(
        state_fingerprint(state.kernel_a, OBSERVER),
        state_fingerprint(state.kernel_b, OBSERVER),
        state.irq_budget,
    )


def deepcopy_clone(state: ProductState) -> ProductState:
    """An independent copy of both systems via ``copy.deepcopy``."""
    return ProductState(
        kernel_a=copy.deepcopy(state.kernel_a),
        kernel_b=copy.deepcopy(state.kernel_b),
        secret_a=state.secret_a,
        secret_b=state.secret_b,
        irq_budget=state.irq_budget,
        check_cursors=list(state.check_cursors),
    )


def keep_every_choice(choices, signatures_a, signatures_b):
    """Partial-order reduction switched off: nothing is pruned."""
    return choices, 0


@contextlib.contextmanager
def without_por():
    """Run either explorer with every choice explored.

    The reference reduces through ``explorer.reduce_choices`` too, so
    one patch switches the reduction off for both.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explorer, "reduce_choices", keep_every_choice)
        yield


@contextlib.contextmanager
def exact_explorer():
    """Run the reference loop with every oracle installed.

    Reports come from :func:`run_reference` (or a
    :class:`ReferenceChecker`) under this context.
    """
    with without_por(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(product, "_check_pair", check_pair_full)
        patch.setattr(ProductState, "fingerprint", exact_fingerprint)
        patch.setattr(ProductState, "clone", deepcopy_clone)
        yield


class ReferenceChecker(ModelChecker):
    """The lockstep explorer: one live product state per visited state.

    Runs the same report assembly as :class:`ModelChecker`, with each
    secret pair explored by stepping both kernels of every product
    state; it ignores the explorer's shared node memo.
    """

    def _explore_pair(
        self, systems, secret_a: int, secret_b: int, stats: McStats,
        profile: _Profile,
    ) -> Tuple[List[McCounterexample], Optional[str]]:
        """Serial BFS over the product rooted at one secret pair."""
        spec = self.spec

        root = ProductState.initial(spec, secret_a, secret_b)
        visited = {root.fingerprint()}
        stats.states_visited += 1
        # Entries: (depth, choice path from the root, live product state).
        frontier = deque([(0, (), root)])
        level_width: Dict[int, int] = {0: 1}
        stats.peak_frontier = max(stats.peak_frontier, 1)
        counterexamples: List[McCounterexample] = []
        violation_depth: Optional[int] = None
        cut: Optional[str] = None

        while frontier:
            depth, path, state = frontier.popleft()
            for stale in [d for d in level_width if d < depth]:
                del level_width[stale]

            if violation_depth is not None and depth + 1 > violation_depth:
                break

            choices = state.available_choices(spec)
            if not choices:
                stats.terminal_states += 1
                continue
            if depth >= spec.depth:
                cut = "depth-bound"
                continue
            choices, pruned = explorer.reduce_choices(
                choices,
                line_signatures(state.kernel_a, spec),
                line_signatures(state.kernel_b, spec),
            )
            stats.por_pruned += pruned

            # Phase 1: one child per choice; the last consumes the parent.
            children: List[Tuple] = []  # (choice, child, marks)
            for position, choice in enumerate(choices):
                start = profile.now()
                if position == len(choices) - 1:
                    child = state
                else:
                    child = state.clone()
                    profile.lap("clone", start)
                children.append((choice, child, child.begin_apply()))

            # Phase 2: step every child's kernels.
            start = profile.now()
            for choice, child, _marks in children:
                if not is_terminal(child.kernel_a, spec):
                    apply_choice(child.kernel_a, choice)
                if not is_terminal(child.kernel_b, spec):
                    apply_choice(child.kernel_b, choice)
            profile.lap("step", start)

            # Phase 3: checks, fingerprint, dedup, enqueue -- in choice
            # order, as the explorer does.
            child_depth = depth + 1
            for choice, child, marks in children:
                start = profile.now()
                violations = child.finish_apply(choice, marks)
                start = profile.lap("check", start)
                stats.transitions += 1
                stats.max_depth = max(stats.max_depth, child_depth)
                child_fp = child.fingerprint()
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
                    frontier.append((child_depth, path + (choice,), child))
                    level_width[child_depth] = (
                        level_width.get(child_depth, 0) + 1)
                    stats.peak_frontier = max(
                        stats.peak_frontier, level_width[child_depth])
            if cut == "state-bound":
                break
        return counterexamples, cut


def run_reference(spec: McSpec, clock=None):
    """The lockstep reference's report for ``spec``."""
    return ReferenceChecker(spec, clock=clock).run()
