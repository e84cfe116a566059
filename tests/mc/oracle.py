"""The exact oracle the model checker's one product path is pinned to.

Each reduction built into the explorer has a slow, plainly correct
counterpart here:

* :func:`state_fingerprint` digests the whole canonical structure
  (:func:`canonical_state`) at every state, where the product folds the
  append-only evidence into chain digests;
* :func:`check_pair_full` compares full Lo-visible prefixes on every
  transition, where the product resumes from checked-prefix cursors;
* :func:`deepcopy_clone` copies product states with ``copy.deepcopy``,
  where the product walks the object graph (``Kernel.clone_for_mc``);
* :func:`keep_every_choice` explores every choice, where the product
  collapses symmetric IRQ lines (``repro.mc.por``).

:func:`exact_explorer` monkeypatches all four over the product path, so
the oracle runs the very same BFS loop and no product knob is needed;
:func:`without_por` swaps in only the last one.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
from typing import List, Tuple

import pytest

from repro.core.noninterference import trace_divergence
from repro.core.unwinding import lo_projection
from repro.kernel.kernel import Kernel
from repro.mc import explorer, product
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
from repro.mc.product import OBSERVER, McViolation, ProductState


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


def keep_every_choice(state, choices, spec):
    """Partial-order reduction switched off: nothing is pruned."""
    return choices, 0


@contextlib.contextmanager
def without_por():
    """Run the product path with every choice explored."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explorer, "reduce_choices", keep_every_choice)
        yield


@contextlib.contextmanager
def exact_explorer():
    """Run the explorer loop with every oracle installed."""
    with without_por(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(product, "_check_pair", check_pair_full)
        patch.setattr(ProductState, "fingerprint", exact_fingerprint)
        patch.setattr(ProductState, "clone", deepcopy_clone)
        yield
