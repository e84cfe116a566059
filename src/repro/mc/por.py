"""Partial-order reduction: symmetric-IRQ-line collapse.

The product's nondeterminism is the choice alphabet ``step`` /
``irq(line)``.  Injections do **not** commute with steps (an IRQ fires
at the stepped core's *current* clock, so ``irq;step`` and ``step;irq``
reach different clocks), which rules out classic sleep-set reductions --
and they would be unsound anyway combined with fingerprint dedup, which
already merges converging interleavings.  What *is* soundly reducible
is the choice between two **symmetric lines** in a single state:

The modelled hardware and kernel treat distinct IRQ lines identically
except through per-line state -- the controller's mask/pending/delivery
bookkeeping and the partition policy's ownership map.  The delivery
path itself is line-blind: ``Kernel._handle_irq`` touches the same
handler code lines and kernel data words whatever the line number (the
SC-1 footprint capture confirms this: case-"1"/"2a"/"2b" footprints
never contain a line-number-dependent address).  Hence if two lines
have identical *signatures* in a product state --

* the same owner under the IRQ partition policy (this fixes all future
  masking behaviour), and
* on both sides of the pair: the same masked status, the same pending
  status, and the same delivered count

-- then swapping the two line numbers is an automorphism of the product
transition system rooted at that state: it maps reachable states to
reachable states, preserves every Lo-visible observable and therefore
every violation, and preserves depths.  Exploring only the lowest line
of each signature class thus preserves the verdict, the minimal
counterexample depth, and exhaustiveness; only the visited-state count
shrinks (by exactly the collapsed siblings' subtrees).

On single-line specs (the default ``irq_lines=(1,)``) every class is a
singleton and the reduction is the identity -- state counts are
untouched, which the differential tests pin.
"""

from __future__ import annotations

from typing import List, Tuple

from .product import ProductState
from .spec import McSpec


def _line_signature(state: ProductState, line: int) -> Tuple:
    """Everything that distinguishes ``line`` from its siblings."""
    irq_a = state.kernel_a.machine.cores[0].irq
    irq_b = state.kernel_b.machine.cores[0].irq
    return (
        state.kernel_a.irq_policy.owner_of(line),
        line in irq_a._masked,
        line in irq_b._masked,
        line in irq_a.pending_lines(),
        line in irq_b.pending_lines(),
        irq_a.delivered_count.get(line, 0),
        irq_b.delivered_count.get(line, 0),
    )


def reduce_choices(
    state: ProductState, choices: List[Tuple], spec: McSpec,
) -> Tuple[List[Tuple], int]:
    """Collapse symmetric ``irq(line)`` choices; returns (kept, pruned).

    Keeps every non-IRQ choice, and for each signature class of lines
    the lowest-numbered representative.
    """
    if len(choices) <= 2:
        return choices, 0
    kept: List[Tuple] = []
    seen_signatures = set()
    pruned = 0
    for choice in choices:
        if choice[0] != "irq":
            kept.append(choice)
            continue
        signature = _line_signature(state, choice[1])
        if signature in seen_signatures:
            pruned += 1
            continue
        seen_signatures.add(signature)
        kept.append(choice)
    return kept, pruned
