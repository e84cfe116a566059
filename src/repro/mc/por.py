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
have identical *signatures* in a product state (:func:`line_signatures`
reads one side's half, which a system node keeps) --

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

from typing import Dict, List, Tuple

from ..kernel.kernel import Kernel
from .spec import McSpec


def line_signatures(kernel: Kernel, spec: McSpec) -> Dict[int, Tuple]:
    """Each injectable line's signature on one side of the product.

    Everything that distinguishes a line from its siblings: its owner
    under the IRQ partition policy, and this side's masked status,
    pending status and delivered count.  A pair's signature for a line
    is the two sides' signatures together.
    """
    irq = kernel.machine.cores[0].irq
    pending = irq.pending_lines()
    return {
        line: (
            kernel.irq_policy.owner_of(line),
            line in irq._masked,
            line in pending,
            irq.delivered_count.get(line, 0),
        )
        for line in spec.irq_lines
    }


def reduce_choices(
    choices: List[Tuple],
    signatures_a: Dict[int, Tuple],
    signatures_b: Dict[int, Tuple],
) -> Tuple[List[Tuple], int]:
    """Collapse symmetric ``irq(line)`` choices; returns (kept, pruned).

    Keeps every non-IRQ choice, and for each signature class of lines
    the lowest-numbered representative.  ``signatures_a`` and
    ``signatures_b`` are the two sides' :func:`line_signatures`.
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
        line = choice[1]
        signature = (signatures_a[line], signatures_b[line])
        if signature in seen_signatures:
            pruned += 1
            continue
        seen_signatures.add(signature)
        kept.append(choice)
    return kept, pruned
