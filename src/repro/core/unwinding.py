"""Unwinding-style conditions at domain-switch boundaries.

Murray et al. [2012] prove noninterference for OS kernels via *unwinding
conditions*: per-step lemmas showing that states equivalent from Lo's
perspective remain equivalent.  A full per-instruction unwinding over the
concrete simulator would drown in irrelevant detail -- exactly the
situation the paper says to avoid by abstraction (Sect. 5.1/5.3).  We
instead check the conditions at the points where control (and therefore
observability) passes between domains: every switch *into* the observer
domain.

At each such point, the Lo-relevant projection of the machine state is:

* the release timestamp (Case 2b: must equal schedule + pad, a constant),
* the flushable state (must be in reset state -- history-independent),
* the LLC restricted to Lo's own colours (only Lo writes there),
* the LLC restricted to the kernel's shared colours (must be the
  canonical post-sweep state).

If each of these is (a) constant where the proof says constant and (b)
dependent only on Lo-and-kernel history otherwise, then by the paper's
Case 1/2a argument every subsequent Lo step's latency is a function of
Lo-visible state only -- the unwinding step.  The checker verifies (a)
directly and provides the projections so the two-run harness can verify
(b) across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hardware.state import Evidence
from ..kernel.kernel import Kernel


@dataclass
class UnwindingCheck:
    """Result of checking unwinding conditions for one observer domain."""

    observer_domain: str
    passed: bool
    failures: List[str] = field(default_factory=list)
    switches_into_observer: int = 0

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = (
            f"unwinding({self.observer_domain}) [{status}] over "
            f"{self.switches_into_observer} entry points"
        )
        if self.failures:
            head += "\n" + "\n".join(f"    - {f}" for f in self.failures[:5])
        return head


def projection_entry(
    record,
    observer: str,
    colours: List[int],
    kernel_colours: List[int],
    way_partitioned: bool,
) -> Optional[Tuple]:
    """One switch record's Lo-projection entry; None for other targets.

    The per-record building block of :func:`lo_projection`, exposed so
    incremental consumers (the model checker's cursor mode) can extend
    a cached projection one record at a time with identical entries.
    """
    if record.to_domain != observer:
        return None
    if way_partitioned:
        own_view = tuple(
            (observer, record.llc_owner_fingerprints.get(observer, ()))
        )
        kernel_view = tuple(
            ("@kernel", record.llc_owner_fingerprints.get("@kernel", ()))
        )
    else:
        own_view = tuple(
            (colour, record.llc_colour_fingerprints.get(colour, ()))
            for colour in colours
        )
        kernel_view = tuple(
            (colour, record.llc_colour_fingerprints.get(colour, ()))
            for colour in kernel_colours
        )
    return (
        record.released_at,
        tuple(
            (name, record.post_flush_fingerprints[name])
            for name in sorted(record.post_flush_fingerprints)
        ),
        own_view,
        kernel_view,
    )


def lo_projection(kernel: Kernel, observer: str) -> List[Tuple]:
    """The Lo-relevant state projection at each switch into ``observer``."""
    kernel.require_evidence(Evidence(switches=True), "lo_projection")
    domain = kernel.domains[observer]
    colours = sorted(domain.colours)
    kernel_colours = sorted(kernel.allocator.kernel_colours)
    way_partitioned = kernel.tp.way_partitioning
    projections = []
    for record in kernel.switch_records:
        entry = projection_entry(
            record, observer, colours, kernel_colours, way_partitioned
        )
        if entry is not None:
            projections.append(entry)
    return projections


def check_unwinding(kernel: Kernel, observer: str) -> UnwindingCheck:
    """Check the switch-boundary unwinding conditions for ``observer``."""
    failures: List[str] = []
    domain = kernel.domains.get(observer)
    if domain is None:
        raise KeyError(f"no domain {observer!r}")
    kernel.require_evidence(Evidence(switches=True), "check_unwinding")
    entries = [r for r in kernel.switch_records if r.to_domain == observer]

    # Condition 1: entry into Lo happens at schedule + pad (constant
    # relative to the schedule), i.e. Case 2b's constant-time switch.
    for number, record in enumerate(entries):
        if record.pad_target is None:
            failures.append(
                f"entry #{number}: unpadded switch "
                f"(latency {record.switch_latency} is history-dependent)"
            )
        elif record.released_at != record.pad_target:
            failures.append(
                f"entry #{number}: released at {record.released_at} != "
                f"pad target {record.pad_target}"
            )

    # Condition 2: the flushable state Lo inherits is the reset state.
    for number, record in enumerate(entries):
        expected = {
            element.name
            for element in kernel.machine.flushable_elements_of_core(record.core_id)
        }
        if set(record.flushed_elements) != expected:
            failures.append(
                f"entry #{number}: inherited unflushed state "
                f"{sorted(expected - set(record.flushed_elements))}"
            )
            continue
        for name in sorted(record.flushed_elements):
            if record.post_flush_fingerprints.get(name) != record.reset_fingerprints.get(name):
                failures.append(
                    f"entry #{number}: {name} not in reset state at entry"
                )

    # Condition 3: the kernel-shared LLC colours Lo inherits are canonical.
    kernel_colours = sorted(kernel.allocator.kernel_colours)
    reference: Optional[Dict[int, tuple]] = None
    for number, record in enumerate(entries):
        snapshot = {
            colour: record.llc_colour_fingerprints.get(colour, ())
            for colour in kernel_colours
        }
        if reference is None:
            reference = snapshot
        elif snapshot != reference:
            failures.append(
                f"entry #{number}: kernel-shared LLC state differs from entry #0"
            )

    return UnwindingCheck(
        observer_domain=observer,
        passed=not failures,
        failures=failures,
        switches_into_observer=len(entries),
    )
