"""The product construction: lockstep pairs and per-transition checks.

A *product state* is a pair of whole systems built identically except
for Hi's secret.  Each abstract choice (a kernel step, or an IRQ raised
now) is concretised on both sides; noninterference says everything Lo
can observe must then stay equal across the pair forever.

The comparison is over **Lo-visible prefixes**, never raw step indices:
under full protection Hi legitimately executes a secret-dependent
*number* of instructions inside its slice, so position-by-position
global comparison would report false violations.  What must agree is

* (a) Lo's observation trace and the Lo-projection at every switch into
  Lo (``core/unwinding.py``'s projection, reused verbatim), compared on
  the common prefix;
* (b) the Sect. 5.2 case split restricted to Lo-attributed steps: the
  sequence of case labels ("1"/"2a"/"2b") Lo's execution produces must
  classify identically on both sides;
* (c) per-side mechanism invariants on every new switch record, gated on
  the mechanisms the TP config enables: flush-reset (PO-3),
  pad-to-constant release timestamps (PO-4/PO-5), and colour
  partitioning of every recorded touch (PO-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.invariants import check_partition_touches
from ..core.noninterference import trace_divergence
from ..core.unwinding import projection_entry
from ..kernel.kernel import Kernel
from .fingerprint import product_fingerprint, state_fingerprint_incremental
from .spec import (
    MC_EVIDENCE,
    STEP,
    McSpec,
    apply_choice,
    build_system,
    is_terminal,
)

OBSERVER = "Lo"


@dataclass(frozen=True)
class McViolation:
    """One noninterference/invariant violation found on a transition."""

    kind: str  # lo-trace | lo-projection | case-split | flush-reset |
               # pad-constant | partition
    detail: str
    side: str  # "pair" for cross-pair checks, else "a"/"b"
    divergence_index: Optional[int] = None

    def __str__(self) -> str:
        where = "" if self.side == "pair" else f" [side {self.side}]"
        return f"{self.kind}{where}: {self.detail}"


def _trace_cache(kernel: Kernel) -> dict:
    """The kernel's fingerprint/trace memo dict (created on demand).

    Shared with the incremental fingerprint; ``clone_for_mc`` copies it
    shallowly, so a clone inherits its parent's built prefixes and only
    pays for what it appends itself.
    """
    cache = getattr(kernel, "_mc_fp_cache", None)
    if cache is None:
        cache = {}
        kernel._mc_fp_cache = cache
    return cache


def _cached_obs_trace(kernel: Kernel) -> Tuple:
    """``kernel.observation_trace(OBSERVER)`` with prefix memoisation.

    The observation log is append-only during exploration, so the built
    tuple is cached as ``(source_length, items)`` and extended by the
    new suffix only -- identical items to the full rebuild.
    """
    cache = _trace_cache(kernel)
    records = kernel.observations[OBSERVER]
    length, acc = cache.get("lo_obs", (0, ()))
    if length > len(records):
        length, acc = 0, ()
    if length < len(records):
        acc = acc + tuple(
            (record.thread, record.value, record.latency)
            for record in records[length:]
        )
        cache["lo_obs"] = (len(records), acc)
    return acc


def _cached_projection(kernel: Kernel) -> Tuple:
    """``lo_projection(kernel, OBSERVER)`` with prefix memoisation.

    Entries come from the same :func:`projection_entry` builder
    ``lo_projection`` uses, so the projections are identical; the
    consumed length counts *switch records* (the filtered source), not
    entries.  The colour lists are static after build and cached as
    plain ints, safe to share across clones.
    """
    cache = _trace_cache(kernel)
    records = kernel.switch_records
    statics = cache.get("lo_proj_static")
    if statics is None:
        statics = (
            sorted(kernel.domains[OBSERVER].colours),
            sorted(kernel.allocator.kernel_colours),
            kernel.tp.way_partitioning,
        )
        cache["lo_proj_static"] = statics
    colours, kernel_colours, way_partitioned = statics
    length, acc = cache.get("lo_proj", (0, ()))
    if length > len(records):
        length, acc = 0, ()
    if length < len(records):
        new = []
        for record in records[length:]:
            entry = projection_entry(
                record, OBSERVER, colours, kernel_colours, way_partitioned
            )
            if entry is not None:
                new.append(entry)
        acc = acc + tuple(new)
        cache["lo_proj"] = (len(records), acc)
    return acc


def _cached_lo_cases(kernel: Kernel) -> Tuple[str, ...]:
    """Case labels of every Lo-attributed step, with prefix memoisation.

    Reads the Sect. 5.2 case log, keeps the steps attributed to Lo --
    its own, its kernel entries and switches into it -- and consumes
    only the appended suffix.
    """
    cache = _trace_cache(kernel)
    source = kernel.case_log
    length, acc = cache.get("lo_cases", (0, ()))
    if length > len(source):
        length, acc = 0, ()
    if length < len(source):
        kernel_context = f"{OBSERVER}/kernel"
        switch_suffix = f">{OBSERVER}"
        new = []
        for item in source[length:]:
            context = item[1]
            if (
                context == OBSERVER
                or context == kernel_context
                or (context.startswith("@switch:")
                    and context.endswith(switch_suffix))
            ):
                new.append(item[0])
        acc = acc + tuple(new)
        cache["lo_cases"] = (len(source), acc)
    return acc


def _check_pair(
    kernel_a: Kernel, kernel_b: Kernel, cursors: List[int],
) -> List[McViolation]:
    """Cross-pair checks (a) and (b) over Lo-visible prefixes.

    ``cursors`` is the product state's [obs, projection, cases] prefix
    progress: every entry below a cursor was compared equal on an
    earlier transition of this very execution (the lists are append-only
    and every ancestor state ran this check), so only the new common
    suffix needs comparing.  The built traces are memoised per kernel
    too, so each transition pays only for its appended suffix instead of
    rebuilding O(path)-long lists.  Reported divergence indices are
    absolute, as a full-prefix comparison would report them.  Both sides
    must record :data:`MC_EVIDENCE`, as :func:`build_system` declares.
    """
    kernel_a.require_evidence(MC_EVIDENCE, "the mc pair check")
    kernel_b.require_evidence(MC_EVIDENCE, "the mc pair check")
    violations: List[McViolation] = []
    obs_from, proj_from, case_from = cursors

    trace_a = _cached_obs_trace(kernel_a)
    trace_b = _cached_obs_trace(kernel_b)
    common = min(len(trace_a), len(trace_b))
    divergence = trace_divergence(
        trace_a[obs_from:common], trace_b[obs_from:common]
    )
    if divergence is not None and obs_from:
        # Recompute over the full prefix so the violation detail (which
        # embeds the index) is bit-identical to a full comparison's.
        divergence = trace_divergence(trace_a[:common], trace_b[:common])
    if divergence is not None:
        violations.append(McViolation(
            kind="lo-trace",
            detail=str(divergence),
            side="pair",
            divergence_index=divergence.index,
        ))
    else:
        cursors[0] = common

    projection_a = _cached_projection(kernel_a)
    projection_b = _cached_projection(kernel_b)
    proj_common = min(len(projection_a), len(projection_b))
    for index in range(proj_from, proj_common):
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
    else:
        cursors[1] = proj_common

    cases_a = _cached_lo_cases(kernel_a)
    cases_b = _cached_lo_cases(kernel_b)
    case_common = min(len(cases_a), len(cases_b))
    for index in range(case_from, case_common):
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
    else:
        cursors[2] = case_common

    return violations


def _check_side(kernel: Kernel, side: str,
                first_new_switch: int) -> List[McViolation]:
    """Per-side mechanism invariants (c) on newly produced switch records."""
    violations: List[McViolation] = []
    new_records = kernel.switch_records[first_new_switch:]

    if kernel.tp.flush_on_switch:
        for offset, record in enumerate(new_records):
            number = first_new_switch + offset
            expected = {
                element.name
                for element in
                kernel.machine.flushable_elements_of_core(record.core_id)
            }
            missing = expected - set(record.flushed_elements)
            if missing:
                violations.append(McViolation(
                    kind="flush-reset",
                    detail=(
                        f"switch #{number}: elements not flushed: "
                        f"{sorted(missing)}"
                    ),
                    side=side,
                ))
                continue
            for name in sorted(record.flushed_elements):
                post = record.post_flush_fingerprints.get(name)
                reset = record.reset_fingerprints.get(name)
                if post != reset:
                    violations.append(McViolation(
                        kind="flush-reset",
                        detail=f"switch #{number}: {name} not reset by flush",
                        side=side,
                    ))

    if kernel.tp.pad_switch:
        for offset, record in enumerate(new_records):
            number = first_new_switch + offset
            from_domain = kernel.domains.get(record.from_domain)
            expected_target = (
                record.scheduled_at + from_domain.pad_cycles
                if from_domain is not None else None
            )
            if record.pad_target != expected_target:
                violations.append(McViolation(
                    kind="pad-constant",
                    detail=(
                        f"switch #{number}: pad target {record.pad_target} "
                        f"!= schedule + pad {expected_target}"
                    ),
                    side=side,
                ))
            elif record.overrun or record.released_at != record.pad_target:
                violations.append(McViolation(
                    kind="pad-constant",
                    detail=(
                        f"switch #{number}: released at {record.released_at}, "
                        f"pad target {record.pad_target} (overrun: padding "
                        f"insufficient)"
                    ),
                    side=side,
                ))

    if kernel.tp.cache_colouring and new_records:
        # The touch log is cumulative; re-audit only when a switch just
        # happened (the boundary at which partitioning must hold).
        for violation in check_partition_touches(kernel):
            violations.append(McViolation(
                kind="partition", detail=str(violation), side=side,
            ))

    return violations


class ProductState:
    """A pair of systems, equal but for the secret, stepped in lockstep."""

    __slots__ = ("kernel_a", "kernel_b", "secret_a", "secret_b", "irq_budget",
                 "check_cursors")

    def __init__(self, kernel_a: Kernel, kernel_b: Kernel,
                 secret_a: int, secret_b: int, irq_budget: int,
                 check_cursors: Optional[List[int]] = None):
        self.kernel_a = kernel_a
        self.kernel_b = kernel_b
        self.secret_a = secret_a
        self.secret_b = secret_b
        self.irq_budget = irq_budget
        # Checked-prefix positions [observations, projection, lo-cases];
        # see _check_pair.  Inherited by clones: a clone's history *is*
        # its parent's history.
        self.check_cursors = (
            check_cursors if check_cursors is not None else [0, 0, 0]
        )

    @classmethod
    def initial(cls, spec: McSpec, secret_a: int, secret_b: int) -> "ProductState":
        return cls(
            kernel_a=build_system(spec, secret_a),
            kernel_b=build_system(spec, secret_b),
            secret_a=secret_a,
            secret_b=secret_b,
            irq_budget=spec.irq_budget,
        )

    def clone(self) -> "ProductState":
        """An independent copy, via ``Kernel.clone_for_mc`` on both sides."""
        return ProductState(
            kernel_a=self.kernel_a.clone_for_mc(),
            kernel_b=self.kernel_b.clone_for_mc(),
            secret_a=self.secret_a,
            secret_b=self.secret_b,
            irq_budget=self.irq_budget,
            check_cursors=list(self.check_cursors),
        )

    def terminal(self, spec: McSpec) -> bool:
        return is_terminal(self.kernel_a, spec) and is_terminal(self.kernel_b, spec)

    def available_choices(self, spec: McSpec) -> List[Tuple]:
        if self.terminal(spec):
            return []
        choices: List[Tuple] = [STEP]
        if self.irq_budget > 0:
            choices.extend(("irq", line) for line in spec.irq_lines)
        return choices

    def apply(self, choice: Tuple, spec: McSpec) -> List[McViolation]:
        """Concretise ``choice`` on both sides; return transition violations."""
        marks = self.begin_apply()
        if not is_terminal(self.kernel_a, spec):
            apply_choice(self.kernel_a, choice, spec)
        if not is_terminal(self.kernel_b, spec):
            apply_choice(self.kernel_b, choice, spec)
        return self.finish_apply(choice, marks)

    def begin_apply(self) -> Tuple[int, int]:
        """Pre-transition marks (switch-record counts) for finish_apply.

        ``begin_apply`` / step-the-kernels / ``finish_apply`` is the
        decomposed form of :meth:`apply`; the serial explorer uses it to
        time stepping and checking as separate ``--profile`` phases.
        """
        return (
            len(self.kernel_a.switch_records),
            len(self.kernel_b.switch_records),
        )

    def finish_apply(self, choice: Tuple,
                     marks: Tuple[int, int]) -> List[McViolation]:
        """Post-transition bookkeeping and checks; see :meth:`begin_apply`."""
        if choice[0] == "irq":
            self.irq_budget -= 1
        violations = _check_pair(
            self.kernel_a, self.kernel_b, self.check_cursors)
        violations.extend(_check_side(self.kernel_a, "a", marks[0]))
        violations.extend(_check_side(self.kernel_b, "b", marks[1]))
        return violations

    def fingerprint(self) -> str:
        return product_fingerprint(
            state_fingerprint_incremental(self.kernel_a, OBSERVER),
            state_fingerprint_incremental(self.kernel_b, OBSERVER),
        )
