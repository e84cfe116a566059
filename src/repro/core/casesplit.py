"""The executable case split of Sect. 5.2.

The paper's proof sketch fixes a domain Lo and case-splits each of its
execution steps:

* **Case 1** -- an ordinary user-mode instruction: its latency reads the
  I-cache set named by the pc and the D-cache state of the addresses it
  accesses, all of which lie inside the current domain's partition (or in
  flushed, core-local state).
* **Case 2a** -- a trap (syscall/exception): adds the kernel text (the
  domain's own clone) and global kernel data (deterministically accessed,
  re-normalised at switches).
* **Case 2b** -- the preemption-timer domain switch: covered by the
  constant-time switch property.

:func:`audit` reads a run's case log, where the kernel already filed
every step under its case, and discharges each case's condition: Cases
1 and 2a by :func:`~repro.core.timefn.check_confinement` over the log's
``(case, context, footprint)`` entries as they are, Case 2b from the
switch records.  The output is the per-case accounting the paper's
proof would generate as lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..kernel.kernel import Kernel
from .timefn import CASE_SPLIT_EVIDENCE, check_confinement


@dataclass
class CaseResult:
    case: str
    description: str
    steps: int
    passed: bool
    failures: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = f"Case {self.case} [{status}] {self.description}: {self.steps} steps"
        if self.failures:
            head += "\n" + "\n".join(f"    - {f}" for f in self.failures[:5])
        return head


@dataclass
class CaseSplitAudit:
    """The full Sect. 5.2 case split for one run."""

    results: List[CaseResult]
    total_steps: int

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def result_for(self, case: str) -> CaseResult:
        for result in self.results:
            if result.case == case:
                return result
        raise KeyError(f"no case {case!r}")

    def __str__(self) -> str:
        lines = [f"case split over {self.total_steps} steps:"]
        lines += [str(result) for result in self.results]
        return "\n".join(lines)


def audit(kernel: Kernel, observer: Optional[str] = None) -> CaseSplitAudit:
    """Check every captured step of an (already-run) kernel, case by case.

    The run must have declared the case log with footprints
    (:data:`~repro.core.timefn.CASE_SPLIT_EVIDENCE`).  ``observer`` restricts
    Cases 1/2a to one domain's steps (the paper fixes Lo "without loss
    of generality"); by default all domains' steps are audited, which is
    the stronger statement.
    """
    kernel.require_evidence(CASE_SPLIT_EVIDENCE, "the case split")
    log = kernel.case_log
    if observer is not None:
        log = [
            entry for entry in log if entry[0] == "2b" or entry[1] == observer
        ]

    results: List[CaseResult] = []
    for case, description in (
        ("1", "user instruction latency confined to own partition"),
        ("2a", "trap latency confined to own partition + kernel-shared state"),
    ):
        entries = [entry for entry in log if entry[0] == case]
        report = check_confinement(kernel, entries)
        results.append(
            CaseResult(
                case=case,
                description=description,
                steps=len(entries),
                passed=report.confined,
                failures=report.violations,
            )
        )

    # Case 2b: the constant-time switch property, from the switch records.
    switch_failures: List[str] = []
    switch_count = 0
    for number, record in enumerate(kernel.switch_records):
        switch_count += 1
        if record.pad_target is None:
            switch_failures.append(f"switch #{number}: unpadded")
        elif record.released_at != record.pad_target or record.overrun:
            switch_failures.append(
                f"switch #{number}: not constant-time "
                f"(released {record.released_at}, target {record.pad_target})"
            )
    results.append(
        CaseResult(
            case="2b",
            description="domain switch takes a constant, padded time",
            steps=switch_count,
            passed=not switch_failures,
            failures=switch_failures,
        )
    )
    return CaseSplitAudit(results=results, total_steps=len(log))
