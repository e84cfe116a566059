"""Human-readable rendering of proof and conformance reports.

The obligation-list helpers are shared between the runtime proof report
and the static conformance report (``repro.statcheck``), so both read
the same way: a banner, ``XX-n [PASS|FAIL] title`` lines, indented
counterexamples.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .proof import ProofReport

_RULE = "=" * 72


def banner(title: str) -> str:
    return "\n".join([_RULE, title, _RULE])


def indent_block(item: object, indent: str = "  ") -> str:
    """Render ``item`` (via ``str``) indented one level, multi-line safe."""
    return indent + str(item).replace("\n", "\n" + indent)


def format_obligation_block(
    title: str,
    results: Sequence[object],
    notes: Iterable[str] = (),
) -> str:
    """A banner, one indented entry per obligation result, then notes."""
    lines = [banner(title)]
    for result in results:
        lines.append(indent_block(result))
    for note in notes:
        lines.append(f"  ! {note}")
    lines.append(_RULE)
    return "\n".join(lines)


def format_report(report: ProofReport, verbose: bool = False) -> str:
    """Render a :class:`ProofReport` as a plain-text document."""
    lines = []
    verdict = "THEOREM HOLDS" if report.holds else "THEOREM FAILS"
    lines.append(banner("TIME PROTECTION PROOF REPORT"))
    lines.append(f"Theorem: {report.theorem}")
    lines.append(f"Verdict: {verdict}")
    lines.append("")
    lines.append("Abstract hardware model:")
    for key in ("partitionable", "flushable", "unmanaged"):
        names = report.model_summary.get(key, [])
        lines.append(f"  {key:14s} ({len(names)}): {', '.join(names) or '-'}")
    lines.append("")
    lines.append("Proof obligations:")
    for obligation in report.obligations:
        lines.append(indent_block(obligation))
    lines.append("")
    lines.append("Case split (Sect. 5.2):")
    lines.append(indent_block(report.case_split))
    if report.unwinding is not None:
        lines.append("")
        lines.append("Unwinding conditions:")
        lines.append(indent_block(report.unwinding))
    lines.append("")
    lines.append("Noninterference (two-run secret swap):")
    for result in report.noninterference:
        lines.append(indent_block(result))
    lines.append("")
    lines.append("Standing assumptions:")
    for assumption in report.assumptions:
        lines.append(f"  * {assumption}")
    for note in report.notes:
        lines.append(f"  ! {note}")
    if verbose and not report.holds:
        lines.append("")
        lines.append("Counterexamples:")
        for example in report.counterexamples():
            lines.append(f"  - {example}")
    lines.append(_RULE)
    return "\n".join(lines)


def proof_report_to_json(report: ProofReport) -> dict:
    """A :class:`ProofReport` as one JSON-serializable document.

    Everything in the text rendering is here, plus the machine-readable
    detail the text elides (full violation lists, per-case step counts),
    so downstream tooling never needs to parse the banner format.
    """
    case_split = {
        "passed": report.case_split.passed,
        "total_steps": report.case_split.total_steps,
        "cases": [
            {
                "case": result.case,
                "description": result.description,
                "steps": result.steps,
                "passed": result.passed,
                "failures": list(result.failures),
            }
            for result in report.case_split.results
        ],
    }
    unwinding = None
    if report.unwinding is not None:
        unwinding = {
            "observer_domain": report.unwinding.observer_domain,
            "passed": report.unwinding.passed,
            "switches_into_observer": report.unwinding.switches_into_observer,
            "failures": list(report.unwinding.failures),
        }
    return {
        "theorem": report.theorem,
        "holds": report.holds,
        "model_summary": report.model_summary,
        "obligations": [
            {
                "obligation_id": obligation.obligation_id,
                "title": obligation.title,
                "passed": obligation.passed,
                "violations": list(obligation.violations),
                "details": obligation.details,
            }
            for obligation in report.obligations
        ],
        "case_split": case_split,
        "unwinding": unwinding,
        "noninterference": [
            {
                "observer_domain": result.observer_domain,
                "secret_a": result.secret_a,
                "secret_b": result.secret_b,
                "holds": result.holds,
                "trace_length_a": result.trace_length_a,
                "trace_length_b": result.trace_length_b,
                "divergence": None if result.divergence is None else {
                    "index": result.divergence.index,
                    "observation_a": result.divergence.observation_a,
                    "observation_b": result.divergence.observation_b,
                },
                "hardware_divergences": list(result.hardware_divergences),
            }
            for result in report.noninterference
        ],
        "assumptions": list(report.assumptions),
        "notes": list(report.notes),
        "counterexamples": report.counterexamples(),
    }


def format_report_json(report: ProofReport) -> str:
    """Stable JSON rendering of a :class:`ProofReport`."""
    return json.dumps(proof_report_to_json(report), indent=2, sort_keys=True)
