"""Model-checking verdicts: statistics, counterexamples, rendering.

An :class:`McReport` is the checker's complete answer: the verdict
(clean or violated), whether exploration was *exhaustive* (the frontier
drained with no depth or state-bound cut -- only then do the state
counts mean "all reachable states"), the statistics, and the minimal
counterexamples with their replayable choice paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.report import banner
from .product import McViolation
from .spec import McSpec


@dataclass
class McCounterexample:
    """A minimal violating path through the product transition system."""

    secret_a: int
    secret_b: int
    path: Tuple[Tuple, ...]
    depth: int
    violations: Tuple[McViolation, ...]

    @property
    def predicted_divergence_index(self) -> Optional[int]:
        """Observation-trace index the two-run harness should diverge at.

        Taken from the ``lo-trace`` violation when one fired on the
        violating transition; ``None`` for counterexamples caught
        earlier (projection/case-split/mechanism), where the concrete
        divergence index follows later in the run.
        """
        for violation in self.violations:
            if violation.kind == "lo-trace":
                return violation.divergence_index
        return None

    def to_json(self) -> dict:
        return {
            "secret_a": self.secret_a,
            "secret_b": self.secret_b,
            "path": [list(choice) for choice in self.path],
            "depth": self.depth,
            "predicted_divergence_index": self.predicted_divergence_index,
            "violations": [
                {
                    "kind": violation.kind,
                    "detail": violation.detail,
                    "side": violation.side,
                    "divergence_index": violation.divergence_index,
                }
                for violation in self.violations
            ],
        }


@dataclass
class McStats:
    """Exploration statistics, aggregated across all secret pairs."""

    states_visited: int = 0
    transitions: int = 0
    terminal_states: int = 0
    deduped: int = 0
    peak_frontier: int = 0
    max_depth: int = 0
    #: Choices dropped by partial-order reduction (symmetric IRQ lines).
    por_pruned: int = 0

    def to_json(self) -> dict:
        return {
            "states_visited": self.states_visited,
            "transitions": self.transitions,
            "terminal_states": self.terminal_states,
            "deduped": self.deduped,
            "peak_frontier": self.peak_frontier,
            "max_depth": self.max_depth,
            "por_pruned": self.por_pruned,
        }


@dataclass
class McReport:
    """The checker's complete verdict for one spec."""

    spec: McSpec
    passed: bool
    stop_reason: str  # "exhausted" | "violation" | "depth-bound" | "state-bound"
    stats: McStats = field(default_factory=McStats)
    counterexamples: List[McCounterexample] = field(default_factory=list)
    #: --profile per-phase wall-clock seconds; None unless profiled.
    profile: Optional[dict] = None

    @property
    def exhaustive(self) -> bool:
        """Every secret pair's frontier drained with nothing cut off."""
        return self.stop_reason == "exhausted"

    def minimal_counterexample(self) -> Optional[McCounterexample]:
        if not self.counterexamples:
            return None
        return min(self.counterexamples,
                   key=lambda cex: (cex.depth, cex.secret_a, cex.secret_b))

    def to_json(self) -> dict:
        return {
            "machine": self.spec.machine,
            "tp": self.spec.tp,
            "secrets": list(self.spec.secrets),
            "depth_bound": self.spec.depth,
            "max_states": self.spec.max_states,
            "irq_lines": list(self.spec.irq_lines),
            "irq_budget": self.spec.irq_budget,
            "passed": self.passed,
            "exhaustive": self.exhaustive,
            "stop_reason": self.stop_reason,
            "stats": self.stats.to_json(),
            "counterexamples": [cex.to_json() for cex in self.counterexamples],
            "profile": self.profile,
        }


def render_json(report: McReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


def _format_choice(choice: Tuple) -> str:
    if choice[0] == "irq":
        return f"irq({choice[1]})"
    return "step"


def render_text(report: McReport) -> str:
    spec = report.spec
    lines = [banner(
        f"MODEL CHECK  machine={spec.machine}  tp={spec.tp}  "
        f"secrets={list(spec.secrets)}"
    )]
    verdict = "PASS" if report.passed else "FAIL"
    if report.exhaustive:
        coverage = "exhaustive over the reachable state space"
    else:
        coverage = f"bounded ({report.stop_reason})"
    lines.append(f"verdict: {verdict}  [{coverage}]")
    stats = report.stats
    dedup_line = (
        f"states: {stats.states_visited} visited, "
        f"{stats.transitions} transitions, "
        f"{stats.terminal_states} terminal, "
        f"{stats.deduped} deduplicated"
    )
    if stats.por_pruned:
        dedup_line += f", {stats.por_pruned} POR-pruned"
    lines.append(dedup_line)
    lines.append(
        f"search: max depth {stats.max_depth} (bound {spec.depth}), "
        f"peak frontier {stats.peak_frontier}"
    )
    if report.profile is not None:
        total = sum(report.profile.values())
        breakdown = "  ".join(
            f"{phase} {seconds:.3f}s"
            for phase, seconds in report.profile.items()
        )
        lines.append(f"profile: {breakdown}  (phases {total:.3f}s)")
    if report.counterexamples:
        lines.append("")
        lines.append(
            f"{len(report.counterexamples)} minimal counterexample(s), "
            f"one per violating secret pair:"
        )
        for cex in report.counterexamples:
            lines.append(
                f"  secrets ({cex.secret_a}, {cex.secret_b})  depth {cex.depth}  "
                f"path: {' '.join(_format_choice(c) for c in cex.path)}"
            )
            for violation in cex.violations:
                lines.append(f"    - {violation}")
            predicted = cex.predicted_divergence_index
            if predicted is not None:
                lines.append(
                    f"    predicted Lo-trace divergence at index {predicted}"
                )
    return "\n".join(lines)
