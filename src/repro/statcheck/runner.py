"""Orchestration: walk paths, scope checkers, apply the baseline, render.

Scope is derived from dotted module names (walking up ``__init__.py``
packages), matching the ISSUE contract:

=====  =================================================  ==============
SC-1   modules with a ``hardware`` segment (R2 raw reads   footprint
       also cover kernel/core/campaign)
SC-2   ``hardware``/``kernel``/``core``/``campaign``       determinism
SC-3   ``hardware``/``core``                               registry
=====  =================================================  ==============

``all_scopes=True`` (used by fixture tests) applies every selected
checker to every analyzed module regardless of package name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Set

from ..core.report import format_obligation_block
from .baseline import Baseline, BaselineError
from .determinism import check_determinism
from .findings import CHECKERS, Finding, to_obligation_results
from .footprint import check_footprint
from .registry_lint import check_registry
from .taint import check_taint
from .universe import Universe, load_universe

#: Default baseline filename, discovered upward from cwd / lint targets.
BASELINE_FILENAME = "statcheck.baseline.json"

_SCOPE_SEGMENTS = {
    "SC-1": {"hardware"},
    # The model checker is in SC-2 scope: fingerprints and exploration
    # order must repeat from run to run, or state counts, verdicts and
    # counterexample paths would differ between runs of the same spec.
    # So is the synth search: an unseeded RNG anywhere in the evolution
    # loop silently breaks same-seed reproducibility of discovered
    # attacks.  And so is the
    # analysis package: ``capacity.mutual_information_from_samples`` is
    # the single estimator behind synth fitness *and* campaign reports,
    # so nondeterminism there breaks same-seed reproducibility of every
    # reported number.
    "SC-2": {"hardware", "kernel", "core", "campaign", "mc", "synth",
             "analysis"},
    # Synth is in SC-3 scope too: genome primitives observe hardware
    # through timed accesses, and any state element a genome-built
    # victim or spy constructs must be registered and enumerated.
    # Campaign rides along: the distributed service (campaign.service)
    # replays trials on remote workers, so any state element it were to
    # construct out-of-registry would desync fleet and pool runs.
    "SC-3": {"hardware", "core", "synth", "campaign"},
    # SC-4 secret-taint: everywhere secrets are handled -- victims and
    # trojans encode them, the kernel switches between their domains,
    # and core/ carries them through the secret-swap experiments.
    "SC-4": {"kernel", "hardware", "core", "attacks", "synth"},
}


class StatcheckError(Exception):
    """Internal analyzer error: the CLI maps this to exit code 2."""


@dataclass
class LintReport:
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    stale_suppressions: List[str] = field(default_factory=list)
    checkers_run: List[str] = field(default_factory=list)
    files_analyzed: int = 0
    baseline_path: str = ""
    #: The applied baseline object, exposed so callers (``--prune-
    #: baseline``) can rewrite the file with staleness already computed.
    baseline: Optional[Baseline] = None

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1


def collect_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise StatcheckError(f"no such path: {raw}")
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise StatcheckError(f"not a python file or directory: {raw}")
    if not files:
        raise StatcheckError("no python files to analyze")
    return files


def discover_baseline(paths: Iterable[str]) -> Optional[Path]:
    """Find ``statcheck.baseline.json`` near cwd or the lint targets."""
    candidates = [Path.cwd()]
    for raw in paths:
        candidates.extend(Path(raw).resolve().parents)
    for directory in candidates:
        candidate = directory / BASELINE_FILENAME
        if candidate.exists():
            return candidate
    return None


def _scoped(universe: Universe, checker: str, all_scopes: bool) -> Set[str]:
    if all_scopes:
        return {module.modname for module in universe.modules}
    segments = _SCOPE_SEGMENTS[checker]
    return {
        module.modname for module in universe.modules
        if module.segments & segments
    }


def run_lint(
    paths: Iterable[str],
    baseline_path: Optional[str] = None,
    checkers: Optional[Iterable[str]] = None,
    all_scopes: bool = False,
    jobs: int = 1,
) -> LintReport:
    """Run the selected checkers; raises ``BaselineError``/
    ``StatcheckError``/``SyntaxError`` for exit-code-2 conditions."""
    paths = list(paths)
    selected = sorted(checkers) if checkers else sorted(CHECKERS)
    for checker in selected:
        if checker not in CHECKERS:
            raise StatcheckError(
                f"unknown checker {checker!r}; known: {sorted(CHECKERS)}"
            )

    if baseline_path is not None:
        baseline = Baseline.load(Path(baseline_path))
    else:
        discovered = discover_baseline(paths)
        baseline = (
            Baseline.load(discovered) if discovered else Baseline.empty()
        )

    files = collect_files(paths)
    universe = load_universe(files, jobs=jobs)

    findings: List[Finding] = []
    if "SC-1" in selected:
        findings.extend(check_footprint(
            universe,
            scope_modules=_scoped(universe, "SC-1", all_scopes),
            raw_access_modules=_scoped(universe, "SC-2", all_scopes),
        ))
    if "SC-2" in selected:
        findings.extend(check_determinism(
            universe, scope_modules=_scoped(universe, "SC-2", all_scopes)
        ))
    if "SC-3" in selected:
        findings.extend(check_registry(
            universe, scope_modules=_scoped(universe, "SC-3", all_scopes)
        ))
    if "SC-4" in selected:
        findings.extend(check_taint(
            universe, scope_modules=_scoped(universe, "SC-4", all_scopes)
        ))

    kept, suppressed = baseline.apply(findings)
    kept.sort(key=lambda f: (f.path, f.lineno, f.checker, f.rule))
    return LintReport(
        findings=kept,
        suppressed=suppressed,
        stale_suppressions=baseline.stale_keys(),
        checkers_run=selected,
        files_analyzed=len(files),
        baseline_path=baseline.path,
        baseline=baseline,
    )


def render_text(report: LintReport) -> str:
    results = to_obligation_results(report.findings, report.checkers_run)
    notes = [
        f"{report.files_analyzed} file(s) analyzed; "
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed by baseline"
        + (f" ({report.baseline_path})" if report.baseline_path else "")
    ]
    for key in report.stale_suppressions:
        notes.append(f"stale suppression (matched nothing): {key}")
    return format_obligation_block(
        "STATIC CONFORMANCE REPORT", results, notes=notes
    )


def render_json(report: LintReport) -> str:
    payload = {
        "clean": report.clean,
        "checkers": report.checkers_run,
        "files_analyzed": report.files_analyzed,
        "findings": [f.to_json() for f in report.findings],
        "suppressed": [f.to_json() for f in report.suppressed],
        "stale_suppressions": report.stale_suppressions,
        "summary": {
            checker: sum(1 for f in report.findings if f.checker == checker)
            for checker in report.checkers_run
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
