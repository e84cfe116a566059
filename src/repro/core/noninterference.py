"""Two-run noninterference experiments (secret swap).

The property the paper ultimately wants to prove (Sect. 5.2) is that
"there is no way in which the execution of one domain can affect the
execution timing of another domain" -- a noninterference statement in the
style of Murray et al. [2012], with elapsed time reflected as a value in
the state so that "timing-channel reasoning is reduced to storage-channel
reasoning".

The executable counterpart is the classic two-run formulation: build the
*entire system* twice, identical in every respect except the Hi domain's
secret (or the Trojan's input), run both, and compare the Lo domain's
complete observation trace -- every architectural value Lo ever reads,
including every timestamp.  If any observation differs, we have a
concrete witness of interference (and, via the channel analysis in
``repro.analysis``, usually a measurable channel); if the traces are
bit-identical for all secret pairs tried, the unwinding-style evidence
of :mod:`repro.core.unwinding` explains *why*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..hardware.state import Evidence
from ..kernel.kernel import Kernel

#: What :func:`compare_finished_runs` reads beyond the observation
#: traces: the switch snapshots behind the Lo-visible hardware compare.
SWAP_EVIDENCE = Evidence(switches=True)


@dataclass
class Divergence:
    """First point at which two Lo traces differ."""

    index: int
    observation_a: Optional[Tuple]
    observation_b: Optional[Tuple]

    def __str__(self) -> str:
        return (
            f"first divergence at observation #{self.index}: "
            f"{self.observation_a!r} vs {self.observation_b!r}"
        )


@dataclass
class NonInterferenceResult:
    """Outcome of one secret-swap experiment."""

    observer_domain: str
    secret_a: Any
    secret_b: Any
    holds: bool
    trace_length_a: int
    trace_length_b: int
    divergence: Optional[Divergence] = None
    hardware_divergences: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "HOLDS" if self.holds else "VIOLATED"
        base = (
            f"noninterference({self.observer_domain}) {status} for secrets "
            f"{self.secret_a!r} vs {self.secret_b!r} "
            f"({self.trace_length_a}/{self.trace_length_b} observations)"
        )
        if self.divergence is not None:
            base += f"\n  {self.divergence}"
        for item in self.hardware_divergences[:3]:
            base += f"\n  hw: {item}"
        return base


def trace_divergence(
    trace_a: Sequence[Tuple], trace_b: Sequence[Tuple]
) -> Optional[Divergence]:
    """First index where two observation traces differ, if any."""
    for index, (obs_a, obs_b) in enumerate(zip(trace_a, trace_b)):
        if obs_a != obs_b:
            return Divergence(index=index, observation_a=obs_a, observation_b=obs_b)
    if len(trace_a) != len(trace_b):
        shorter = min(len(trace_a), len(trace_b))
        longer_trace = trace_a if len(trace_a) > len(trace_b) else trace_b
        return Divergence(
            index=shorter,
            observation_a=trace_a[shorter] if shorter < len(trace_a) else None,
            observation_b=trace_b[shorter] if shorter < len(trace_b) else None,
        ) if longer_trace else None
    return None


def _lo_switch_evidence(kernel: Kernel, observer: str) -> List[Tuple]:
    """Lo-relevant snapshots at each switch into the observer domain.

    The LLC projection follows the active partitioning mechanism: the
    observer's page colours under colouring, its way-quota lines (plus
    the normalised kernel share) under CAT-style way partitioning.
    """
    evidence = []
    observer_domain = kernel.domains.get(observer)
    observer_colours = (
        sorted(observer_domain.colours) if observer_domain is not None else []
    )
    way_partitioned = kernel.tp.way_partitioning
    for record in kernel.switch_records:
        if record.to_domain != observer:
            continue
        if way_partitioned:
            lo_llc = tuple(
                (owner, record.llc_owner_fingerprints.get(owner, ()))
                for owner in (observer, "@kernel")
            )
        else:
            lo_llc = tuple(
                (colour, record.llc_colour_fingerprints.get(colour, ()))
                for colour in observer_colours
            )
        evidence.append(
            (record.released_at, tuple(sorted(record.post_flush_fingerprints)), lo_llc)
        )
    return evidence


def compare_finished_runs(
    kernel_a: Kernel,
    kernel_b: Kernel,
    secret_a: Any,
    secret_b: Any,
    observer_domain: str,
    compare_hardware: bool = True,
) -> NonInterferenceResult:
    """Compare Lo's world across two already-run kernels.

    The comparison half of :func:`secret_swap_experiment`, factored out
    so :func:`sweep_secrets` (which reuses one baseline run for every
    pair) and the two-run path judge divergence with the same code.
    ``compare_hardware`` reads switch snapshots (:data:`SWAP_EVIDENCE`),
    which both runs must have declared.
    """
    if compare_hardware:
        for kernel in (kernel_a, kernel_b):
            kernel.require_evidence(SWAP_EVIDENCE, "compare_finished_runs")
    trace_a = kernel_a.observation_trace(observer_domain)
    trace_b = kernel_b.observation_trace(observer_domain)
    divergence = trace_divergence(trace_a, trace_b)
    hardware_divergences: List[str] = []
    if compare_hardware:
        evidence_a = _lo_switch_evidence(kernel_a, observer_domain)
        evidence_b = _lo_switch_evidence(kernel_b, observer_domain)
        for index, (entry_a, entry_b) in enumerate(zip(evidence_a, evidence_b)):
            if entry_a != entry_b:
                hardware_divergences.append(
                    f"switch-into-{observer_domain} #{index}: Lo-visible hardware "
                    f"state differs (release {entry_a[0]} vs {entry_b[0]})"
                )
    return NonInterferenceResult(
        observer_domain=observer_domain,
        secret_a=secret_a,
        secret_b=secret_b,
        holds=divergence is None and not hardware_divergences,
        trace_length_a=len(trace_a),
        trace_length_b=len(trace_b),
        divergence=divergence,
        hardware_divergences=hardware_divergences,
    )


def secret_swap_experiment(
    build_and_run: Callable[[Any], Kernel],
    secret_a: Any,
    secret_b: Any,
    observer_domain: str,
    compare_hardware: bool = True,
) -> NonInterferenceResult:
    """Run the system under two secrets and compare Lo's world.

    ``build_and_run(secret)`` must construct the *whole* system from
    scratch (machine, kernel, domains, threads, schedule), declare
    :data:`SWAP_EVIDENCE` when ``compare_hardware`` is on, run it, and
    return the kernel.  Determinism of the builder (fixed seeds, fixed
    creation order) is the caller's responsibility; everything in the
    simulator itself is deterministic.
    """
    kernel_a = build_and_run(secret_a)
    kernel_b = build_and_run(secret_b)
    return compare_finished_runs(
        kernel_a, kernel_b, secret_a, secret_b, observer_domain,
        compare_hardware=compare_hardware,
    )


def _run_compared(
    kernel: Kernel,
    max_cycles: int,
    on_kernel: Optional[Callable[[Kernel], None]],
) -> Kernel:
    """Run a booted system recording only what the comparison reads."""
    kernel.declare(SWAP_EVIDENCE)
    kernel.run(max_cycles=max_cycles)
    if on_kernel is not None:
        on_kernel(kernel)
    return kernel


def sweep_secrets(
    build: Callable[[Any], Kernel],
    secrets: Sequence[Any],
    observer_domain: str,
    max_cycles: int,
    baseline: Optional[Kernel] = None,
    on_kernel: Optional[Callable[[Kernel], None]] = None,
) -> List[NonInterferenceResult]:
    """Secret-swap every ``secrets[1:]`` entry against ``secrets[0]``.

    ``build(secret)`` constructs the whole system exactly like
    :func:`secret_swap_experiment`'s builder but must NOT run it.  The
    simulator is deterministic, so every distinct secret is built and
    run exactly once: ``secrets[0]`` once (not at all when ``baseline``
    is its already-run kernel), each other secret once, and a repeated
    secret reuses its first result.  At most the baseline and one other
    kernel are alive at a time.  Results follow ``secrets[1:]`` order,
    repeats included.  ``on_kernel`` sees each kernel the sweep runs.
    """
    if len(secrets) < 2:
        raise ValueError("need at least two secrets to compare")
    reference = secrets[0]
    if baseline is None:
        baseline = _run_compared(build(reference), max_cycles, on_kernel)
    by_secret: Dict[Any, NonInterferenceResult] = {}
    for other in secrets[1:]:
        if other not in by_secret:
            by_secret[other] = compare_finished_runs(
                baseline,
                baseline if other == reference
                else _run_compared(build(other), max_cycles, on_kernel),
                reference, other, observer_domain,
            )
    return [by_secret[other] for other in secrets[1:]]
