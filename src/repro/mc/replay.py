"""Counterexample replay through the concrete two-run harness.

A counterexample is only evidence if it survives outside the checker:
the choice path is replayed as a deterministic builder-and-runner and
fed to ``core/noninterference.py``'s :func:`secret_swap_experiment`,
which must report a concrete :class:`Divergence` in Lo's observation
trace.  For counterexamples whose violating transition was a Lo-trace
divergence, the concrete divergence must land at the predicted index;
violations caught earlier (projection, case split, mechanism
invariants) predict no index, only that a divergence follows once the
run completes.
"""

from __future__ import annotations

from typing import Callable, Tuple

from ..core.noninterference import (
    SWAP_EVIDENCE,
    NonInterferenceResult,
    secret_swap_experiment,
)
from ..kernel.kernel import Kernel
from .report import McCounterexample
from .spec import McSpec, apply_choice, build_system


def replay_build_and_run(
    spec: McSpec, path: Tuple[Tuple, ...],
) -> Callable[[int], Kernel]:
    """A ``build_and_run(secret)`` that replays ``path`` then runs out.

    The returned builder reconstructs one side of the product from
    scratch, applies the counterexample's choices (including any IRQ
    injections, at the same points), then runs the system until every
    thread has finished, the horizon or 5,000 more steps -- exactly what
    the two-run harness expects, with the checker's nondeterminism
    resolved identically on both runs.
    """

    def build_and_run(secret: int) -> Kernel:
        kernel = build_system(spec, secret)
        kernel.declare(SWAP_EVIDENCE)
        for choice in path:
            apply_choice(kernel, choice)
        kernel.run(max_cycles=spec.max_cycles, max_steps=5000)
        return kernel

    return build_and_run


def confirm_counterexample(
    spec: McSpec, counterexample: McCounterexample,
) -> NonInterferenceResult:
    """Replay a counterexample; the result must show a real divergence."""
    return secret_swap_experiment(
        replay_build_and_run(spec, counterexample.path),
        counterexample.secret_a,
        counterexample.secret_b,
        observer_domain="Lo",
        compare_hardware=False,
    )
