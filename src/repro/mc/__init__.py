"""Bounded explicit-state model checking of noninterference.

The checker exhaustively explores the reachable product state space of
a small machine (the ``micro`` and ``tiny`` presets): product states
are pairs of systems differing only in Hi's secret, stepped in lockstep
through the real kernel/hardware transition function, with Lo-visible
equivalence and the Sect. 5.2 mechanism invariants verified on every
transition.  Violations unwind into minimal, replayable counterexamples
that the concrete two-run harness (``core/noninterference.py``)
confirms independently.
"""

from .explorer import McOptions, ModelChecker
from .fingerprint import (
    canonical_state,
    product_fingerprint,
    state_fingerprint,
    state_fingerprint_incremental,
)
from .product import McViolation, ProductState
from .replay import confirm_counterexample, replay_build_and_run
from .report import McCounterexample, McReport, McStats, render_json, render_text
from .spec import McSpec, build_system, run_to_terminal

__all__ = [
    "McCounterexample",
    "McOptions",
    "McReport",
    "McSpec",
    "McStats",
    "McViolation",
    "ModelChecker",
    "ProductState",
    "build_system",
    "canonical_state",
    "confirm_counterexample",
    "product_fingerprint",
    "render_json",
    "render_text",
    "replay_build_and_run",
    "run_to_terminal",
    "state_fingerprint",
    "state_fingerprint_incremental",
]
