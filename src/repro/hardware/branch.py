"""Branch-prediction state: gshare direction predictor, BTB, return stack.

Branch predictors are core-local, history-accumulating structures -- a
classic flushable resource (Sect. 4.1) and the substrate of the Spectre
family the paper's introduction cites.  Direction prediction uses a
gshare-style table of 2-bit saturating counters indexed by
``pc xor global_history``; target prediction uses a small BTB.  A
mispredicted branch costs a fixed penalty, so predictor state left behind
by one domain measurably perturbs the next domain's timing unless the
predictor is flushed on domain switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from .state import (
    FlushResult,
    Instrumentation,
    Scope,
    StateCategory,
    StateElement,
    TouchKind,
    copy_attributes,
)


@dataclass
class PredictResult:
    predicted_taken: bool
    predicted_target: Optional[int]
    mispredicted: bool


class BranchPredictor(StateElement):
    """gshare + BTB + global history register."""

    def __init__(
        self,
        name: str,
        table_bits: int = 10,
        btb_entries: int = 64,
        history_bits: int = 8,
        instrumentation: Optional[Instrumentation] = None,
        flush_latency_cycles: int = 10,
    ):
        super().__init__(
            name, StateCategory.FLUSHABLE, Scope.CORE_LOCAL, instrumentation
        )
        self.table_size = 1 << table_bits
        self.btb_entries = btb_entries
        self.history_mask = (1 << history_bits) - 1
        self.flush_latency_cycles = flush_latency_cycles
        self._counters: Dict[int, int] = {}  # index -> 2-bit counter (0..3)
        self._btb: Dict[int, int] = {}  # pc -> target
        self._btb_order: list = []  # FIFO replacement for the BTB
        self._history = 0

    def _table_index(self, pc: int) -> int:
        return (pc ^ self._history) % self.table_size

    def predict_and_update(self, pc: int, taken: bool, target: int) -> PredictResult:
        """Predict branch at ``pc``, then train on the actual outcome."""
        self._fp_version += 1
        index = self._table_index(pc)
        self._touch(index, TouchKind.PREDICT)
        counter = self._counters.get(index, 1)  # weakly not-taken reset state
        predicted_taken = counter >= 2
        predicted_target = self._btb.get(pc)
        mispredicted = predicted_taken != taken or (
            taken and predicted_target != target
        )
        # Train the direction counter.
        if taken:
            counter = min(3, counter + 1)
        else:
            counter = max(0, counter - 1)
        self._counters[index] = counter
        self._touch(index, TouchKind.UPDATE)
        # Train the BTB for taken branches.
        if taken:
            if pc not in self._btb and len(self._btb) >= self.btb_entries:
                victim = self._btb_order.pop(0)
                del self._btb[victim]
            if pc not in self._btb:
                self._btb_order.append(pc)
            self._btb[pc] = target
        # Shift the global history register.
        self._history = ((self._history << 1) | (1 if taken else 0)) & self.history_mask
        return PredictResult(
            predicted_taken=predicted_taken,
            predicted_target=predicted_target,
            mispredicted=mispredicted,
        )

    # ------------------------------------------------------------------
    # StateElement protocol
    # ------------------------------------------------------------------

    def flush(self) -> FlushResult:
        self._counters.clear()
        self._btb.clear()
        self._btb_order.clear()
        self._history = 0
        self._fp_version += 1
        return FlushResult(cycles=self.flush_latency_cycles)

    def clone_for_mc(self, instrumentation) -> "BranchPredictor":
        """Independent copy, whole but for the counter, BTB and BTB-order
        containers."""
        other = copy_attributes(self)
        other.instr = instrumentation
        other._counters = dict(self._counters)
        other._btb = dict(self._btb)
        other._btb_order = list(self._btb_order)
        return other

    def fingerprint(self) -> Hashable:
        # BTB entries in FIFO order, oldest (the next victim) first:
        # ``_btb`` keeps insertion order, which is ``_btb_order``.
        return (
            tuple(sorted(self._counters.items())),
            tuple(self._btb.items()),
            self._history,
        )

    def reset_fingerprint(self) -> Hashable:
        return ((), (), 0)
