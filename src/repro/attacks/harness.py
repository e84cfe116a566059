"""Shared experiment harness for channel measurements.

Every attack experiment follows the same shape: build a complete system
(machine + kernel + domains + programs) for one input symbol, run it,
extract the spy's observations, repeat over a symbol alphabet, and
quantify the resulting (symbol, observation) samples as a channel.  The
harness owns that loop: :func:`run_symbol_sweep` is the only code that
runs an attack system.  An attack provides programs and a *builder*,
which adds its domains, threads, endpoints and schedule to a fresh,
unrun kernel and never runs it -- the same boot-only contract
:func:`repro.core.noninterference.sweep_secrets` and the prover take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from ..analysis import (
    ChannelMatrix,
    capacity_bits,
    decode_accuracy,
    from_samples,
    min_leakage,
    mutual_information_from_samples,
)
from ..hardware.machine import Machine
from ..kernel.kernel import Kernel
from ..kernel.timeprotect import TimeProtectionConfig

#: ``build(kernel, symbol, results) -> horizon``: add an attack's system
#: transmitting ``symbol`` to a fresh, unrun ``kernel``, with Lo's spy
#: appending its per-round observations to ``results``; returns the
#: ``max_cycles`` horizon to run it to.
Builder = Callable[[Kernel, Hashable, List[Hashable]], int]


@dataclass
class ChannelResult:
    """Measured samples plus derived channel statistics."""

    name: str
    tp_label: str
    samples: List[Tuple[Hashable, Hashable]]
    metadata: dict = field(default_factory=dict)

    def matrix(self) -> ChannelMatrix:
        return from_samples(self.samples)

    def capacity_bits(self) -> float:
        return capacity_bits(self.matrix())

    def mutual_information_bits(self) -> float:
        # Same sample-level estimator the analysis layer and the synth
        # env fitness use -- one MI implementation package-wide.
        return mutual_information_from_samples(self.samples)

    def min_leakage_bits(self) -> float:
        return min_leakage(self.matrix())

    def decode_accuracy(self) -> float:
        return decode_accuracy(self.samples)

    def n_symbols(self) -> int:
        return len({symbol for symbol, _obs in self.samples})

    def chance_accuracy(self) -> float:
        n = self.n_symbols()
        return 1.0 / n if n else 0.0

    def stats(self) -> dict:
        """All derived channel statistics as one plain dict.

        Plain data only (floats/ints), so the result pickles across
        process boundaries and serialises to JSON — this is what the
        campaign subsystem stores per trial.
        """
        return {
            "capacity_bits": self.capacity_bits(),
            "mutual_information_bits": self.mutual_information_bits(),
            "min_leakage_bits": self.min_leakage_bits(),
            "decode_accuracy": self.decode_accuracy(),
            "chance_accuracy": self.chance_accuracy(),
            "n_symbols": self.n_symbols(),
            "n_samples": len(self.samples),
        }

    def to_record(self, include_samples: bool = False) -> dict:
        """A JSON-ready record of this measurement.

        Samples are omitted by default (they dominate the size and the
        derived statistics already summarise them); pass
        ``include_samples=True`` to keep the raw (symbol, observation)
        pairs.
        """
        record = {
            "name": self.name,
            "tp_label": self.tp_label,
            "stats": self.stats(),
            "metadata": dict(self.metadata),
        }
        if include_samples:
            record["samples"] = [list(sample) for sample in self.samples]
        return record

    def summary(self) -> str:
        return (
            f"{self.name} [{self.tp_label}]: "
            f"capacity={self.capacity_bits():.3f} bits/symbol, "
            f"decode accuracy={self.decode_accuracy():.2f} "
            f"(chance {self.chance_accuracy():.2f}), "
            f"{len(self.samples)} samples"
        )


def _tp_label(tp: TimeProtectionConfig) -> str:
    """The report label of a TP config: its enabled mechanisms."""
    mechanisms = tp.enabled_mechanisms()
    return "TP:" + (",".join(mechanisms) if mechanisms else "none")


def run_symbol_sweep(
    name: str,
    tp: TimeProtectionConfig,
    machine_factory: Callable[[], Machine],
    build: Builder,
    symbols: Sequence[Hashable],
    rounds: int = 1,
    warmup: int = 0,
    quantum: Optional[int] = None,
    on_kernel: Optional[Callable[[Kernel], None]] = None,
    metadata: Optional[dict] = None,
) -> ChannelResult:
    """Run ``build``'s system once per symbol; pool ``rounds`` sweep rounds.

    Each run boots ``Kernel(machine_factory(), tp)``, hands it to
    ``build`` and runs it to the returned horizon.  ``on_kernel`` then
    sees the finished kernel (bench step accounting, golden-trace
    capture).  The spy's observations after the first ``warmup`` (all
    of them when no more remain) become samples, divided by ``quantum``
    when one is given, so residual jitter does not register as capacity.

    A sweep round is one pass over ``symbols``.  The samples are the
    first round's, repeated ``rounds`` times, round after round: a later
    round would boot a fresh machine and the same system for the same
    symbol, and elapsed time is a deterministic function of that state
    (Sect. 5.1), so it would repeat the first one exactly.  So each
    symbol's system runs once, and ``on_kernel`` sees one kernel per
    symbol.
    """
    first_round: List[Tuple[Hashable, Hashable]] = []
    for symbol in symbols:
        results: List[Hashable] = []
        kernel = Kernel(machine_factory(), tp)
        kernel.run(max_cycles=build(kernel, symbol, results))
        if on_kernel is not None:
            on_kernel(kernel)
        kept = results[warmup:] if len(results) > warmup else results
        for observation in kept:
            if quantum is not None:
                observation //= quantum
            first_round.append((symbol, observation))
    samples = first_round * rounds
    if not samples:
        raise RuntimeError(f"experiment {name!r} produced no samples")
    return ChannelResult(
        name=name,
        tp_label=_tp_label(tp),
        samples=samples,
        metadata=dict(metadata or {}),
    )
