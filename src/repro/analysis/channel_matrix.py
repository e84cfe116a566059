"""Channel matrices from (input, observation) samples.

Cock et al. [2014] quantify timing channels on seL4 by sampling a channel
matrix -- the conditional distribution of the observable output (a
latency, an arrival time) for each input symbol (the secret) -- and
computing capacity measures over it.  This module builds such matrices
from raw experiment samples; each experiment quantises its own
observations (the harness's ``quantum``) before they get here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np


@dataclass
class ChannelMatrix:
    """Row-stochastic matrix: P[observation | input symbol].

    Attributes:
        inputs: row labels (the secret symbols).
        outputs: column labels (the observation bins).
        matrix: shape (len(inputs), len(outputs)), rows summing to 1.
        counts: raw sample counts behind the probabilities.
    """

    inputs: List[Hashable]
    outputs: List[Hashable]
    matrix: np.ndarray
    counts: np.ndarray

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def row(self, symbol: Hashable) -> np.ndarray:
        return self.matrix[self.inputs.index(symbol)]

    def total_samples(self) -> int:
        return int(self.counts.sum())

    def is_degenerate(self) -> bool:
        """True iff all rows are identical: a channel carrying nothing."""
        if self.n_inputs < 2:
            return True
        return bool(np.allclose(self.matrix, self.matrix[0:1, :]))


def from_samples(
    samples: Sequence[Tuple[Hashable, Hashable]]
) -> ChannelMatrix:
    """Build a channel matrix from (input symbol, observation) pairs."""
    if not samples:
        raise ValueError("no samples")
    inputs = sorted({symbol for symbol, _obs in samples}, key=repr)
    outputs = sorted({obs for _symbol, obs in samples}, key=repr)
    input_index = {symbol: i for i, symbol in enumerate(inputs)}
    output_index = {obs: j for j, obs in enumerate(outputs)}
    counts = np.zeros((len(inputs), len(outputs)), dtype=np.int64)
    for symbol, obs in samples:
        counts[input_index[symbol], output_index[obs]] += 1
    row_sums = counts.sum(axis=1, keepdims=True)
    if (row_sums == 0).any():
        raise ValueError("every input symbol needs at least one sample")
    matrix = counts / row_sums
    return ChannelMatrix(
        inputs=list(inputs), outputs=list(outputs), matrix=matrix, counts=counts
    )


def decode_accuracy(
    samples: Sequence[Tuple[Hashable, Hashable]],
    train_fraction: float = 0.5,
) -> float:
    """Maximum-likelihood decode accuracy under a train/test split.

    A crude but robust end-to-end channel measure: train a ML decoder
    (argmax over per-symbol observation histograms) on the first part of
    the samples, report its accuracy on the rest.  Chance level is
    ``1 / n_symbols``.
    """
    if not samples:
        raise ValueError("no samples")
    # Stratify the split per symbol so both halves see every symbol.
    by_symbol: Dict[Hashable, List[Tuple[Hashable, Hashable]]] = {}
    for symbol, obs in samples:
        by_symbol.setdefault(symbol, []).append((symbol, obs))
    train: List[Tuple[Hashable, Hashable]] = []
    test: List[Tuple[Hashable, Hashable]] = []
    for symbol in sorted(by_symbol, key=repr):
        group = by_symbol[symbol]
        split = max(1, int(len(group) * train_fraction))
        train.extend(group[:split])
        test.extend(group[split:])
    if not test:
        # Too few samples for a holdout: fall back to resubstitution
        # accuracy (optimistic, but well-defined on tiny sample sets).
        test = list(train)
    histogram: Dict[Hashable, Dict[Hashable, int]] = {}
    for symbol, obs in train:
        histogram.setdefault(obs, {})
        histogram[obs][symbol] = histogram[obs].get(symbol, 0) + 1
    symbols = sorted({symbol for symbol, _obs in samples}, key=repr)
    prior = symbols[0]
    correct = 0
    for symbol, obs in test:
        votes = histogram.get(obs)
        if votes:
            guess = max(sorted(votes, key=repr), key=lambda s: votes[s])
        else:
            guess = prior
        if guess == symbol:
            correct += 1
    return correct / len(test)
