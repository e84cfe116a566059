"""Channel capacity and mutual information over channel matrices.

Shannon capacity is computed with the Blahut-Arimoto algorithm; mutual
information with the plugin estimator under a given (default uniform)
input distribution.  For the noiseless, deterministic channels this
simulator produces, both converge quickly and agree with the analytic
values (log2 of the number of distinguishable inputs).

Each estimator imports numpy itself, so only a command that estimates a
channel pays for loading it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional, Sequence, Tuple

from .channel_matrix import ChannelMatrix, from_samples

if TYPE_CHECKING:
    import numpy as np

_EPS = 1e-12


def mutual_information(
    matrix: ChannelMatrix, input_dist: Optional[Sequence[float]] = None
) -> float:
    """I(X;Y) in bits for the given input distribution (default uniform)."""
    import numpy as np

    conditional = matrix.matrix
    n_inputs = matrix.n_inputs
    if input_dist is None:
        px = np.full(n_inputs, 1.0 / n_inputs)
    else:
        px = np.asarray(input_dist, dtype=float)
        if px.shape != (n_inputs,):
            raise ValueError(
                f"input distribution must have {n_inputs} entries"
            )
        if not np.isclose(px.sum(), 1.0):
            raise ValueError("input distribution must sum to 1")
    joint = px[:, None] * conditional
    py = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.log2(
            np.where(joint > _EPS, joint / (px[:, None] * py[None, :] + _EPS), 1.0)
        )
    return float(np.sum(joint * log_term))


def mutual_information_from_samples(
    samples: Sequence[Tuple[Hashable, Hashable]],
    input_dist: Optional[Sequence[float]] = None,
) -> float:
    """I(X;Y) in bits straight from ``(symbol, observation)`` samples.

    The one sample-level MI entry point of the package: the attack
    harness (:meth:`repro.attacks.harness.ChannelResult
    .mutual_information_bits`), the synth env's fitness signal and the
    campaign reports all call this, so a genome's fitness can never
    disagree with what the campaign later reports for the same samples.
    """
    return mutual_information(from_samples(samples), input_dist)


def blahut_arimoto(
    matrix: ChannelMatrix,
    tolerance: float = 1e-9,
    max_iterations: int = 2000,
) -> Tuple[float, np.ndarray]:
    """Channel capacity in bits and the optimising input distribution.

    Standard Blahut-Arimoto iteration; converges geometrically for any
    row-stochastic matrix.
    """
    import numpy as np

    conditional = np.clip(matrix.matrix, _EPS, 1.0)
    conditional = conditional / conditional.sum(axis=1, keepdims=True)
    n_inputs = matrix.n_inputs
    px = np.full(n_inputs, 1.0 / n_inputs)
    capacity = 0.0
    for _iteration in range(max_iterations):
        py = px @ conditional
        # D(p(y|x) || p(y)) per input, in bits.
        divergence = np.sum(
            conditional * np.log2(conditional / (py[None, :] + _EPS)), axis=1
        )
        new_capacity = float(np.log2(np.sum(px * np.exp2(divergence))) + _EPS * 0)
        weights = px * np.exp2(divergence)
        px = weights / weights.sum()
        upper = float(np.max(divergence))
        lower = float(np.log2(np.sum(weights)))
        capacity = lower
        if upper - lower < tolerance:
            break
    return max(0.0, capacity), px


def capacity_bits(matrix: ChannelMatrix) -> float:
    """Convenience: just the Blahut-Arimoto capacity."""
    capacity, _dist = blahut_arimoto(matrix)
    return capacity


def min_leakage(matrix: ChannelMatrix) -> float:
    """Min-entropy leakage in bits, uniform prior (Smith's measure).

    ``ML = log2( sum_y max_x P(y|x) )`` -- how much one observation
    multiplies an adversary's probability of guessing the secret in one
    try.  Cock et al. [2014] report this (as CC_0) alongside Shannon
    capacity because it bounds single-guess attacks that Shannon capacity
    can understate.
    """
    import numpy as np

    column_maxima = matrix.matrix.max(axis=0)
    return float(np.log2(max(column_maxima.sum(), 1.0)))


def zero_leakage(matrix: ChannelMatrix, threshold_bits: float = 1e-3) -> bool:
    """True iff the channel carries (numerically) nothing."""
    return matrix.is_degenerate() or capacity_bits(matrix) < threshold_bits


def estimator_bias_bits(n_samples_per_input: int, n_outputs: int) -> float:
    """First-order Miller-Madow bias of the plugin MI estimate, in bits.

    Useful as a "noise floor": measured MI below this value on a closed
    channel is consistent with zero true leakage.
    """
    import numpy as np

    if n_samples_per_input <= 0:
        return float("inf")
    return (n_outputs - 1) / (2.0 * n_samples_per_input * np.log(2.0))
