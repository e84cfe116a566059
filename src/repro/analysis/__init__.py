"""Channel quantification: matrices, capacity, bandwidth.

The measurement half of the reproduction: channels found by
``repro.attacks`` are quantified with the channel-matrix methodology of
Cock et al. [2014] so "channel closed" is a number (capacity below the
estimator noise floor), not an impression.
"""

from .bandwidth import BandwidthEstimate, bsc_capacity, effective_bit_rate
from .capacity import (
    blahut_arimoto,
    capacity_bits,
    estimator_bias_bits,
    min_leakage,
    mutual_information,
    mutual_information_from_samples,
    zero_leakage,
)
from .channel_matrix import ChannelMatrix, decode_accuracy, from_samples
from .summary import capacity_matrix, format_matrix, pivot_records

__all__ = [
    "BandwidthEstimate",
    "ChannelMatrix",
    "blahut_arimoto",
    "bsc_capacity",
    "capacity_bits",
    "capacity_matrix",
    "decode_accuracy",
    "effective_bit_rate",
    "estimator_bias_bits",
    "format_matrix",
    "from_samples",
    "min_leakage",
    "mutual_information",
    "mutual_information_from_samples",
    "pivot_records",
    "zero_leakage",
]
