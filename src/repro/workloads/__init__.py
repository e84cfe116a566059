"""Victim programs used by experiments and examples."""

from .downgrader import encryption_engine, network_stack, web_server
from .modexp import (
    MULTIPLY_CYCLES,
    SQUARE_CYCLES,
    exponent_work_cycles,
    modexp_victim,
)
from .table_crypto import key_dependent_line, sbox_victim

__all__ = [
    "MULTIPLY_CYCLES",
    "SQUARE_CYCLES",
    "encryption_engine",
    "exponent_work_cycles",
    "key_dependent_line",
    "modexp_victim",
    "network_stack",
    "sbox_victim",
    "web_server",
]
