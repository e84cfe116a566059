"""Time-protection configuration: the mechanisms of Sect. 4.2, as knobs.

Each mechanism the paper's seL4 implementation provides is independently
switchable so experiments can ablate them one at a time and show that
*each* is necessary:

* ``cache_colouring``    -- partition the shared LLC by page colour
                            (including a reserved colour for the small
                            shared kernel region).
* ``kernel_clone``       -- per-domain kernel image in domain-coloured
                            memory (defeats Flush+Reload on kernel text).
* ``flush_on_switch``    -- reset all core-local flushable state on every
                            *domain* switch (not intra-domain switches).
* ``pad_switch``         -- pad the domain-switch latency to a constant:
                            the next domain starts no earlier than the
                            previous domain's slice end plus the previous
                            domain's padding time.
* ``partition_interrupts`` -- IRQ lines owned by domains; non-owned lines
                            masked while another domain runs.
* ``padded_ipc``         -- deterministic cross-domain IPC delivery (Cock
                            et al. [2014]): the switch to the receiver
                            happens only once the sender domain has
                            executed for a pre-determined minimum time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TimeProtectionConfig:
    """Which time-protection mechanisms the kernel applies."""

    cache_colouring: bool = True
    kernel_clone: bool = True
    flush_on_switch: bool = True
    pad_switch: bool = True
    partition_interrupts: bool = True
    padded_ipc: bool = False
    # Alternative LLC partitioning mechanism: Intel CAT-style way
    # allocation instead of (or in addition to) page colouring.  The
    # paper's requirement is only that shared state be *partitioned*
    # (Sect. 4.1); either mechanism satisfies it.
    way_partitioning: bool = False

    @classmethod
    def full(cls, padded_ipc: bool = False) -> "TimeProtectionConfig":
        """All mechanisms on (the paper's proposed configuration)."""
        return cls(padded_ipc=padded_ipc)

    @classmethod
    def none(cls) -> "TimeProtectionConfig":
        """No time protection at all (a conventional kernel)."""
        return cls(
            cache_colouring=False,
            kernel_clone=False,
            flush_on_switch=False,
            pad_switch=False,
            partition_interrupts=False,
            padded_ipc=False,
        )

    def without(self, **flags: bool) -> "TimeProtectionConfig":
        """Copy with the named mechanisms disabled, e.g. ``without(pad_switch=False)``.

        Values must be the new flag values; typically ``False`` for
        ablations.
        """
        return replace(self, **flags)

    @classmethod
    def full_with_way_partitioning(cls) -> "TimeProtectionConfig":
        """All mechanisms on, with CAT-style ways replacing colouring."""
        return cls(cache_colouring=False, way_partitioning=True)

    def enabled_mechanisms(self) -> tuple:
        """Names of the active mechanisms (for reports)."""
        names = []
        for name in (
            "cache_colouring",
            "way_partitioning",
            "kernel_clone",
            "flush_on_switch",
            "pad_switch",
            "partition_interrupts",
            "padded_ipc",
        ):
            if getattr(self, name):
                names.append(name)
        return tuple(names)
