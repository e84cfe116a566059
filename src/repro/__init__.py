"""repro: an executable reproduction of "Can We Prove Time Protection?"

(Heiser, Klein, Murray -- HotOS 2019, arXiv:1901.08338)

The package is layered exactly as the paper's argument is:

* :mod:`repro.hardware`  -- a deterministic microarchitectural timing
  simulator: caches, TLBs, branch predictors, prefetchers, interconnect,
  interrupt lines, cycle clocks.  Every piece of timing-relevant state is
  a tagged *state element* (partitionable / flushable / unmanaged).
* :mod:`repro.kernel`    -- an seL4-like microkernel with the time
  protection mechanisms of Sect. 4.2: cache colouring, kernel clone,
  flush-on-switch, switch-latency padding, interrupt partitioning and
  padded IPC delivery, each independently switchable.
* :mod:`repro.core`      -- the paper's contribution made executable:
  the abstract hardware model, the proof obligations PO-1..PO-7, the
  Sect. 5.2 case split, unwinding conditions, and two-run
  noninterference experiments, assembled into
  :class:`~repro.core.TimeProtectionProof`.
* :mod:`repro.attacks`   -- the channels of Sects. 2-4 (prime+probe,
  flush+reload, occupancy, event timing, interrupts, switch latency,
  interconnect bandwidth) as adaptive programs.
* :mod:`repro.analysis`  -- channel matrices, Shannon capacity, mutual
  information, bandwidth (the Cock et al. [2014] methodology).
* :mod:`repro.workloads` -- victims: table-lookup crypto, square-and-
  multiply modexp, the Figure 1 downgrader pipeline.

Quickstart::

    from repro import presets, Kernel, TimeProtectionConfig
    from repro.core import prove_time_protection, format_report

    # a builder boots (does not run) the system; see examples/quickstart.py
    report = prove_time_protection(
        build, secrets=[1, 7], observer="Lo", max_cycles=400_000
    )
    print(format_report(report))
"""

from .hardware import (
    Access,
    Branch,
    CacheGeometry,
    Compute,
    FlushLine,
    Halt,
    Machine,
    MachineConfig,
    Observation,
    ProgramContext,
    ReadTime,
    Syscall,
    presets,
)
from .kernel import Domain, Kernel, SwitchRecord, Tcb, TimeProtectionConfig
from .core import (
    ProofReport,
    TimeProtectionProof,
    format_report,
    prove_time_protection,
)

__version__ = "1.0.0"

__all__ = [
    "Access",
    "Branch",
    "CacheGeometry",
    "Compute",
    "Domain",
    "FlushLine",
    "Halt",
    "Kernel",
    "Machine",
    "MachineConfig",
    "Observation",
    "ProgramContext",
    "ProofReport",
    "ReadTime",
    "SwitchRecord",
    "Syscall",
    "Tcb",
    "TimeProtectionConfig",
    "TimeProtectionProof",
    "format_report",
    "presets",
    "prove_time_protection",
    "__version__",
]
