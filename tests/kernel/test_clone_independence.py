"""``Kernel.clone_for_mc`` makes an independent copy, checked by structure.

Each clone copies an object whole and then replaces only its mutable
containers, so a container copy that is forgotten becomes silent
sharing: both systems then write to one list.  A behavioural test sees
that only if some later step happens to read the shared state, and the
model checker's reference oracle shares the clone it would be checked
against.  This test walks the original's and the clone's object graphs
from the kernel instead and fails on any list, dict, set or deque, and
any instance of a non-frozen ``repro`` class, that both reach.  Only the
objects named below may be shared, each for its reason.
"""

from __future__ import annotations

import enum
import types
from collections import deque

import pytest

from repro.campaign.registry import MACHINES, TP_CONFIGS
from repro.hardware.cache import LatencyParams
from repro.hardware.machine import MachineConfig
from repro.hardware.tlb import TlbEntry
from repro.kernel import Kernel
from repro.kernel.ipc import Message
from repro.kernel.kernel import IrqDeliveryRecord, ObservationRecord
from repro.kernel.switch import SwitchRecord
from repro.mc import McSpec, build_system
from repro.mc.fingerprint import state_fingerprint_incremental
from repro.mc.product import lo_view
from repro.mc.spec import apply_choice
from repro.synth import runner

#: Shared by type: write-once records and configuration.
SHARED_TYPES = {
    SwitchRecord: "write-once evidence of one domain switch",
    ObservationRecord: "write-once entry of a domain's observation trace",
    IrqDeliveryRecord: "write-once evidence of one delivered interrupt",
    Message: "an IPC message is never edited once queued",
    MachineConfig: "the machine's build configuration",
    LatencyParams: "a cache level's latency constants",
    TlbEntry: "a TLB entry is never edited after its fill",
}

#: Shared by the attribute that holds them: fixed when the system is built.
SHARED_ATTRIBUTES = {
    "clone_manager": "kernel images are made only by create_domain",
    "irq_policy": "the IRQ owner map is set only by create_domain",
    "spaces": "address spaces are mapped only at build time",
    "kernel_image": "a domain's kernel image never changes after boot",
    "space": "a thread's address space is mapped only at build time",
    "kernel_data_paddrs": "the kernel data region is fixed at boot",
    "kernel_data_frames": "the kernel data region is fixed at boot",
    "_way_quotas": "way quotas are set only by create_domain",
    "_hits": "a cache's prebuilt hit results are never edited",
    "_fills": "a cache's prebuilt fill results are never edited",
    "frames": "the machine's frame list is fixed at build time",
}

#: Containers whose entries are shared: each entry is replaced, never edited.
SHARED_ENTRIES = {
    "_colour_snapshots": "an LLC colour snapshot memo entry is replaced whole",
    "_mc_fp_cache": "a fingerprint memo entry is replaced whole, and its "
    "relabelling maps are fixed at build",
}

_LEAVES = (
    int, float, complex, str, bytes, bool, type(None), range, enum.Enum,
    types.FunctionType, types.BuiltinFunctionType, types.ModuleType, type,
)
_CONTAINERS = (list, dict, set, deque, bytearray)


def _is_mutable(obj) -> bool:
    """A container, or an instance of a non-frozen ``repro`` class."""
    if isinstance(obj, _CONTAINERS):
        return True
    cls = type(obj)
    if not cls.__module__.startswith("repro."):
        return False
    if isinstance(obj, tuple):
        return False
    params = getattr(cls, "__dataclass_params__", None)
    return not (params is not None and params.frozen)


def _edges(obj):
    """``(label, child)`` for every reference ``obj`` holds."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield f"[{key!r}]", key
            yield f"[{key!r}]", value
    elif isinstance(obj, (list, tuple, deque)):
        for index, value in enumerate(obj):
            yield f"[{index}]", value
    elif isinstance(obj, (set, frozenset)):
        for value in obj:
            yield "{}", value
    elif isinstance(obj, types.MethodType):
        yield ".__self__", obj.__self__
    else:
        for name, value in getattr(obj, "__dict__", {}).items():
            yield f".{name}", value
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(obj, name):
                    yield f".{name}", getattr(obj, name)


def _reachable(root):
    """``id -> (object, path)`` for every mutable object reachable from
    ``root``, by its shortest path.

    The walk does not enter an allowed shared object: what it holds is
    shared with it."""
    found = {}
    seen = set()
    queue = deque([("kernel", root, None)])
    while queue:
        path, obj, label = queue.popleft()
        if isinstance(obj, _LEAVES) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) in SHARED_TYPES or label in SHARED_ATTRIBUTES:
            continue
        if _is_mutable(obj):
            found[id(obj)] = (obj, path)
        if label in SHARED_ENTRIES:
            seen.update(id(entry) for entry in obj.values())
        for edge, child in _edges(obj):
            name = edge[1:] if edge.startswith(".") else None
            queue.append((path + edge, child, name))
    return found


def shared_objects(original, clone):
    """Paths (in the clone) of the mutable objects both systems reach."""
    mine = _reachable(original)
    theirs = _reachable(clone)
    return sorted(theirs[key][1] for key in mine.keys() & theirs.keys())


def _mc_system(machine):
    spec = McSpec.for_machine(machine, "full")
    kernel = build_system(spec, secret=1)
    # Part-way: past a domain switch and an IRQ delivery, so switch
    # records, the case log and IRQ records are all non-empty, and
    # fingerprinted and viewed as the explorer does before it clones.
    for step in range(40):
        choice = ("irq", spec.irq_lines[0]) if step == 5 else ("step",)
        apply_choice(kernel, choice)
    state_fingerprint_incremental(kernel)
    lo_view(kernel)
    return kernel


def _synth_system():
    kernel = Kernel(MACHINES["tiny"](), TP_CONFIGS["full"]())
    horizon = runner.build(kernel, 1, [], runner.PRIME_PROBE_GENOME.to_dict())
    kernel.run(max_cycles=horizon, max_steps=400)
    # A message waiting on the endpoint, as a Hi send leaves one.
    endpoint = kernel.endpoints.all()[0]
    kernel.endpoints.enqueue(endpoint, 7, "Hi", now=0, sender_slice_start=0)
    return kernel


SYSTEMS = {
    "micro": lambda: _mc_system("micro"),
    "tiny": lambda: _mc_system("tiny"),
    "pocket": lambda: _mc_system("pocket"),
    "smt": lambda: _mc_system("smt"),
    "synth-tiny": _synth_system,
}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_clone_shares_no_mutable_object(system):
    kernel = SYSTEMS[system]()
    clone = kernel.clone_for_mc()
    assert shared_objects(kernel, clone) == []


def test_the_walk_sees_a_shared_container():
    # The check itself: a clone whose BTB order aliases the parent's
    # must fail it.
    kernel = SYSTEMS["tiny"]()
    clone = kernel.clone_for_mc()
    branch = clone.machine.cores[0].branch
    branch._btb_order = kernel.machine.cores[0].branch._btb_order
    assert shared_objects(kernel, clone) == [
        "kernel.machine.cores[0].branch._btb_order"
    ]
