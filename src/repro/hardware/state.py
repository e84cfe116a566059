"""Microarchitectural state elements and touch instrumentation.

This module implements the hardware side of the paper's central
abstraction (Sect. 5.1): all microarchitectural state that influences
execution time is modelled as a collection of named *state elements*, each
of which must be either

* ``PARTITIONABLE`` -- spatially divisible between security domains (a
  physically-indexed shared cache, via page colouring), or
* ``FLUSHABLE`` -- resettable to a defined, history-independent state
  between time-multiplexed accesses (core-private caches, TLBs, branch
  predictors, prefetchers),

and any element that is neither is ``UNMANAGED``: a violation of the
security-oriented hardware-software contract (the aISA of Ge et al.
[2018a]) under which the paper's proof becomes possible.

Every element reports *touches* -- (element, index) pairs consulted or
modified by an execution step -- to a shared :class:`Instrumentation`
recorder, which keeps the :class:`Evidence` its run declared.  The proof
layer (``repro.core``) consumes these records to discharge the
partitioning and flushing obligations without ever reasoning about
concrete latencies, exactly as the paper proposes.
"""

from __future__ import annotations

import abc
import enum
import hashlib
import pickle
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple


class StateCategory(enum.Enum):
    """How a state element can be managed by the OS (Sect. 4.1)."""

    PARTITIONABLE = "partitionable"
    FLUSHABLE = "flushable"
    UNMANAGED = "unmanaged"


class Scope(enum.Enum):
    """Whether an element is private to one execution stream.

    Flushing is only a valid defence for ``CORE_LOCAL`` state: resetting
    "only works for resources that are private to an execution stream"
    (Sect. 4.1).  Concurrently shared state must be partitioned.
    """

    CORE_LOCAL = "core_local"
    SHARED = "shared"


class TouchKind(enum.Enum):
    """Why a state element index was touched."""

    READ = "read"
    WRITE = "write"
    FILL = "fill"
    EVICT = "evict"
    PREDICT = "predict"
    UPDATE = "update"


@dataclass(frozen=True, slots=True)
class Evidence:
    """What a run records about itself: declared by whoever reads it.

    A consumer declares this on the kernel after boot and before the run
    (``Kernel.declare``); the run then records exactly these parts, and a
    reader of a part that was not declared raises ``ValueError``
    (``Kernel.require_evidence``) instead of auditing an empty log.  The
    default records nothing, which is what channel experiments, campaign
    trials and synth fitness runs need.  Recording never changes a
    simulated result: latencies are computed from concrete state.

    * ``touches`` -- per-(context, element) touched-index sets for the
      named elements (PO-2, TLB/ASID isolation); ``None`` names every
      element;
    * ``cases`` -- one case-log entry per executed step: its Sect. 5.2
      case and context;
    * ``footprints`` -- each case-log entry also carries the step's
      ordered (element, index, kind) latency footprint (Cases 1/2a);
      rides on the case log, so it needs ``cases``;
    * ``switches`` -- switch snapshots: each switch record carries the
      flushed elements' fingerprints and the LLC by colour and by way
      owner (PO-3, PO-7, unwinding, the secret-swap hardware compare).
    """

    touches: Optional[FrozenSet[str]] = frozenset()
    cases: bool = False
    footprints: bool = False
    switches: bool = False

    def __post_init__(self) -> None:
        if self.footprints and not self.cases:
            raise ValueError("footprints ride on the case log: declare cases too")

    @classmethod
    def everything(cls) -> "Evidence":
        """All four parts, touch sets for every element."""
        return cls(touches=None, cases=True, footprints=True, switches=True)

    def missing(self, needed: "Evidence") -> List[str]:
        """The parts of ``needed`` this declaration leaves out, by name."""
        gaps = []
        if self.touches is not None:
            if needed.touches is None:
                gaps.append("touch sets of every element")
            elif needed.touches - self.touches:
                gaps.append(
                    f"touch sets of {sorted(needed.touches - self.touches)}"
                )
        for part, label in (
            ("cases", "the case log"),
            ("footprints", "step footprints"),
            ("switches", "switch snapshots"),
        ):
            if getattr(needed, part) and not getattr(self, part):
                gaps.append(label)
        return gaps


class Instrumentation:
    """The one recorder: records the declared evidence, nothing else.

    With touch sets declared it keeps, per (domain, element), the set of
    touched indices -- sufficient for the partitioning obligation (PO-2);
    with footprints declared it also appends every touch to
    ``footprint``, which the kernel resets at each step boundary.

    ``recording`` is true when touch sets or footprints are declared.
    The elements test it before every ``touch()`` call, so a run that
    declares neither makes none: its per-access cost is one attribute
    test.  ``kept`` names the elements whose touches are kept (None:
    every element); the elements test it too, so they skip the touches
    ``touch()`` would drop.  When recording, the recorder keeps the
    current domain's ``element -> index set`` buckets in a flat dict
    (switched in ``set_context``) instead of re-hashing a (domain,
    element) tuple per touch; the buckets alias the entries of
    ``summary``, whose shape the proof layer reads directly.

    ``current_domain`` is not evidence: CAT-style way quotas charge
    fills to it (``Cache._owner_tag``), so ``set_context`` maintains it
    whatever is declared.
    """

    def __init__(self) -> None:
        self.summary: Dict[Tuple[Optional[str], str], Set[Hashable]] = {}
        self.current_domain: Optional[str] = None
        self.footprint: List[Tuple[str, Hashable, TouchKind]] = []
        # Per-domain bucket cache; ``_buckets`` is the current domain's.
        self._domain_buckets: Dict[Optional[str], Dict[str, Set[Hashable]]] = {}
        self._buckets: Dict[str, Set[Hashable]] = self._domain_buckets.setdefault(
            None, {}
        )
        self.declare(Evidence())

    def declare(self, evidence: Evidence) -> None:
        """Record ``evidence`` from now on (see ``Kernel.declare``)."""
        self.evidence = evidence
        # Hot-path copies of the touch-level parts.
        self._elements = evidence.touches
        self._footprints = evidence.footprints
        self.recording = (
            evidence.touches is None or bool(evidence.touches) or evidence.footprints
        )
        # A footprint lists every element's touches.
        self.kept = None if evidence.footprints else evidence.touches

    def set_context(self, domain: Optional[str]) -> None:
        if domain != self.current_domain:
            self.current_domain = domain
            buckets = self._domain_buckets.get(domain)
            if buckets is None:
                buckets = {}
                self._domain_buckets[domain] = buckets
            self._buckets = buckets

    def touch(self, element: str, index: Hashable, kind: TouchKind) -> None:
        """Record one touch; callers skip the call unless ``recording``."""
        if self._footprints:
            self.footprint.append((element, index, kind))
        only = self._elements
        if only is not None and element not in only:
            return
        bucket = self._buckets.get(element)
        if bucket is None:
            bucket = set()
            self._buckets[element] = bucket
            self.summary[(self.current_domain, element)] = bucket
        bucket.add(index)

    def clone(self) -> "Instrumentation":
        """An independent copy (for ``Machine.clone_for_mc``).

        Rebuilds the ``summary`` / ``_domain_buckets`` aliasing from
        scratch so the copy's buckets are its own sets that still alias
        its own summary entries, exactly as ``touch()`` maintains them.
        """
        other = Instrumentation.__new__(Instrumentation)
        other.summary = {}
        other._domain_buckets = {}
        for (domain, element), indices in self.summary.items():
            fresh = set(indices)
            other.summary[(domain, element)] = fresh
            other._domain_buckets.setdefault(domain, {})[element] = fresh
        other.current_domain = self.current_domain
        other.footprint = list(self.footprint)
        other._buckets = other._domain_buckets.setdefault(
            self.current_domain, {}
        )
        other.declare(self.evidence)
        return other


def copy_attributes(obj):
    """A new instance of ``obj``'s class holding the same attribute values.

    The one start of every ``clone_for_mc``: no constructor runs and no
    value is copied, so configuration, scalars and whatever never changes
    after build are shared without a line each.  The caller then
    replaces the copy's own mutable containers and its references to
    other cloned objects.  A class with its own ``__slots__`` (``Tcb``,
    ``ReplayableProgram``) has them copied by name.
    """
    cls = type(obj)
    other = object.__new__(cls)
    slots = cls.__dict__.get("__slots__")
    if slots is None:
        # A plain dict: ``__dict__.copy()`` would keep the key-sharing
        # layout, whose attribute reads CPython 3.11 does not specialise.
        other.__dict__ = dict(obj.__dict__)
    else:
        for name in slots:
            setattr(other, name, getattr(obj, name))
    return other


@dataclass
class FlushResult:
    """Outcome of flushing a state element.

    The latency is *history dependent* (e.g. proportional to the number of
    dirty lines written back) -- which is precisely why the domain-switch
    latency must be padded to a constant (Sect. 4.2).
    """

    cycles: int
    lines_written_back: int = 0


class StateElement(abc.ABC):
    """Base class for every piece of timing-relevant hardware state."""

    def __init__(
        self,
        name: str,
        category: StateCategory,
        scope: Scope,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.name = name
        self.category = category
        self.scope = scope
        self.instr = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        # Set to True by the machine when two hardware threads share this
        # element concurrently (SMT); flushing is then ineffective and the
        # abstract-model extraction reclassifies the element as UNMANAGED.
        self.concurrently_shared = scope is Scope.SHARED
        # Fingerprint memoisation: subclasses bump ``_fp_version`` on any
        # mutation that can change ``fingerprint()``, replacement order
        # included.  ``cached_fingerprint`` and ``cached_digest`` then
        # recompute only when the element actually changed -- the
        # model checker fingerprints every element after every
        # transition, but a single transition mutates only the few
        # elements it touched.
        self._fp_version = 0
        self._fp_cache: Optional[tuple] = None
        self._fp_digest: Optional[tuple] = None

    def _touch(self, index: Hashable, kind: TouchKind) -> None:
        instr = self.instr
        if instr.recording:
            kept = instr.kept
            if kept is None or self.name in kept:
                instr.touch(self.name, index, kind)

    def cached_fingerprint(self) -> Hashable:
        """``fingerprint()``, memoised against ``_fp_version``."""
        version = self._fp_version
        cache = self._fp_cache
        if cache is not None and cache[0] == version:
            return cache[1]
        fp = self.fingerprint()
        self._fp_cache = (version, fp)
        return fp

    def cached_digest(self) -> bytes:
        """BLAKE2b digest of ``_digest_state()``, memoised like the
        fingerprint.

        Lets callers that only need *equality* (the model checker's
        incremental state hash) fold a fixed 16-byte digest per element
        instead of re-serialising the full fingerprint structure on
        every comparison.  Serialisation is ``pickle`` at a pinned
        protocol: equal nested tuples and lists of scalars pickle to
        equal bytes, and the C encoder is several times faster than
        ``repr`` on them.
        """
        version = self._fp_version
        cache = self._fp_digest
        if cache is not None and cache[0] == version:
            return cache[1]
        digest = hashlib.blake2b(
            pickle.dumps(self._digest_state(), protocol=4),
            digest_size=16,
        ).digest()
        self._fp_digest = (version, digest)
        return digest

    def _digest_state(self) -> object:
        """What ``cached_digest`` pickles: the fingerprint, or any state
        that is equal exactly when the fingerprint is."""
        return self.cached_fingerprint()

    @abc.abstractmethod
    def flush(self) -> FlushResult:
        """Reset to the defined, history-independent state."""

    @abc.abstractmethod
    def fingerprint(self) -> Hashable:
        """Canonical digest of the element's full state.

        Used by the flush obligation (state after flush must equal the
        reset state), by the unwinding checker (Lo-equivalence of
        hardware state across two runs) and as the model checker's state
        identity.  Two elements with equal fingerprints must behave the
        same under every continuation, so the fingerprint carries
        whatever picks the next victim (replacement order, owners), not
        just what is resident.
        """

    @abc.abstractmethod
    def reset_fingerprint(self) -> Hashable:
        """Fingerprint of the post-flush (history-independent) state."""

    def partition_of_index(self, index: Hashable) -> Hashable:
        """Partition that a touch index belongs to.

        For colour-partitioned caches this is the page colour of the set;
        elements that are not partitionable map everything to partition 0.
        """
        return 0

    @property
    def n_partitions(self) -> int:
        """Number of distinct partitions this element supports."""
        return 1

    def effective_category(self) -> StateCategory:
        """Category after accounting for concurrent sharing.

        A FLUSHABLE element that is concurrently shared (e.g. an L1 cache
        shared by two hyperthreads of different domains) cannot actually
        be separated in time, so flushing it is ineffective: the abstract
        model must treat it as UNMANAGED.  A PARTITIONABLE element with a
        single partition likewise offers no separation.
        """
        if self.category is StateCategory.FLUSHABLE and self.concurrently_shared:
            return StateCategory.UNMANAGED
        if self.category is StateCategory.PARTITIONABLE and self.n_partitions < 2:
            return StateCategory.UNMANAGED
        return self.category
