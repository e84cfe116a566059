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
recorder.  The proof layer (``repro.core``) consumes these records to
discharge the partitioning and flushing obligations without ever reasoning
about concrete latencies, exactly as the paper proposes.
"""

from __future__ import annotations

import abc
import enum
import hashlib
import pickle
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple


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


class InstrumentationMode(enum.Enum):
    OFF = "off"
    COUNTING = "counting"
    SUMMARY = "summary"


class Instrumentation:
    """Records which state each domain touches.

    ``SUMMARY`` mode keeps, per (domain, element), the set of touched
    indices -- sufficient for the partitioning obligation (PO-2).
    ``OFF`` disables recording for high-volume benchmark runs.
    ``COUNTING`` (see :class:`CountingInstrumentation`) keeps only
    aggregate per-(domain, element) touch counts: cheap enough for
    campaign sweeps, but useless for proofs -- ``from_machine()`` refuses
    to build proof obligations from a counting-mode run.

    ``touch()`` runs on every simulated state access, so the recorder
    keeps the current domain's ``element -> index set`` buckets in a flat
    dict (switched in ``set_context``) instead of re-hashing a (domain,
    element) tuple per touch; the buckets alias the entries of
    ``summary``, whose shape the proof layer reads directly.
    """

    def __init__(self, mode: InstrumentationMode = InstrumentationMode.SUMMARY):
        self.summary: Dict[Tuple[Optional[str], str], Set[Hashable]] = {}
        # Mutable execution context, maintained by the machine.
        self.current_domain: Optional[str] = None
        self.current_core: int = 0
        self.current_cycle: int = 0
        # Per-step latency dependency footprint (the paper's "unspecified
        # deterministic function" argument list); reset by the CPU at each
        # instruction boundary when footprint tracking is enabled.
        self.track_footprint = False
        self.footprint: List[Tuple[str, Hashable, TouchKind]] = []
        # Optional element whitelist: when set, SUMMARY recording keeps
        # per-index sets only for these element names.  Consumers that
        # audit a single element (the model checker's partitioning check
        # reads only the LLC) install the filter so every other element's
        # touches cost one early return instead of a set insertion.
        self.summary_elements: Optional[frozenset] = None
        # Per-domain bucket cache; ``_buckets`` is the current domain's.
        self._domain_buckets: Dict[Optional[str], Dict[str, Set[Hashable]]] = {}
        self._buckets: Dict[str, Set[Hashable]] = self._domain_buckets.setdefault(
            None, {}
        )
        self.mode = mode

    @property
    def mode(self) -> InstrumentationMode:
        return self._mode

    @mode.setter
    def mode(self, value: InstrumentationMode) -> None:
        # Mode is settable at runtime; the dispatch flag below keeps
        # ``touch()`` off the enum.
        self._mode = value
        self._recording = value is InstrumentationMode.SUMMARY

    def set_context(self, domain: Optional[str], core: int, cycle: int) -> None:
        if domain != self.current_domain:
            self.current_domain = domain
            buckets = self._domain_buckets.get(domain)
            if buckets is None:
                buckets = {}
                self._domain_buckets[domain] = buckets
            self._buckets = buckets
        self.current_core = core
        self.current_cycle = cycle

    def touch(self, element: str, index: Hashable, kind: TouchKind) -> None:
        if self.track_footprint:
            self.footprint.append((element, index, kind))
        if not self._recording:
            return
        only = self.summary_elements
        if only is not None and element not in only:
            return
        bucket = self._buckets.get(element)
        if bucket is None:
            bucket = set()
            self._buckets[element] = bucket
            self.summary[(self.current_domain, element)] = bucket
        bucket.add(index)

    def reset_footprint(self) -> None:
        self.footprint = []

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
        other.current_core = self.current_core
        other.current_cycle = self.current_cycle
        other.track_footprint = self.track_footprint
        other.footprint = list(self.footprint)
        other.summary_elements = self.summary_elements
        other._buckets = other._domain_buckets.setdefault(
            self.current_domain, {}
        )
        other.mode = self._mode
        return other

    def touched_indices(self, domain: Optional[str], element: str) -> Set[Hashable]:
        """Set of indices of ``element`` touched while ``domain`` ran."""
        return set(self.summary.get((domain, element), set()))

    def clear(self) -> None:
        self.summary.clear()
        self.footprint = []
        self._domain_buckets.clear()
        self._buckets = self._domain_buckets.setdefault(self.current_domain, {})


class CountingInstrumentation(Instrumentation):
    """Aggregate touch counters: the campaign-sweep fast path.

    Keeps one integer per (domain, element) instead of per-index sets and
    ordered events.  This preserves every *observable* of a channel
    measurement (latencies are computed from concrete state, not from the
    recorder) while shedding the per-touch set insertions that dominate
    full instrumentation.  It records nothing the proof layer could audit
    -- ``summary`` stays empty -- which is why
    ``AbstractHardwareModel.from_machine`` rejects machines running in
    this mode.
    """

    def __init__(self) -> None:
        super().__init__(InstrumentationMode.COUNTING)
        self._domain_counts: Dict[Optional[str], Dict[str, int]] = {}
        self._counts: Dict[str, int] = self._domain_counts.setdefault(None, {})

    def set_context(self, domain: Optional[str], core: int, cycle: int) -> None:
        if domain != self.current_domain:
            self.current_domain = domain
            counts = self._domain_counts.get(domain)
            if counts is None:
                counts = {}
                self._domain_counts[domain] = counts
            self._counts = counts
        self.current_core = core
        self.current_cycle = cycle

    def touch(self, element: str, index: Hashable, kind: TouchKind) -> None:
        if self.track_footprint:
            self.footprint.append((element, index, kind))
        counts = self._counts
        counts[element] = counts.get(element, 0) + 1

    def touch_counts(self) -> Dict[Tuple[Optional[str], str], int]:
        """Aggregate touch counts as one plain (domain, element) -> n dict."""
        return {
            (domain, element): count
            for domain, counts in self._domain_counts.items()
            for element, count in counts.items()
        }

    def clear(self) -> None:
        super().clear()
        self._domain_counts.clear()
        self._counts = self._domain_counts.setdefault(self.current_domain, {})


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
        self.instr = instrumentation if instrumentation is not None else Instrumentation(
            InstrumentationMode.OFF
        )
        # Set to True by the machine when two hardware threads share this
        # element concurrently (SMT); flushing is then ineffective and the
        # abstract-model extraction reclassifies the element as UNMANAGED.
        self.concurrently_shared = scope is Scope.SHARED
        # Fingerprint memoisation: subclasses bump ``_fp_version`` on any
        # mutation that can change ``fingerprint()`` (stamp-only updates
        # are exempt).  ``cached_fingerprint`` then recomputes only when
        # the element actually changed -- the model checker fingerprints
        # every element after every transition, but a single transition
        # mutates only the few elements it touched.
        self._fp_version = 0
        self._fp_cache: Optional[tuple] = None
        self._fp_digest: Optional[tuple] = None

    def _touch(self, index: Hashable, kind: TouchKind) -> None:
        self.instr.touch(self.name, index, kind)

    def cached_fingerprint(self) -> Hashable:
        """``fingerprint()``, memoised against ``_fp_version``."""
        cache = self._fp_cache
        if cache is not None and cache[0] == self._fp_version:
            return cache[1]
        fp = self.fingerprint()
        self._fp_cache = (self._fp_version, fp)
        return fp

    def cached_digest(self) -> bytes:
        """BLAKE2b digest of ``fingerprint()``, memoised like it.

        Lets callers that only need *equality* (the model checker's
        incremental state hash) fold a fixed 16-byte digest per element
        instead of re-serialising the full fingerprint structure on
        every comparison.  Serialisation is ``pickle`` at a pinned
        protocol: fingerprints are freshly built nested tuples of
        scalars, for which equal values pickle to equal bytes, and the
        C encoder is several times faster than ``repr`` on them.
        """
        cache = self._fp_digest
        if cache is not None and cache[0] == self._fp_version:
            return cache[1]
        digest = hashlib.blake2b(
            pickle.dumps(self.cached_fingerprint(), protocol=4),
            digest_size=16,
        ).digest()
        self._fp_digest = (self._fp_version, digest)
        return digest

    @abc.abstractmethod
    def flush(self) -> FlushResult:
        """Reset to the defined, history-independent state."""

    @abc.abstractmethod
    def fingerprint(self) -> Hashable:
        """Canonical digest of the element's full state.

        Used by the flush obligation (state after flush must equal the
        reset state) and by the unwinding checker (Lo-equivalence of
        hardware state across two runs).
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
