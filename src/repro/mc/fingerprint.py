"""Canonical state fingerprinting with symmetry reduction.

Two system states are the *same* model-checker state iff every future
behaviour agrees; the fingerprint is a stable digest of exactly the
state that future behaviour reads: clocks, scheduler positions, thread
and program state, every microarchitectural element's fingerprint,
memory contents, pending interrupts -- plus the accumulated Lo-relevant
evidence (observation traces, switch records, step classifications),
because the checker's prefix comparisons read those too.

Symmetry reduction operates on the *allocation metadata*: security
domains are relabelled by schedule order (the observer keeps a
distinguished label, so reductions never alias states that differ in
who is observing) and page-colour identifiers by first appearance, so
two systems that differ only in which concrete colour ids the allocator
happened to hand out collapse into one state.  Deep microarchitectural
state (cache tags, memory addresses) is digested raw: relabelling
physical addresses is not in general sound, and the builder allocates
deterministically, so raw comparison is exact there.

Digests use :mod:`hashlib` (BLAKE2b), never Python's per-process
randomised ``hash()``: state counts, dedup decisions and counterexample
paths must repeat from run to run (and lint clean under SC-2).

The component builders below are shared with the exact oracle in
``tests/mc/``, which digests the whole canonical structure at every
state; the product digest folds the same components incrementally.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Dict, List, Tuple

_dumps = pickle.dumps

from ..kernel.kernel import Kernel
from ..kernel.objects import ReplayableProgram

DIGEST_SIZE = 16

#: Chain-digest seed; every incremental rolling digest starts from it.
_CHAIN_SEED = b"mcfp"


def _domain_order(kernel: Kernel) -> List:
    """Domains in schedule order (then creation order for the rest)."""
    order = []
    seen = set()
    for core_id in kernel.scheduler.scheduled_cores():
        for domain in kernel.scheduler.domains_on_core(core_id):
            if domain.name not in seen:
                seen.add(domain.name)
                order.append(domain)
    for domain in kernel.domains.values():
        if domain.name not in seen:
            seen.add(domain.name)
            order.append(domain)
    return order


def _role_labels(kernel: Kernel, observer: str) -> Dict[str, str]:
    """Domain name -> canonical role label, observer distinguished."""
    labels: Dict[str, str] = {}
    for position, domain in enumerate(_domain_order(kernel)):
        if domain.name == observer:
            labels[domain.name] = "obs"
        else:
            labels[domain.name] = f"d{position}"
    return labels


def _colour_map(kernel: Kernel) -> Dict[int, int]:
    """Concrete colour id -> canonical id by first appearance."""
    mapping: Dict[int, int] = {}
    for colour in sorted(kernel.allocator.kernel_colours):
        mapping.setdefault(colour, len(mapping))
    for domain in _domain_order(kernel):
        for colour in sorted(domain.colours):
            mapping.setdefault(colour, len(mapping))
    return mapping


def _relabel_context(context: str, labels: Dict[str, str]) -> str:
    """Instrumentation context with domain names replaced by role labels."""
    if context.startswith("@switch:"):
        pair = context[len("@switch:"):]
        from_name, _, to_name = pair.partition(">")
        return (
            f"@switch:{labels.get(from_name, from_name)}"
            f">{labels.get(to_name, to_name)}"
        )
    name, sep, mode = context.partition("/")
    return f"{labels.get(name, name)}{sep}{mode}"


def _relabel_colour_keys(fingerprints: Dict[int, Tuple],
                         colours: Dict[int, int]) -> Tuple:
    return tuple(
        (colours.get(colour, ("raw", colour)), entries)
        for colour, entries in sorted(fingerprints.items())
    )


def _tcb_labels(order, labels) -> Dict[str, Tuple[str, int]]:
    return {
        tcb.name: (labels[domain.name], position)
        for domain in order
        for position, tcb in enumerate(domain.threads)
    }


def _cores_component(kernel: Kernel, tcb_labels: Dict) -> List[Tuple]:
    cores = []
    for core_id in kernel.scheduler.scheduled_cores():
        core = kernel.machine.cores[core_id]
        state = kernel.scheduler.state(core_id)
        current = kernel.current_thread(core_id)
        cores.append((
            core_id,
            core.clock.now,
            state.position,
            state.slice_end,
            state.forced_switch_at,
            tcb_labels.get(current.name) if current is not None else None,
            core.irq.fingerprint(),
        ))
    return cores


def _domains_component(order, labels, colours, tcb_labels) -> List[Tuple]:
    domains = []
    for domain in order:
        threads = tuple(
            (
                tcb_labels[tcb.name],
                tcb.state.value,
                tcb.pc - tcb.code_base,
                tcb.steps_executed,
                # Program state *and* its parameters: params (e.g. the
                # secret) determine all future instructions, so omitting
                # them could alias states with different futures.
                (tcb.program.index, tcb.program.finished,
                 tuple(sorted(tcb.program.ctx.params.items())))
                if isinstance(tcb.program, ReplayableProgram)
                else ("opaque", tcb.steps_executed),
                (tcb.pending_obs.value, tcb.pending_obs.latency)
                if tcb.pending_obs is not None
                else None,
                tcb.wake_time,
                tcb.blocked_on_endpoint,
            )
            for tcb in domain.threads
        )
        domains.append((
            labels[domain.name],
            tuple(colours[c] for c in sorted(domain.colours)),
            domain.slice_cycles,
            domain.pad_cycles,
            tuple(sorted(domain.irq_lines)),
            threads,
            tuple(sorted(domain.rr_position.items())),
        ))
    return domains


def _observation_item(record, tcb_labels) -> Tuple:
    return (
        tcb_labels.get(record.thread, record.thread),
        record.value,
        record.latency,
    )


def _switch_item(record, labels, colours) -> Tuple:
    return (
        record.core_id,
        labels.get(record.from_domain, record.from_domain),
        labels.get(record.to_domain, record.to_domain),
        record.scheduled_at,
        record.entered_at,
        record.finished_at,
        record.pad_target,
        record.released_at,
        record.flush_cycles,
        record.lines_written_back,
        tuple(sorted(record.post_flush_fingerprints.items())),
        _relabel_colour_keys(record.llc_colour_fingerprints, colours),
    )


def _chain_digest(cache: Dict, key, items: List, encode) -> bytes:
    """Rolling digest of an append-only list, memoised on ``cache``.

    ``digest_n = H(digest_{n-1} || encode(items[n]))`` folded one item
    at a time, so the digest depends only on the item sequence -- two
    kernels whose lists grew by different increments still agree.  The
    cache entry is ``(length, digest)``; a shrink (never happens during
    exploration) falls back to recomputing from the seed.
    """
    length, digest = cache.get(key, (0, _CHAIN_SEED))
    if length > len(items):
        length, digest = 0, _CHAIN_SEED
    if length < len(items):
        for item in items[length:]:
            digest = hashlib.blake2b(
                digest + encode(item), digest_size=DIGEST_SIZE
            ).digest()
        cache[key] = (len(items), digest)
    return digest


def state_fingerprint_incremental(kernel: Kernel, observer: str = "Lo") -> str:
    """Stable hex digest of the canonical (symmetry-reduced) state.

    Two states collide iff all canonical components agree, modulo
    128-bit hash strength -- the same equality partition as digesting
    the whole canonical structure at once, which the exact oracle in
    ``tests/mc/`` does.  The accumulated evidence lists (observations,
    switch records, case log) are append-only during exploration, so
    they are folded into per-kernel rolling chain digests (cached on
    ``kernel._mc_fp_cache``, which ``Kernel.clone_for_mc`` copies) and
    each transition pays only for the suffix it appended.  Relabelling maps
    are static after build -- domains and threads are never created
    mid-exploration -- which is what makes caching relabelled items
    sound.
    """
    cache = getattr(kernel, "_mc_fp_cache", None)
    if cache is None:
        cache = {}
        kernel._mc_fp_cache = cache
    # The relabelling maps are static after build, so compute them once
    # per exploration and cache by *name* (never by object reference:
    # the cache dict is shallow-copied into clones, whose domain objects
    # are fresh -- names are the only identity safe to carry across).
    static = cache.get(("static", observer))
    if static is None:
        labels = _role_labels(kernel, observer)
        colours = _colour_map(kernel)
        order = _domain_order(kernel)
        static = (
            labels, colours,
            tuple(domain.name for domain in order),
            _tcb_labels(order, labels),
        )
        cache[("static", observer)] = static
    labels, colours, order_names, tcb_labels = static
    order = [kernel.domains[name] for name in order_names]

    cores = _cores_component(kernel, tcb_labels)
    domains = _domains_component(order, labels, colours, tcb_labels)

    observations = tuple(
        (
            labels[name],
            _chain_digest(
                cache,
                ("obs", name),
                kernel.observations[name],
                lambda record: _dumps(
                    _observation_item(record, tcb_labels), 4
                ),
            ),
        )
        for name in order_names
    )
    switches = _chain_digest(
        cache,
        "switches",
        kernel.switch_records,
        lambda record: _dumps(_switch_item(record, labels, colours), 4),
    )
    cases = _chain_digest(
        cache,
        "cases",
        kernel.case_log,
        lambda item: _dumps(
            (item[0], _relabel_context(item[1], labels)), 4
        ),
    )

    # Constant-size per-element digests in place of the full
    # microarchitectural structures: equality-equivalent, but the final
    # document stays small no matter how much hardware state exists.
    doc = _dumps((
        cores,
        tuple(domains),
        kernel.machine.digest_all(),
        kernel.machine.memory.cached_digest(),
        observations,
        switches,
        cases,
        kernel.endpoints.n_endpoints,
    ), 4)
    return hashlib.blake2b(doc, digest_size=DIGEST_SIZE).hexdigest()


def product_fingerprint(fp_a: str, fp_b: str, irq_budget: int) -> str:
    """Digest of a product state: its two system digests and IRQ budget.

    The pair is unordered (swap symmetry).  The budget left bounds which
    injections are still possible, so two pairs of equal systems with
    different budgets have different futures.
    """
    low, high = (fp_a, fp_b) if fp_a <= fp_b else (fp_b, fp_a)
    return hashlib.blake2b(
        f"{low}:{high}:{irq_budget}".encode(), digest_size=DIGEST_SIZE
    ).hexdigest()
