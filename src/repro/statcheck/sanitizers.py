"""The SC-4 policy tables: sources, sinks, sanctioned conduits.

The paper's reduction (Sect. 5.1-5.2) is sound only if every Hi->Lo
information flow routes through a *declared* microarchitectural state
element -- because those are exactly the flows the aISA contract, the
flush/pad/colour mechanisms, and the runtime obligations govern.  SC-4
enforces that routing property syntactically; this module is the single
place where its policy lives:

* **Sources** -- where secrets enter: parameters named ``secret*`` and
  reads of ``*.params["secret"|"symbol"|"bit"]`` (the keys under which
  victims, trojans and the secret-swap harness carry Hi data).
* **Sinks** -- where Lo can look: appends to observation/trace/evidence
  accumulators, construction of the Lo-visible record types
  (``SwitchRecord``, ``ChannelResult``, ...), and latencies returned
  from element entry points.
* **Sanitizers** -- the sanctioned conduits: ISA micro-op constructors
  (executed by ``Core.execute_user``, whose state reads SC-1 proves are
  ``touch()``-instrumented) and calls that resolve to ``touch()``-ing
  functions or registered-element methods.  Taint that crosses one of
  these *has* routed through declared state, which is precisely the
  property being checked -- so it is absorbed, and any residual channel
  is SC-1/PO-1's jurisdiction, not SC-4's.
* **Declassifiers** -- explicit, justified endorsements of flows that
  are Hi->Lo only to the *analyst*, not to the modelled Lo observer.

Keeping the tables here (rather than inline in the checker) makes the
policy reviewable the same way ``statcheck.baseline.json`` is: every
exemption is enumerable and carries its reason.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from .universe import FunctionInfo

#: Parameters with this prefix carry Hi data by convention everywhere in
#: the repo (``secret``, ``secret_a``, ``secret_b``, ``secrets``...).
SECRET_PARAM_PREFIX = "secret"

#: ``ProgramContext.params`` keys under which programs receive Hi data:
#: victims read ``params["symbol"]``/``params["secret"]``, trojans read
#: ``params["bit"]``.
SECRET_PARAM_KEYS: FrozenSet[str] = frozenset({"secret", "symbol", "bit"})

#: ISA micro-op constructors (``repro.hardware.isa``).  A secret folded
#: into a micro-op operand is *the sanctioned channel*: the op executes
#: under ``Core.execute_user``, every state read it causes is
#: ``touch()``-instrumented (proved by SC-1), so the flow traverses a
#: registered element by construction.
ISA_OP_CTORS: FrozenSet[str] = frozenset({
    "Access", "Compute", "Branch", "ReadTime", "FlushLine", "Syscall",
    "Halt",
})

#: Accumulator names that are Lo-observable when written: observation
#: traces, latency lists, evidence/record stores, and the projections
#: built by ``lo_projection``.  Name-based on purpose -- the repo's
#: convention is strong, and a new Lo-visible accumulator *should* have
#: to either use one of these names or extend this table in review.
SINK_CONTAINER_NAMES: FrozenSet[str] = frozenset({
    "trace", "traces", "lo_trace", "observations", "samples", "evidence",
    "projections", "records", "switch_records", "results", "latencies",
})

#: Lo-visible record constructors: their fields are exactly what the
#: observer-side analyses read.
SINK_CTOR_NAMES: FrozenSet[str] = frozenset({
    "SwitchRecord", "ChannelResult", "ObservationRecord", "Observation",
})

#: Element entry points whose *return value* is a Lo-visible latency.
#: Only applied to methods of ``StateElement`` subclasses that do not
#: themselves touch -- a touching method has already routed the
#: dependence through the instrumentation.
SINK_RETURN_METHODS: FrozenSet[str] = frozenset({
    "access", "execute", "execute_user", "step", "cached_access",
})

#: Container write methods through which values reach a sink container.
MUTATOR_METHODS: FrozenSet[str] = frozenset({
    "append", "extend", "insert", "add",
})

#: Explicit declassifications: (module, qualname, parameter) triples
#: whose incoming taint is endorsed, each with its justification.  These
#: are policy, not waivers -- a flow that is Hi->Lo only in the
#: analyst's frame (ground-truth labels, not modelled observations)
#: does not violate the routing property.
DECLASSIFIED_PARAMS: Dict[Tuple[str, str, str], str] = {
    ("repro.attacks.harness", "run_symbol_sweep", "symbols"): (
        "the swept symbol is the experimenter's ground-truth label for "
        "each run: it chooses which system ``build`` boots and is paired "
        "with the run's observations to *measure* the channel; the "
        "modelled Lo observer never sees it -- only the observation "
        "column is Lo-visible, and the builders and programs that carry "
        "the symbol into the system are checked where they are defined"
    ),
    ("repro.core.noninterference", "sweep_secrets", "secrets"): (
        "the swept secrets are the experimenter's inputs to the two-run "
        "comparison: they choose which systems ``build`` boots, label "
        "each verdict, and let a repeated secret reuse its first verdict; "
        "every Lo-visible value the verdict compares is produced by the "
        "simulated runs, whose builders and programs SC-4 checks where "
        "they are defined"
    ),
}


def is_secret_param(name: str) -> bool:
    return name.startswith(SECRET_PARAM_PREFIX)


def is_declassified(module: str, qualname: str, param: str) -> bool:
    return (module, qualname, param) in DECLASSIFIED_PARAMS


def is_sanitizing_callee(
    callee: FunctionInfo, element_class_names: FrozenSet[str]
) -> bool:
    """Does a call resolving to ``callee`` absorb taint?

    True for ``touch``/``_touch`` themselves, for any function whose
    body touches, and for registered-element methods: a flow through
    any of these has, by SC-1, traversed instrumented state.
    """
    if callee.name in ("touch", "_touch"):
        return True
    if callee.touches:
        return True
    return callee.class_name is not None and (
        callee.class_name in element_class_names
    )
