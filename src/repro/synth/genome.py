"""The attack-program genome: a typed DSL of probe primitives.

A genome is a short sequence of *genes* -- touch/stride sweeps, timed
probe sweeps, kernel-text flushes and reloads, branch training, and
yield-to-victim waits -- plus a decoder that turns the timed
measurements of one round into a channel observation.  Genes are plain
frozen dataclasses with small integer fields, so genomes serialise to
JSON, travel to campaign workers, and mutate by integer jitter.

Compilation targets :class:`repro.kernel.objects.ReplayableProgram`: the
genome dict rides in ``ctx.params`` and a module-level step function
interprets a flat micro-op plan, so every discovered attack is
replayable, snapshottable and model-checkable exactly like the
hand-written suite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple, Type, Union

from ..hardware.isa import (
    Access,
    Branch,
    Compute,
    FlushLine,
    ProgramContext,
    ReadTime,
    Syscall,
)

#: Primitive families the mutation bandit arbitrates between.
FAMILIES = ("touch", "timed", "flush", "text", "branch", "wait")

DECODERS = ("argmax", "argmin", "bins")

#: Hard cap on genes per genome and micro-ops per compiled round.
MAX_OPS = 10
MAX_PLAN_OPS = 512

#: Inclusive bounds per integer gene field (shared by validation,
#: mutation jitter and the hypothesis strategies in the test suite).
FIELD_BOUNDS: Dict[str, Tuple[int, int]] = {
    "page": (0, 15),
    "line": (0, 15),
    "count": (1, 24),
    "stride_lines": (-8, 8),
    "pattern": (0, 255),
    "cycles": (64, 16384),
    "bin_width": (2, 128),
}


@dataclass(frozen=True)
class TouchSweep:
    """Untimed strided data accesses (the *prime* / trigger primitive)."""

    page: int = 0
    line: int = 0
    count: int = 8
    stride_lines: int = 1
    write: bool = False

    family = "touch"
    kind = "touch"


@dataclass(frozen=True)
class TimedSweep:
    """Strided data accesses bracketed by ``ReadTime`` (the *probe*)."""

    page: int = 0
    line: int = 0
    count: int = 1
    stride_lines: int = 1

    family = "timed"
    kind = "timed"


@dataclass(frozen=True)
class FlushText:
    """``clflush`` a run of (possibly cloned) kernel-text lines."""

    line: int = 0
    count: int = 4

    family = "flush"
    kind = "flush"


@dataclass(frozen=True)
class FlushData:
    """``clflush`` a run of the spy's own data lines (every level).

    The reset primitive for residue channels: clearing a candidate line
    from the whole hierarchy makes its next timed access report where
    the line got *re*-filled from (e.g. by a prefetch another domain
    trained).
    """

    page: int = 0
    line: int = 0
    count: int = 1
    stride_lines: int = 1

    family = "flush"
    kind = "flush-data"


@dataclass(frozen=True)
class TimedTextReload:
    """Timed reload of kernel-text lines (the *reload* of flush+reload)."""

    line: int = 0
    count: int = 4

    family = "text"
    kind = "text"


@dataclass(frozen=True)
class BranchTrain:
    """Untimed conditional branches following a taken-bit pattern."""

    pattern: int = 0b10101010
    count: int = 8

    family = "branch"
    kind = "branch-train"


@dataclass(frozen=True)
class TimedBranch:
    """Branches bracketed by ``ReadTime`` (mispredict-latency probe)."""

    pattern: int = 0b10101010
    count: int = 8

    family = "branch"
    kind = "branch-timed"


@dataclass(frozen=True)
class YieldToVictim:
    """Sleep through (at least) one victim slice via the sleep syscall."""

    cycles: int = 8192

    family = "wait"
    kind = "yield"


@dataclass(frozen=True)
class Delay:
    """Pure compute delay (phase alignment without a kernel entry)."""

    cycles: int = 256

    family = "wait"
    kind = "delay"


Gene = Union[
    TouchSweep,
    TimedSweep,
    FlushText,
    FlushData,
    TimedTextReload,
    BranchTrain,
    TimedBranch,
    YieldToVictim,
    Delay,
]

GENE_TYPES: Tuple[Type, ...] = (
    TouchSweep,
    TimedSweep,
    FlushText,
    FlushData,
    TimedTextReload,
    BranchTrain,
    TimedBranch,
    YieldToVictim,
    Delay,
)

_KIND_TO_TYPE: Dict[str, Type] = {cls.kind: cls for cls in GENE_TYPES}
_FAMILY_TO_TYPES: Dict[str, List[Type]] = {}
for _cls in GENE_TYPES:
    _FAMILY_TO_TYPES.setdefault(_cls.family, []).append(_cls)


@dataclass(frozen=True)
class Genome:
    """An attack program: probe genes plus a per-round decoder."""

    ops: Tuple[Gene, ...]
    decoder: str = "bins"
    bin_width: int = 16

    def to_dict(self) -> dict:
        return {
            "ops": [
                {"kind": gene.kind, **{
                    f.name: getattr(gene, f.name) for f in fields(gene)
                }}
                for gene in self.ops
            ],
            "decoder": self.decoder,
            "bin_width": self.bin_width,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Genome":
        ops = []
        for entry in data["ops"]:
            entry = dict(entry)
            kind = entry.pop("kind")
            gene_cls = _KIND_TO_TYPE.get(kind)
            if gene_cls is None:
                raise ValueError(f"unknown gene kind {kind!r}")
            ops.append(gene_cls(**entry))
        genome = cls(
            ops=tuple(ops),
            decoder=str(data.get("decoder", "bins")),
            bin_width=int(data.get("bin_width", 16)),
        )
        validate_genome(genome)
        return genome

    def families(self) -> Tuple[str, ...]:
        return tuple(gene.family for gene in self.ops)


class GenomeError(ValueError):
    """A genome violates the DSL's typing/bounds contract."""


def validate_genome(genome: Genome) -> None:
    """Raise :class:`GenomeError` unless ``genome`` is well-typed."""
    if not isinstance(genome.ops, tuple) or not genome.ops:
        raise GenomeError("genome needs at least one gene (as a tuple)")
    if len(genome.ops) > MAX_OPS:
        raise GenomeError(f"genome exceeds {MAX_OPS} genes")
    if genome.decoder not in DECODERS:
        raise GenomeError(f"unknown decoder {genome.decoder!r}")
    _check_bounds("bin_width", genome.bin_width)
    for gene in genome.ops:
        if not isinstance(gene, GENE_TYPES):
            raise GenomeError(f"not a gene: {gene!r}")
        for f in fields(gene):
            value = getattr(gene, f.name)
            if f.name == "write":
                if not isinstance(value, bool):
                    raise GenomeError(f"{gene.kind}.write must be bool")
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise GenomeError(f"{gene.kind}.{f.name} must be int")
            _check_bounds(f.name, value)


def _check_bounds(name: str, value: int) -> None:
    low, high = FIELD_BOUNDS[name]
    if not low <= value <= high:
        raise GenomeError(f"{name}={value} outside [{low}, {high}]")


def classify(genome: Genome) -> Tuple[str, ...]:
    """Attack-class labels a genome structurally qualifies for.

    ``cache-timing``: times data probes at all.
    ``prime+probe``: additionally primes data state before probing.
    ``flush+reload``: flushes kernel text and times its reload.
    ``branch``: trains or times the branch predictor.
    Labels describe mechanism, not success -- capacity is measured.
    """
    kinds = {gene.kind for gene in genome.ops}
    labels = []
    if "timed" in kinds:
        labels.append("cache-timing")
    if "timed" in kinds and "touch" in kinds:
        labels.append("prime+probe")
    if "flush" in kinds and "text" in kinds:
        labels.append("flush+reload")
    if "branch-train" in kinds or "branch-timed" in kinds:
        labels.append("branch")
    return tuple(labels)


# ----------------------------------------------------------------------
# Random generation / mutation / crossover (all rng-explicit: SC-2)
# ----------------------------------------------------------------------

def random_gene(rng, family: Optional[str] = None) -> Gene:
    """A random gene, optionally constrained to one primitive family."""
    choices = _FAMILY_TO_TYPES[family] if family else list(GENE_TYPES)
    gene_cls = rng.choice(choices)
    values = {}
    for f in fields(gene_cls):
        if f.name == "write":
            values[f.name] = bool(rng.getrandbits(1))
        else:
            low, high = FIELD_BOUNDS[f.name]
            values[f.name] = rng.randint(low, high)
    return gene_cls(**values)


def random_genome(rng, min_ops: int = 2, max_ops: int = 6) -> Genome:
    """A random well-typed genome of ``min_ops..max_ops`` genes."""
    n_ops = rng.randint(min_ops, min(max_ops, MAX_OPS))
    ops = tuple(random_gene(rng) for _ in range(n_ops))
    decoder = rng.choice(DECODERS)
    bin_width = rng.choice((4, 8, 16, 32, 64))
    return Genome(ops=ops, decoder=decoder, bin_width=bin_width)


def _jitter_gene(gene: Gene, rng) -> Gene:
    """Perturb one random field of ``gene`` within its bounds."""
    mutable = [f for f in fields(gene)]
    f = rng.choice(mutable)
    values = {g.name: getattr(gene, g.name) for g in fields(gene)}
    if f.name == "write":
        values[f.name] = not values[f.name]
    else:
        low, high = FIELD_BOUNDS[f.name]
        delta = rng.choice((-4, -2, -1, 1, 2, 4))
        values[f.name] = max(low, min(high, values[f.name] + delta))
    return type(gene)(**values)


def mutate(
    genome: Genome, rng, family: Optional[str] = None
) -> Tuple[Genome, str]:
    """One mutation step; returns ``(child, family_touched)``.

    ``family`` (usually the bandit's pick) biases structural mutations:
    inserts draw a gene from that family, and jitters prefer an existing
    gene of that family.  The returned family is what was actually
    touched, for bandit credit assignment.
    """
    ops = list(genome.ops)
    decoder, bin_width = genome.decoder, genome.bin_width
    moves = ["jitter", "insert", "decoder"]
    if len(ops) > 1:
        moves += ["delete", "swap"]
    move = rng.choice(moves)
    touched = family or "wait"

    if move == "insert" and len(ops) < MAX_OPS:
        gene = random_gene(rng, family)
        ops.insert(rng.randint(0, len(ops)), gene)
        touched = gene.family
    elif move == "delete" and len(ops) > 1:
        removed = ops.pop(rng.randrange(len(ops)))
        touched = removed.family
    elif move == "swap" and len(ops) > 1:
        i = rng.randrange(len(ops))
        j = rng.randrange(len(ops))
        ops[i], ops[j] = ops[j], ops[i]
        touched = ops[i].family
    elif move == "decoder":
        if rng.getrandbits(1):
            decoder = rng.choice(DECODERS)
        else:
            bin_width = rng.choice((4, 8, 16, 32, 64))
    else:  # jitter
        preferred = [
            i for i, gene in enumerate(ops) if gene.family == family
        ] if family else []
        index = rng.choice(preferred) if preferred else rng.randrange(len(ops))
        ops[index] = _jitter_gene(ops[index], rng)
        touched = ops[index].family
    child = Genome(ops=tuple(ops), decoder=decoder, bin_width=bin_width)
    validate_genome(child)
    return child, touched


def crossover(a: Genome, b: Genome, rng) -> Genome:
    """One-point crossover of the gene sequences; decoder from a parent."""
    cut_a = rng.randint(0, len(a.ops))
    cut_b = rng.randint(0, len(b.ops))
    ops = (a.ops[:cut_a] + b.ops[cut_b:])[:MAX_OPS]
    if not ops:
        ops = (a.ops[0],)
    parent = a if rng.getrandbits(1) else b
    child = Genome(
        ops=ops, decoder=parent.decoder, bin_width=parent.bin_width
    )
    validate_genome(child)
    return child


# ----------------------------------------------------------------------
# Compilation to a ReplayableProgram micro-op plan
# ----------------------------------------------------------------------

def compile_plan(genome_dict: dict, ctx: ProgramContext) -> List[tuple]:
    """Flatten a genome dict into per-round micro-ops for ``ctx``'s layout.

    Gene page/line parameters are taken modulo the thread's actual
    geometry, so any well-typed genome compiles on any machine.  Plans
    are truncated at :data:`MAX_PLAN_OPS` micro-ops per round.
    """
    lines_per_page = max(1, ctx.page_size // ctx.line_size)
    n_pages = max(1, ctx.data_size // ctx.page_size)
    total_lines = n_pages * lines_per_page
    text_lines = (
        max(1, ctx.shared_text_size // ctx.line_size)
        if ctx.shared_text_base is not None and ctx.shared_text_size
        else 0
    )
    plan: List[tuple] = []
    for entry in genome_dict["ops"]:
        kind = entry["kind"]
        if kind == "touch" or kind == "timed":
            start = (
                (entry["page"] % n_pages) * lines_per_page
                + entry["line"] % lines_per_page
            )
            stride = entry["stride_lines"]
            addrs = [
                ctx.data_base
                + ((start + i * stride) % total_lines) * ctx.line_size
                for i in range(entry["count"])
            ]
            if kind == "timed":
                plan.append(("t0",))
            write = bool(entry.get("write", False))
            for addr in addrs:
                plan.append(("acc", addr, write))
            if kind == "timed":
                plan.append(("t1",))
        elif kind == "flush-data":
            start = (
                (entry["page"] % n_pages) * lines_per_page
                + entry["line"] % lines_per_page
            )
            stride = entry["stride_lines"]
            for i in range(entry["count"]):
                line = (start + i * stride) % total_lines
                plan.append(("fl", ctx.data_base + line * ctx.line_size))
        elif kind == "flush" and text_lines:
            for i in range(entry["count"]):
                line = (entry["line"] + i) % text_lines
                plan.append(
                    ("fl", ctx.shared_text_base + line * ctx.line_size)
                )
        elif kind == "text" and text_lines:
            plan.append(("t0",))
            for i in range(entry["count"]):
                line = (entry["line"] + i) % text_lines
                plan.append(
                    ("acc", ctx.shared_text_base + line * ctx.line_size, False)
                )
            plan.append(("t1",))
        elif kind == "branch-train" or kind == "branch-timed":
            if kind == "branch-timed":
                plan.append(("t0",))
            for i in range(entry["count"]):
                plan.append(("br", bool(entry["pattern"] >> (i % 8) & 1)))
            if kind == "branch-timed":
                plan.append(("t1",))
        elif kind == "yield":
            plan.append(("sys", entry["cycles"]))
        elif kind == "delay":
            plan.append(("cmp", entry["cycles"]))
        if len(plan) >= MAX_PLAN_OPS:
            break
    return plan[:MAX_PLAN_OPS]


def decode_feature(decoder: str, bin_width: int, vec: List[int]):
    """Fold one round's timed-latency vector into a channel observation."""
    if not vec:
        return 0
    if decoder == "argmax":
        return max(range(len(vec)), key=vec.__getitem__)
    if decoder == "argmin":
        return min(range(len(vec)), key=vec.__getitem__)
    return tuple(latency // bin_width for latency in vec)


def genome_step(ctx: ProgramContext, index: int, observation):
    """``ReplayableProgram`` step function interpreting a compiled plan.

    All history lives in ``ctx.params`` (the sanctioned pattern for
    snapshot-safe programs): the lazily built plan, the running timestamp
    and latency vector, and the per-round decoded features appended to
    ``ctx.params["results"]``.
    """
    state = ctx.params.get("_synth_state")
    if state is None:
        state = {
            "plan": compile_plan(ctx.params["genome"], ctx),
            "t0": 0,
            "vec": [],
        }
        ctx.params["_synth_state"] = state
    plan = state["plan"]
    n_ops = len(plan)
    if n_ops == 0:
        return None
    rounds = int(ctx.params.get("rounds", 4))
    genome_dict = ctx.params["genome"]

    if index > 0:
        previous = plan[(index - 1) % n_ops]
        if previous[0] == "t0":
            state["t0"] = observation.value
        elif previous[0] == "t1":
            state["vec"].append(observation.value - state["t0"])
        if index % n_ops == 0:
            ctx.params["results"].append(decode_feature(
                genome_dict.get("decoder", "bins"),
                int(genome_dict.get("bin_width", 16)),
                state["vec"],
            ))
            state["vec"] = []

    if index >= rounds * n_ops:
        return None
    op = plan[index % n_ops]
    tag = op[0]
    if tag == "acc":
        return Access(op[1], write=op[2], value=index & 0xFF)
    if tag == "t0" or tag == "t1":
        return ReadTime()
    if tag == "fl":
        return FlushLine(op[1])
    if tag == "br":
        return Branch(taken=op[1])
    if tag == "sys":
        return Syscall("sleep", (op[1],))
    return Compute(op[1])
