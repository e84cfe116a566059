"""SC-2: the simulator/kernel/checker stack must be deterministic.

Case 2a of the proof (and the two-run secret-swap bisimulation in
``core/noninterference.py``) is meaningless if two runs of the same
system can diverge for reasons other than the secret.  This checker
forbids the syntactic sources of divergence in the scoped packages:

``wall-clock``   reads of host time (``time.time``/``perf_counter``/
                 ``monotonic``/``datetime.now``...), and references to
                 those functions that are not calls (assigned, stored,
                 passed, or used as a default): a stored clock read
                 later is still a host-time read.  Simulated time is
                 ``CycleClock``; host time is nondeterministic input.
``entropy``      ``os.urandom``, ``secrets.*``, ``uuid.uuid1/4``,
                 ``random.SystemRandom``.
``global-rng``   draws from the process-global ``random`` module state
                 (or ``numpy.random.*``) and argless ``random.Random()``
                 -- experiment randomness must come from per-trial
                 seeded generator instances (``campaign/worker.py``'s
                 ``_seed_rngs`` idiom).  Explicit seeding calls are
                 allowed.
``hash-order``   ``id()`` / ``hash()`` feeding ``sorted``/``min``/
                 ``max``/``.sort`` -- address-dependent ordering varies
                 across runs under ASLR.  (``id()`` for set membership,
                 as in ``Machine.all_state_elements``, is fine.)
``set-order``    iterating a set into an ordering-sensitive sink
                 (append/extend/write/yield, or materializing via
                 ``list``/``tuple``/``join`` without ``sorted``).  Dict
                 iteration is insertion-ordered since 3.7 and is *not*
                 flagged.  The approved idiom is ``sorted(...)`` as in
                 ``core/timefn.py``.
``id-key``       dict/memo lookups keyed on ``id()`` -- ``d[id(x)]``,
                 ``d.get(id(x))``, ``d.setdefault(id(x))``.  Addresses
                 are reused after garbage collection, so a memo keyed on
                 ``id()`` can silently return a dead object's cached
                 value; key memo tables on stable identity (the element
                 name, a tuple of field values) instead.  Pure set
                 *membership* (``seen.add(id(e))``,
                 ``id(e) not in seen``) is fine: it never dereferences
                 through the address while other references are dropped.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from .findings import Finding
from .universe import ModuleInfo, Universe

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "time.thread_time", "time.thread_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_ENTROPY = frozenset({
    "os.urandom", "os.getrandom", "secrets.token_bytes", "secrets.token_hex",
    "secrets.token_urlsafe", "secrets.randbits", "secrets.randbelow",
    "secrets.choice", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom",
})

#: Draw functions on the process-global random state.
_GLOBAL_RNG_DRAWS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "binomialvariate",
})

#: numpy.random attributes that are fine *when given a seed argument*.
_NUMPY_RANDOM_SEEDED_OK = frozenset(
    {"seed", "RandomState", "Generator", "default_rng"}
)

#: Dict methods whose first argument is a lookup key.
_KEYED_LOOKUPS = frozenset({"get", "setdefault", "pop"})

_ORDER_SENSITIVE_SINKS = frozenset({"append", "extend", "write", "writelines"})
_MATERIALIZERS = frozenset({"list", "tuple"})
#: Callables whose consumption of an iterable is order-insensitive.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "set", "frozenset", "sum", "len", "any", "all", "min", "max",
    "dict", "Counter",
})


def _dotted_name(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """``np.random.rand`` -> ``numpy.random.rand`` (resolving aliases)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> the real dotted prefix it stands for."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


def _walk_scope(scope: ast.AST):
    """Walk ``scope`` without descending into nested function bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


class _SetNames:
    """Names bound to set-valued expressions, chained through scopes."""

    def __init__(self, parent: Optional["_SetNames"] = None) -> None:
        self.parent = parent
        self.names: Set[str] = set()

    def _known(self, name: str) -> bool:
        scope: Optional[_SetNames] = self
        while scope is not None:
            if name in scope.names:
                return True
            scope = scope.parent
        return False

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id in ("set", "frozenset")):
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("union", "intersection",
                                           "difference",
                                           "symmetric_difference")
                    and self.is_set_expr(node.func.value)):
                return True
            return False
        if isinstance(node, ast.Name):
            return self._known(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    def scan(self, scope: ast.AST) -> None:
        # Two passes so `a = {...}; b = a | other` resolves either order.
        for _ in range(2):
            for node in _walk_scope(scope):
                value, targets = None, []
                if isinstance(node, ast.Assign):
                    value, targets = node.value, node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    value, targets = node.value, [node.target]
                if value is not None and self.is_set_expr(value):
                    for target in targets:
                        if isinstance(target, ast.Name):
                            self.names.add(target.id)


class _DeterminismVisitor:
    """One top-down pass; tracks enclosing scope and comprehension context."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.aliases = _import_aliases(module.tree)
        self.findings: List[Finding] = []
        self.name_stack: List[str] = []
        module_sets = _SetNames()
        module_sets.scan(module.tree)
        self.set_stack: List[_SetNames] = [module_sets]
        #: Comprehensions consumed by an order-insensitive call.
        self.exempt: Set[int] = set()
        #: Callee expressions of visited calls (a call, not a reference).
        self.callees: Set[int] = set()

    # -- helpers -----------------------------------------------------------

    @property
    def qualname(self) -> str:
        return ".".join(self.name_stack) or "<module>"

    @property
    def sets(self) -> _SetNames:
        return self.set_stack[-1]

    def emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            checker="SC-2", rule=rule, path=self.module.path,
            lineno=getattr(node, "lineno", 1), module=self.module.modname,
            qualname=self.qualname, message=message,
        ))

    # -- traversal ---------------------------------------------------------

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.name_stack.append(node.name)
            scope_sets = _SetNames(parent=self.sets)
            scope_sets.scan(node)
            self.set_stack.append(scope_sets)
            for child in ast.iter_child_nodes(node):
                self.visit(child)
            self.set_stack.pop()
            self.name_stack.pop()
            return
        if isinstance(node, ast.ClassDef):
            self.name_stack.append(node.name)
            for child in ast.iter_child_nodes(node):
                self.visit(child)
            self.name_stack.pop()
            return
        if isinstance(node, ast.Call):
            self.callees.add(id(node.func))
            self.check_call(node)
        elif (isinstance(node, (ast.Attribute, ast.Name))
                and isinstance(node.ctx, ast.Load)
                and id(node) not in self.callees):
            dotted = _dotted_name(node, self.aliases)
            if dotted in _WALL_CLOCK:
                self.emit("wall-clock", node,
                          f"keeps a reference to host wall-clock time "
                          f"{dotted}; calling it later reads host time -- "
                          f"simulated time must come from CycleClock")
        elif isinstance(node, ast.Subscript):
            if _is_id_call(node.slice):
                self.emit(
                    "id-key", node,
                    "subscripts a mapping with id(); addresses are reused "
                    "after GC, so an id()-keyed memo can alias dead "
                    "objects -- key on stable identity instead",
                )
        elif isinstance(node, ast.For):
            self.check_for_loop(node)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            if (id(node) not in self.exempt and node.generators
                    and self.sets.is_set_expr(node.generators[0].iter)):
                self.emit(
                    "set-order", node,
                    "materializes an unordered set into a sequence; wrap "
                    "the iteration in sorted(...) (core/timefn.py idiom)",
                )
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    # -- rules -------------------------------------------------------------

    def check_call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func, self.aliases)
        if dotted in _WALL_CLOCK:
            self.emit("wall-clock", node,
                      f"reads host wall-clock time via {dotted}(); "
                      f"simulated time must come from CycleClock")
        elif dotted in _ENTROPY:
            self.emit("entropy", node,
                      f"draws host entropy via {dotted}; runs must be "
                      f"reproducible from the trial seed")
        elif dotted is not None and _is_global_rng_draw(dotted, node):
            self.emit("global-rng", node,
                      f"{dotted}() draws from unseeded/global RNG state; "
                      f"use a per-trial seeded generator instance")

        func_name = node.func.id if isinstance(node.func, ast.Name) else None
        attr_name = (node.func.attr
                     if isinstance(node.func, ast.Attribute) else None)

        if (attr_name in _KEYED_LOOKUPS and node.args
                and _is_id_call(node.args[0])):
            self.emit(
                "id-key", node,
                f".{attr_name}(id(...)) looks a mapping up by object "
                f"address; addresses are reused after GC -- key on "
                f"stable identity instead",
            )

        if func_name in ("sorted", "min", "max") or attr_name == "sort":
            for sub in ast.walk(node):
                if (sub is not node and isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id in ("id", "hash")):
                    self.emit("hash-order", sub,
                              f"{sub.func.id}() used for ordering; object "
                              f"addresses/hashes vary across runs (ASLR)")
            for kw in node.keywords:
                if (kw.arg == "key" and isinstance(kw.value, ast.Name)
                        and kw.value.id in ("id", "hash")):
                    self.emit("hash-order", node,
                              f"key={kw.value.id} orders by object "
                              f"address/hash, which varies across runs")

        if func_name in _ORDER_INSENSITIVE:
            for arg in node.args:
                if isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
                    self.exempt.add(id(arg))

        if (func_name in _MATERIALIZERS and node.args
                and self.sets.is_set_expr(node.args[0])):
            self.emit("set-order", node,
                      f"{func_name}() over an unordered set; wrap in "
                      f"sorted(...) first")
        if attr_name == "join" and node.args:
            arg = node.args[0]
            comp_over_set = (
                isinstance(arg, (ast.ListComp, ast.GeneratorExp))
                and arg.generators
                and self.sets.is_set_expr(arg.generators[0].iter)
            )
            if self.sets.is_set_expr(arg) or comp_over_set:
                self.emit("set-order", node,
                          "joins an unordered set into a string; sort first")
                if isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
                    self.exempt.add(id(arg))

    def check_for_loop(self, node: ast.For) -> None:
        if not self.sets.is_set_expr(node.iter):
            return
        for sub in ast.walk(node):
            is_sink = (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _ORDER_SENSITIVE_SINKS
            ) or isinstance(sub, (ast.Yield, ast.YieldFrom)) or (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "print"
            )
            if is_sink:
                self.emit("set-order", sub,
                          "iterates an unordered set into an "
                          "ordering-sensitive sink; iterate sorted(...) "
                          "instead (core/timefn.py idiom)")
                break


def _is_id_call(node: ast.expr) -> bool:
    """True for a bare ``id(...)`` call expression."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


def _is_global_rng_draw(dotted: str, node: ast.Call) -> bool:
    parts = dotted.split(".")
    if len(parts) == 2 and parts[0] == "random":
        if parts[1] in _GLOBAL_RNG_DRAWS:
            return True
        # random.Random() with no seed argument seeds itself from the OS.
        return parts[1] == "Random" and not node.args and not node.keywords
    if len(parts) == 3 and parts[0] == "numpy" and parts[1] == "random":
        if parts[2] in _NUMPY_RANDOM_SEEDED_OK:
            return (parts[2] in ("default_rng", "RandomState")
                    and not node.args and not node.keywords)
        return True
    return False


def check_determinism(
    universe: Universe, scope_modules: Set[str]
) -> List[Finding]:
    findings: List[Finding] = []
    for module in universe.modules:
        if module.modname not in scope_modules:
            continue
        visitor = _DeterminismVisitor(module)
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
    return findings
