"""Per-function flow model for SC-4: units, scopes, and call binding.

The taint checker analyzes *units* -- every top-level function and
method in the universe, plus every nested ``def`` (closures like the
prime-and-probe spies' ``probe`` helpers) as its own unit.  This module owns the purely
syntactic machinery: unit enumeration, scope-respecting statement
walks, parameter lists, call-argument binding against a resolved
callee, and the backward "sink-reaching names" analysis the implicit-
flow rule (R2) needs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .universe import FunctionInfo, Universe

FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class Unit:
    """One analysis unit: a function, method, or nested ``def``."""

    module: str
    path: str
    qualname: str
    name: str
    node: ast.AST
    class_name: Optional[str] = None
    #: Enclosing FunctionInfo used for call resolution (``self.m()``
    #: dispatch needs the owning class even inside a nested def).
    resolver: Optional[FunctionInfo] = None
    params: List[str] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module, self.qualname)


def param_names(node: ast.AST) -> List[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs]
    names += [a.arg for a in args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def iter_units(universe: Universe) -> Iterator[Unit]:
    """Every function/method plus nested defs, each as its own unit."""
    for func in universe.functions.values():
        yield from _units_of(func, func.node, func.qualname)


def _units_of(
    func: FunctionInfo, node: ast.AST, qualname: str
) -> Iterator[Unit]:
    yield Unit(
        module=func.module,
        path=func.path,
        qualname=qualname,
        name=node.name,
        node=node,
        class_name=func.class_name if qualname == func.qualname else None,
        resolver=func,
        params=param_names(node),
    )
    # scope_statements records nested defs without descending into them,
    # so each is seen exactly once here; recursion handles its children.
    for stmt in scope_statements(node):
        if isinstance(stmt, FunctionNode):
            yield from _units_of(func, stmt, f"{qualname}.{stmt.name}")


def scope_statements(node: ast.AST) -> List[ast.stmt]:
    """All statements in ``node``'s own scope, flattened.

    Descends through compound statements (if/for/while/try/with) but
    *not* into nested function or class definitions -- those are
    separate units (or out of scope entirely).
    """
    out: List[ast.stmt] = []
    stack: List[ast.stmt] = list(node.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, FunctionNode + (ast.ClassDef,)):
            out.append(stmt)  # recorded, but not descended into
            continue
        out.append(stmt)
        for fname in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(stmt, fname, []) or []:
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif hasattr(child, "body"):  # ExceptHandler, match_case
                    stack.extend(child.body)
    return out


def names_read(expr: Optional[ast.AST]) -> Set[str]:
    """All plain names loaded anywhere inside ``expr``."""
    if expr is None:
        return set()
    return {
        sub.id for sub in ast.walk(expr)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def target_names(target: ast.expr) -> Set[str]:
    """Plain names bound by an assignment target (incl. tuple unpack).

    ``x[k] = v`` counts as a write to ``x``; attribute targets bind no
    plain name (cross-attribute flow is a documented approximation).
    """
    out: Set[str] = set()
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name) and isinstance(
            sub.ctx, (ast.Store, ast.Del)
        ):
            out.add(sub.id)
        elif isinstance(sub, ast.Subscript) and isinstance(
            sub.ctx, ast.Store
        ):
            out |= names_read(sub.value)
    return out


def trailing_name(expr: ast.expr) -> Optional[str]:
    """Last dotted segment of a name/attribute chain, else None."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def assignments(stmts: List[ast.stmt]) -> List[Tuple[Set[str], Set[str]]]:
    """``(targets, reads)`` pairs for every assignment in the scope."""
    out: List[Tuple[Set[str], Set[str]]] = []
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            targets: Set[str] = set()
            for t in stmt.targets:
                targets |= target_names(t)
            out.append((targets, names_read(stmt.value)))
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            out.append((target_names(stmt.target), names_read(stmt.value)))
        elif isinstance(stmt, ast.AugAssign):
            out.append((
                target_names(stmt.target),
                names_read(stmt.value) | names_read(stmt.target),
            ))
        elif isinstance(stmt, ast.For):
            out.append((target_names(stmt.target), names_read(stmt.iter)))
        elif isinstance(stmt, (ast.If, ast.While)):
            # ``x := ...`` in a test binds in the enclosing scope.
            for sub in ast.walk(stmt.test):
                if isinstance(sub, ast.NamedExpr):
                    out.append((
                        target_names(sub.target), names_read(sub.value)
                    ))
    return out


def propagate_sink_reaching(
    seeds: Set[str], edges: List[Tuple[Set[str], Set[str]]]
) -> Set[str]:
    """Backward closure: a name is sink-reaching if writing it can
    influence a seed (a name read at an actual sink position)."""
    reaching = set(seeds)
    changed = True
    while changed:
        changed = False
        for targets, reads in edges:
            if targets & reaching and not reads <= reaching:
                reaching |= reads
                changed = True
    return reaching


def bind_call_args(
    callee: FunctionInfo, call: ast.Call, method_call: bool
) -> List[Tuple[str, ast.expr]]:
    """Bind call-site argument expressions to ``callee`` parameter names.

    ``method_call`` skips the implicit ``self``/``cls`` slot (attribute
    calls and constructor calls resolved to ``__init__``).  Starred and
    ``**`` arguments are ignored -- an over-approximation elsewhere, but
    here the unbound taint is simply handled by the caller's fallback
    rules.
    """
    node = callee.node
    args = node.args
    positional = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if method_call and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    bound: List[Tuple[str, ast.expr]] = []
    index = 0
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            continue
        if index < len(positional):
            bound.append((positional[index], arg))
        elif args.vararg is not None:
            bound.append((args.vararg.arg, arg))
        index += 1
    valid = set(positional) | {a.arg for a in args.kwonlyargs}
    for kw in call.keywords:
        if kw.arg is None:  # **kwargs at the call site
            continue
        if kw.arg in valid:
            bound.append((kw.arg, kw.value))
        elif args.kwarg is not None:
            bound.append((args.kwarg.arg, kw.value))
    return bound
