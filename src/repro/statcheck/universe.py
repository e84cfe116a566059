"""Parse the analyzed files into an indexed universe of modules.

The checkers never import the code under analysis -- they work on a
purely syntactic index built here: modules with derived dotted names,
classes with base-name links, functions with their AST bodies, and the
*state containers* of ``StateElement`` subclasses (the ``self.X``
attributes assigned container-valued expressions in ``__init__``, e.g.
``Cache._sets`` or ``Tlb._entries``).  Those containers are exactly the
state whose reads SC-1 requires to be ``touch()``-covered.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

#: Builtin callables whose result is a container.
_CONTAINER_BUILTINS = frozenset(
    {"list", "dict", "set", "frozenset", "defaultdict", "OrderedDict",
     "deque", "Counter"}
)

#: The root of the element class hierarchy, matched by base *name* so
#: fixture trees can declare their own stand-in base class.
ELEMENT_BASE_NAME = "StateElement"


def _is_container_expr(node: ast.AST) -> bool:
    """Is ``node`` syntactically a container-valued expression?"""
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _CONTAINER_BUILTINS):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Add)):
        # [0] * n, [..] + [..]
        return _is_container_expr(node.left) or _is_container_expr(node.right)
    return False


@dataclass
class FunctionInfo:
    """One function or method, with the syntactic facts checkers need."""

    name: str
    qualname: str            # "Cache.access" or "run_trial"
    module: str              # dotted module name
    path: str
    lineno: int
    node: ast.AST            # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None
    #: Does the body contain a ``*.touch(...)`` / ``*._touch(...)`` call?
    touches: bool = field(default=False)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module, self.qualname)


@dataclass
class ClassInfo:
    name: str
    module: str
    path: str
    lineno: int
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)   # base names (last segment)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Container-valued ``self.X`` attributes assigned in ``__init__``.
    containers: Dict[str, int] = field(default_factory=dict)  # attr -> lineno


@dataclass
class ModuleInfo:
    path: str
    modname: str
    tree: ast.Module
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def segments(self) -> Set[str]:
        return set(self.modname.split("."))


def derive_module_name(path: Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` packages.

    ``src/repro/hardware/cache.py`` -> ``repro.hardware.cache``; a file
    outside any package is just its stem.
    """
    path = path.resolve()
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists() and parent != parent.parent:
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _has_touch_call(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("touch", "_touch")):
            return True
    return False


def _collect_containers(init: ast.AST) -> Dict[str, int]:
    """``self.X = <container literal/call>`` assignments in ``__init__``."""
    containers: Dict[str, int] = {}
    for stmt in ast.walk(init):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_container_expr(value):
            continue
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                containers.setdefault(target.attr, target.lineno)
    return containers


def _index_module(path: Path, modname: str, tree: ast.Module) -> ModuleInfo:
    info = ModuleInfo(path=str(path), modname=modname, tree=tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(
                name=node.name,
                qualname=node.name,
                module=modname,
                path=str(path),
                lineno=node.lineno,
                node=node,
                touches=_has_touch_call(node),
            )
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(
                name=node.name,
                module=modname,
                path=str(path),
                lineno=node.lineno,
                node=node,
                bases=[b for b in map(_base_name, node.bases) if b],
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = FunctionInfo(
                        name=item.name,
                        qualname=f"{node.name}.{item.name}",
                        module=modname,
                        path=str(path),
                        lineno=item.lineno,
                        node=item,
                        class_name=node.name,
                        touches=_has_touch_call(item),
                    )
            init = cls.methods.get("__init__")
            if init is not None:
                cls.containers = _collect_containers(init.node)
            info.classes[node.name] = cls
    return info


class Universe:
    """Every analyzed module, plus the cross-module indexes."""

    def __init__(self, modules: List[ModuleInfo]):
        self.modules = modules
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self.module_functions_by_name: Dict[str, List[FunctionInfo]] = {}
        for module in modules:
            for cls in module.classes.values():
                self.classes_by_name.setdefault(cls.name, []).append(cls)
                for method in cls.methods.values():
                    self.methods_by_name.setdefault(method.name, []).append(method)
            for func in module.functions.values():
                self.module_functions_by_name.setdefault(func.name, []).append(func)
        self.functions: Dict[Tuple[str, str], FunctionInfo] = {}
        for module in modules:
            for func in module.functions.values():
                self.functions[func.key] = func
            for cls in module.classes.values():
                for method in cls.methods.values():
                    self.functions[method.key] = method

    # -- element classes ---------------------------------------------------

    def element_classes(self) -> List[ClassInfo]:
        """``StateElement`` subclasses, resolved by base-name closure.

        The base itself is excluded; anything deriving (transitively,
        within the universe) from a class named ``StateElement`` is an
        element class.
        """
        element_names: Set[str] = {ELEMENT_BASE_NAME}
        changed = True
        while changed:
            changed = False
            for classes in self.classes_by_name.values():
                for cls in classes:
                    if cls.name in element_names:
                        continue
                    if any(base in element_names for base in cls.bases):
                        element_names.add(cls.name)
                        changed = True
        result = []
        for name in sorted(element_names - {ELEMENT_BASE_NAME}):
            result.extend(self.classes_by_name.get(name, []))
        return result

    def class_ancestry(self, cls: ClassInfo) -> List[ClassInfo]:
        """``cls`` plus its in-universe ancestors (method resolution)."""
        seen: Set[str] = set()
        order: List[ClassInfo] = []
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            order.append(current)
            for base in current.bases:
                stack.extend(self.classes_by_name.get(base, []))
        return order


def _parse_one(path_str: str) -> ModuleInfo:
    """Parse and index a single file (top-level so it pickles to a
    process pool worker)."""
    path = Path(path_str)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=path_str)
    except SyntaxError as error:
        error.filename = path_str
        raise
    return _index_module(path, derive_module_name(path), tree)


def load_universe(files: List[Path], jobs: int = 1) -> Universe:
    """Parse ``files`` into a :class:`Universe`.

    Parsing and per-module indexing are embarrassingly parallel, so
    ``jobs > 1`` fans the files out over a process pool (AST nodes
    pickle); the cross-module indexes are built in-process afterwards.
    Raises ``SyntaxError`` (annotated with the offending path) if any
    file does not parse -- the runner maps that to exit code 2.
    """
    if jobs > 1 and len(files) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            modules = list(pool.map(
                _parse_one, [str(p) for p in files], chunksize=8
            ))
    else:
        modules = [_parse_one(str(path)) for path in files]
    return Universe(modules)
