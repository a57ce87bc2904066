"""Project-wide symbol table for the whole-program lint rules.

The per-file rules (RL001, RL002, RL004) read one AST at a time; the
whole-program rules (RL006 fork safety, RL008 cache invalidation) need to
answer questions no single file can: *which function
does this imported name refer to?*, *is this module-level name mutable
state or a constant?*, *where is this class defined?*.  This module builds
that resolution layer once per lint run:

* :class:`ModuleSymbols` -- one parsed module's top-level functions,
  classes, module-level assignments, and import aliases (including
  ``import x as y`` / ``from x import f as g`` and relative imports);
* :class:`ProjectSymbols` -- every module keyed by all dotted suffixes of
  its path (so ``repro.experiments.engine`` and fixture-package paths both
  resolve), a global name -> definitions index for conservative fallbacks,
  and :meth:`ProjectSymbols.resolve_name`, which follows import/alias
  chains -- through ``__init__.py`` re-exports, with a cycle guard -- to
  the defining function, class, or module-level binding.

Mutability classification is deliberately conservative in the *sound*
direction for RL006: a module-level name counts as **mutable state** when
it is bound to a mutable container (dict/list/set/... display or
constructor) *and* some function in the project mutates it (method call,
subscript store, ``del``), or when any function rebinds it through a
``global`` statement.  Names only ever assigned at module level with
immutable constant values (ints, strings, tuples of constants, ...) are
constants and never flagged.

Everything here is static: nothing imports or executes the code under
analysis, and one :func:`project_symbols` result is memoized per lint run
so the three whole-program checkers share a single build.
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.analysis.lint.framework import SourceFile

#: Constructor names whose call produces a mutable container.
MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "Counter", "deque", "OrderedDict"}
)

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "add",
        "discard",
        "setdefault",
        "appendleft",
        "popleft",
        "sort",
        "reverse",
        "__setitem__",
    }
)


@dataclass
class FunctionInfo:
    """One function or method definition anywhere in the linted tree."""

    qualname: str  # "<path>::Outer.inner" -- unique across the project.
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: SourceFile
    module: "ModuleSymbols"
    class_name: str | None = None
    nested: bool = False  # Defined inside another function (a closure).

    @property
    def decorator_names(self) -> tuple[str, ...]:
        return tuple(dotted_name(d) or "" for d in self.node.decorator_list)


@dataclass
class ClassInfo:
    """One top-level class definition: its methods and class-level assigns."""

    name: str
    node: ast.ClassDef
    source: SourceFile
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Class-body assignments ``name = value`` / ``name: T = value``.
    class_assigns: dict[str, ast.expr | None] = field(default_factory=dict)


@dataclass
class ModuleGlobal:
    """One module-level name binding and its project-wide mutation record."""

    name: str
    source: SourceFile
    node: ast.stmt
    value: ast.expr | None
    mutable_value: bool = False
    constant_value: bool = False
    #: Sites (FunctionInfo) that mutate or rebind this global from inside a
    #: function body (filled by the project pass).
    function_mutators: list[FunctionInfo] = field(default_factory=list)
    #: Rebound through a ``global`` statement somewhere.
    global_rebound: bool = False

    @property
    def is_mutable_state(self) -> bool:
        """Whether RL006 should treat this name as cross-process hazard state.

        A mutable container that no function ever touches is a de-facto
        constant (e.g. a literal registry consulted read-only at class scope)
        -- only containers with an in-function mutation site, or names
        rebound via ``global``, count as state.
        """
        return (self.mutable_value and bool(self.function_mutators)) or self.global_rebound


@dataclass
class ImportAlias:
    """One imported local name: ``import m as a`` / ``from m import n as a``."""

    alias: str
    module: str  # Dotted module path (absolute form; relative dots resolved).
    original: str | None  # None for ``import m``; the source name otherwise.
    node: ast.stmt


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Call):  # e.g. ``@decorator(option=True)``
        return dotted_name(node.func)
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def module_path_of(source: SourceFile) -> str:
    """The dotted path of a source file (``a/b/c.py`` -> ``a.b.c``)."""
    path = source.path
    if path.endswith(".py"):
        path = path[: -len(".py")]
    parts = [part for part in path.split("/") if part not in ("", ".")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def is_mutable_container_value(value: ast.expr | None) -> bool:
    """Whether an assigned value is a mutable container display/constructor."""
    if value is None:
        return False
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is not None and name.split(".")[-1] in MUTABLE_CONSTRUCTORS:
            return True
    return False


def is_constant_value(value: ast.expr | None) -> bool:
    """Whether a value is an immutable constant expression (const-foldable).

    Covers literals, tuples of constants, unary/binary arithmetic over
    constants (``(1 << 64) - 1``), and ``frozenset(...)`` / ``tuple(...)`` of
    constants -- everything RL006 may safely ignore.
    """
    if value is None:
        return False
    if isinstance(value, ast.Constant):
        return True
    if isinstance(value, ast.Tuple):
        return all(is_constant_value(element) for element in value.elts)
    if isinstance(value, ast.UnaryOp):
        return is_constant_value(value.operand)
    if isinstance(value, ast.BinOp):
        return is_constant_value(value.left) and is_constant_value(value.right)
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name in ("frozenset", "tuple") and not value.keywords:
            return all(is_constant_value(argument) for argument in value.args)
    return False


class ModuleSymbols:
    """Top-level symbols of one parsed module."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.module_path = module_path_of(source)
        self.is_package_init = source.path.endswith("__init__.py")
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.globals: dict[str, ModuleGlobal] = {}
        self.imports: dict[str, ImportAlias] = {}
        #: Every function/method (including nested ones), in source order.
        self.all_functions: list[FunctionInfo] = []
        self._collect()

    # ----------------------------------------------------------- collection
    def _collect(self) -> None:
        for statement in _toplevel_statements(self.source.tree):
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(statement, class_name=None, nested=False)
            elif isinstance(statement, ast.ClassDef):
                self._add_class(statement)
            elif isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._add_global(statement)
            elif isinstance(statement, (ast.Import, ast.ImportFrom)):
                self._add_import(statement)

    def _add_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
        nested: bool,
        prefix: str = "",
    ) -> FunctionInfo:
        qualname = f"{self.source.path}::{prefix}{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            node=node,
            source=self.source,
            module=self,
            class_name=class_name,
            nested=nested,
        )
        self.all_functions.append(info)
        if not nested and class_name is None:
            self.functions.setdefault(node.name, info)
        # Nested defs and methods-of-methods: recurse for the name index.
        for child in ast.iter_child_nodes(node):
            self._collect_nested(child, prefix=f"{prefix}{node.name}.")
        return info

    def _collect_nested(self, node: ast.AST, prefix: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._add_function(node, class_name=None, nested=True, prefix=prefix)
            return
        if isinstance(node, (ast.ClassDef, ast.Lambda)):
            return  # Nested classes are out of scope for resolution.
        for child in ast.iter_child_nodes(node):
            self._collect_nested(child, prefix)

    def _add_class(self, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, node=node, source=self.source)
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._add_function(
                    statement, class_name=node.name, nested=False, prefix=f"{node.name}."
                )
                info.methods.setdefault(statement.name, method)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        info.class_assigns.setdefault(target.id, statement.value)
            elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                info.class_assigns.setdefault(statement.target.id, statement.value)
        self.classes.setdefault(node.name, info)

    def _add_global(self, statement: ast.stmt) -> None:
        if isinstance(statement, ast.Assign):
            targets = [t for t in statement.targets if isinstance(t, ast.Name)]
            value: ast.expr | None = statement.value
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target] if isinstance(statement.target, ast.Name) else []
            value = statement.value
        else:  # AugAssign at module level: record as a (re)binding.
            targets = [statement.target] if isinstance(statement.target, ast.Name) else []
            value = statement.value
        for target in targets:
            existing = self.globals.get(target.id)
            if existing is None:
                self.globals[target.id] = ModuleGlobal(
                    name=target.id,
                    source=self.source,
                    node=statement,
                    value=value,
                    mutable_value=is_mutable_container_value(value),
                    constant_value=is_constant_value(value),
                )
            else:
                # Rebinding at module level (try/except fallbacks): keep the
                # first site, but widen mutability and narrow constancy.
                existing.mutable_value = existing.mutable_value or is_mutable_container_value(
                    value
                )
                existing.constant_value = existing.constant_value and is_constant_value(value)

    def _add_import(self, statement: ast.Import | ast.ImportFrom) -> None:
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                local = alias.asname or alias.name.split(".")[0]
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds the leaf.
                module = alias.name if alias.asname else alias.name.split(".")[0]
                self.imports.setdefault(
                    local, ImportAlias(local, module, None, statement)
                )
            return
        module = statement.module or ""
        if statement.level:
            # Resolve relative imports against this module's dotted path.
            parts = self.module_path.split(".")
            if not self.is_package_init:
                parts = parts[:-1]
            anchor = parts[: len(parts) - (statement.level - 1)]
            module = ".".join([*anchor, module] if module else anchor)
        for alias in statement.names:
            if alias.name == "*":
                continue  # Conservatively unresolvable.
            local = alias.asname or alias.name
            self.imports.setdefault(
                local, ImportAlias(local, module, alias.name, statement)
            )


def _toplevel_statements(module: ast.Module):
    """Module statements, descending through If/Try blocks but not defs.

    Conditionally defined symbols (``if`` guards, try/except import
    fallbacks) are still part of the module's surface.
    """
    stack: list[ast.stmt] = list(reversed(module.body))
    while stack:
        statement = stack.pop()
        yield statement
        if isinstance(statement, ast.If):
            stack.extend(reversed(statement.body))
            stack.extend(reversed(statement.orelse))
        elif isinstance(statement, ast.Try):
            stack.extend(reversed(statement.body))
            stack.extend(reversed(statement.orelse))
            stack.extend(reversed(statement.finalbody))
            for handler in statement.handlers:
                stack.extend(reversed(handler.body))


#: A resolution result: ("function", FunctionInfo) | ("class", ClassInfo)
#: | ("global", ModuleGlobal) | ("module", ModuleSymbols).
Resolved = tuple


class ProjectSymbols:
    """The symbol tables of every linted file, cross-linked for resolution."""

    def __init__(self, sources: Sequence[SourceFile]) -> None:
        self.modules: list[ModuleSymbols] = [ModuleSymbols(source) for source in sources]
        self.by_path: dict[str, ModuleSymbols] = {m.source.path: m for m in self.modules}
        # Every dotted suffix of a module's path maps to it, so absolute
        # imports resolve both for the installed package (repro.x.y) and for
        # fixture packages linted from an arbitrary directory root.
        self.by_suffix: dict[str, list[ModuleSymbols]] = {}
        for module in self.modules:
            parts = module.module_path.split(".")
            for start in range(len(parts)):
                suffix = ".".join(parts[start:])
                if suffix:
                    self.by_suffix.setdefault(suffix, []).append(module)
        self.functions_by_name: dict[str, list[FunctionInfo]] = {}
        for module in self.modules:
            for function in module.all_functions:
                self.functions_by_name.setdefault(function.name, []).append(function)
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        for module in self.modules:
            for name, info in module.classes.items():
                self.classes_by_name.setdefault(name, []).append(info)
        self._mark_function_mutations()

    # ----------------------------------------------------------- resolution
    def resolve_module(self, dotted: str) -> ModuleSymbols | None:
        """The linted module a dotted import path refers to, if any."""
        candidates = self.by_suffix.get(dotted)
        if not candidates:
            return None
        # Deterministic pick: the shortest (most specific suffix match wins
        # when the same suffix names several files, e.g. two fixture trees).
        return min(candidates, key=lambda module: (len(module.module_path), module.source.path))

    def resolve_name(
        self, module: ModuleSymbols, name: str, _seen: frozenset = frozenset()
    ) -> Resolved | None:
        """Resolve ``name`` in ``module`` to its defining symbol.

        Follows import aliases transitively -- including re-exports through
        package ``__init__.py`` files -- with a cycle guard, so mutually
        importing modules terminate with a conservative ``None``.
        """
        key = (module.source.path, name)
        if key in _seen:
            return None
        _seen = _seen | {key}
        if name in module.functions:
            return ("function", module.functions[name])
        if name in module.classes:
            return ("class", module.classes[name])
        if name in module.globals:
            return ("global", module.globals[name])
        alias = module.imports.get(name)
        if alias is None:
            return None
        target = self.resolve_module(alias.module)
        if alias.original is None:
            if target is not None:
                return ("module", target)
            return None
        if target is None:
            # ``from external import thing``: maybe the dotted path plus the
            # original segment names a linted module (``from a import b``
            # where a/b.py exists).
            submodule = self.resolve_module(f"{alias.module}.{alias.original}")
            if submodule is not None:
                return ("module", submodule)
            return None
        resolved = self.resolve_name(target, alias.original, _seen)
        if resolved is None:
            submodule = self.resolve_module(f"{alias.module}.{alias.original}")
            if submodule is not None:
                return ("module", submodule)
        return resolved

    def resolve_dotted(self, module: ModuleSymbols, dotted: str) -> Resolved | None:
        """Resolve a dotted chain ``a.b.c`` starting from a module's scope."""
        head, *rest = dotted.split(".")
        current = self.resolve_name(module, head)
        for part in rest:
            if current is None:
                return None
            kind, value = current
            if kind == "module":
                current = self.resolve_name(value, part)
            elif kind == "class":
                method = value.methods.get(part)
                current = ("function", method) if method is not None else None
            else:
                return None
        return current

    # ------------------------------------------------------- mutation marks
    def _mark_function_mutations(self) -> None:
        """Record which functions mutate or rebind which module globals."""
        for module in self.modules:
            for function in module.all_functions:
                declared_global = set()
                for node in ast.walk(function.node):
                    if isinstance(node, ast.Global):
                        declared_global.update(node.names)
                if declared_global:
                    for name in sorted(declared_global):
                        target = module.globals.get(name)
                        if target is None:
                            # ``global X`` can introduce X before any
                            # module-level binding exists.
                            target = ModuleGlobal(
                                name=name,
                                source=module.source,
                                node=function.node,
                                value=None,
                            )
                            module.globals[name] = target
                        target.global_rebound = True
                        target.function_mutators.append(function)
                locals_ = _assigned_locals(function.node)
                for node in _function_body_walk(function.node):
                    mutated = _mutated_global_name(node)
                    if mutated is None or mutated in locals_:
                        continue
                    target = module.globals.get(mutated)
                    if target is not None:
                        target.function_mutators.append(function)


def _function_body_walk(function: ast.FunctionDef | ast.AsyncFunctionDef):
    """Walk a function body without descending into nested defs/classes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _assigned_locals(function: ast.FunctionDef | ast.AsyncFunctionDef) -> set:
    """Names bound locally in a function (params, assignments, loops, withs)."""
    names = set()
    args = function.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    declared_global = set()
    for node in _function_body_walk(function):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(_target_names(target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names.update(_target_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names.update(_target_names(item.optional_vars))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.comprehension):
            names.update(_target_names(node.target))
        elif isinstance(node, (ast.NamedExpr,)) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names - declared_global


def _target_names(target: ast.expr) -> set:
    names = set()
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names.update(_target_names(element))
    elif isinstance(target, ast.Starred):
        names.update(_target_names(target.value))
    return names


def _mutated_global_name(node: ast.AST) -> str | None:
    """The bare name a statement mutates in place, if any.

    Covers ``NAME.append(...)`` (and the other mutating container methods),
    ``NAME[k] = v``, ``NAME[k] += v`` and ``del NAME[k]``.  Rebinding is
    handled separately through ``global`` statements (a plain ``NAME = ...``
    inside a function without one creates a local, not a mutation).
    """
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and isinstance(func.value, ast.Name)
        ):
            return func.value.id
    elif isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                return target.value.id
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                return target.value.id
    return None


# One memoized build per lint run: run_lint hands every cross-module checker
# the same ``sources`` list object, so identity keying is exact; only the
# latest build is retained to bound memory across many in-process runs.
_MEMO: dict = {}


def project_symbols(sources: Sequence[SourceFile]) -> ProjectSymbols:
    """The (memoized) project symbol table for one lint run's sources."""
    key = tuple((source.path, hash(source.text)) for source in sources)
    cached = _MEMO.get("entry")
    if cached is not None and cached[0] == key:
        return cached[1]
    built = ProjectSymbols(sources)
    _MEMO["entry"] = (key, built)
    return built
