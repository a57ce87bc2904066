"""RL008: writes to cache-backed objects must bump a version or invalidate.

``WeightedGraph``, ``SkeletonContext`` and ``HybridSession`` all carry
derived state that is expensive to rebuild (frozen CSR adjacencies,
skeleton distance tables, per-session router caches) and all use the same
discipline to keep it honest: mutators bump a version counter (or call an
invalidation hook) and readers compare versions before trusting a cache.
The upcoming delta-repair work makes those caches long-lived, so a single
mutation path that forgets the bump becomes a silent stale-read bug that
no per-file rule can see -- the write is in one module, the cache in
another.

This rule polices the discipline statically.  For every class in the
:data:`CACHE_CLASSES` registry, each instance-attribute **assignment**
(``self.x = ...`` / ``obj.x += ...``; keyed cache fills like
``self._table[k] = v`` are version-checked at the container level and
exempt by design) must satisfy one of:

* the method also bumps the class's version attribute or calls one of its
  registered invalidation hooks;
* the write *is* the version bump, or targets a **cache slot** -- an
  attribute initialized to ``None`` (in ``__init__``, as a dataclass
  default, or class-level) and filled lazily;
* the write sits inside a **lazy-fill block** ``if self.<slot> is None:``
  (counters charged while materializing a cache do not invalidate it);
* the enclosing method is ``__init__``/``__post_init__`` or a registered
  hook itself.

Writes *through variables* statically typed as a registered class
(``graph = WeightedGraph(...); graph.x = ...`` or annotated parameters)
are held to the same standard, so external code cannot quietly poke a
cached object either.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence

from repro.analysis.lint.dataflow import FunctionFacts, function_facts
from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.framework import Checker, SourceFile
from repro.analysis.lint.symbols import ClassInfo, ProjectSymbols, project_symbols

#: class name -> (version attribute, invalidation hook method names).
#: Literal registry: reviewable in one
#: place, extended in the same commit that introduces a new cached class.
CACHE_CLASSES = {
    "WeightedGraph": ("_version", ()),
    "SkeletonContext": ("graph_version", ()),
    "HybridSession": ("_graph_version", ("invalidate", "_check_version")),
}

#: Methods exempt per se: constructors and the hooks themselves.
CONSTRUCTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


class CacheInvalidationChecker(Checker):
    code = "RL008"
    name = "cache-invalidation"
    description = (
        "attribute writes on cache-backed classes must bump the version "
        "attribute or call a registered invalidation hook"
    )

    def check_project(self, sources: Sequence[SourceFile]) -> Iterable[Diagnostic]:
        project = project_symbols(sources)
        registered: dict[str, tuple[ClassInfo, str, tuple]] = {}
        for name in sorted(CACHE_CLASSES):
            version_attr, hooks = CACHE_CLASSES[name]
            for info in project.classes_by_name.get(name, ()):
                registered[name] = (info, version_attr, tuple(hooks))
                break  # Deterministic: first definition wins.
        if not registered:
            return
        slots = {
            name: _cache_slots(info) for name, (info, _, _) in sorted(registered.items())
        }
        # Pass 1: the registered classes' own methods.
        for name in sorted(registered):
            info, version_attr, hooks = registered[name]
            for method_name in sorted(info.methods):
                if method_name in CONSTRUCTOR_METHODS or method_name in hooks:
                    continue
                method = info.methods[method_name]
                facts = function_facts(project, method)
                yield from self._check_writes(
                    facts,
                    base="self",
                    class_name=name,
                    version_attr=version_attr,
                    hooks=hooks,
                    slots=slots[name],
                )
        # Pass 2: external writes through statically-typed variables.
        for module in project.modules:
            for function in module.all_functions:
                if function.class_name in registered:
                    continue  # Own methods already held to the standard.
                facts = function_facts(project, function)
                bases = sorted(
                    {
                        write.base
                        for write in facts.attribute_writes
                        if facts.local_types.get(write.base) in registered
                    }
                )
                for base in bases:
                    class_name = facts.local_types[base]
                    _, version_attr, hooks = registered[class_name]
                    yield from self._check_writes(
                        facts,
                        base=base,
                        class_name=class_name,
                        version_attr=version_attr,
                        hooks=hooks,
                        slots=slots[class_name],
                    )

    def _check_writes(
        self,
        facts: FunctionFacts,
        base: str,
        class_name: str,
        version_attr: str,
        hooks: tuple,
        slots: frozenset,
    ) -> Iterable[Diagnostic]:
        writes = [write for write in facts.attribute_writes if write.base == base]
        if not writes:
            return
        bumps_version = any(write.attr == version_attr for write in writes)
        calls_hook = bool(set(facts.method_calls.get(base, ())) & set(hooks))
        if bumps_version or calls_hook:
            return
        lazy_nodes = _lazy_fill_nodes(facts.function.node, base, slots)
        for write in writes:
            if write.attr == version_attr or write.attr in slots:
                continue
            if id(write.node) in lazy_nodes:
                continue
            yield self.diagnostic(
                facts.function.source,
                write.node,
                f"'{facts.function.name}' writes '{base}.{write.attr}' on "
                f"cache-backed {class_name} without bumping '{version_attr}' "
                f"or calling an invalidation hook "
                f"({', '.join(hooks) if hooks else 'none registered'}); "
                f"derived caches go stale",
            )


def _cache_slots(info: ClassInfo) -> frozenset:
    """Attributes of a class initialized to ``None`` (lazy cache slots)."""
    slots = set()
    for attr_name in sorted(info.class_assigns):
        value = info.class_assigns[attr_name]
        if _is_none_default(value):
            slots.add(attr_name)
    for ctor_name in sorted(CONSTRUCTOR_METHODS):
        ctor = info.methods.get(ctor_name)
        if ctor is None:
            continue
        for node in ast.walk(ctor.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _is_none_default(node.value)
                    ):
                        slots.add(target.attr)
    return frozenset(slots)


def _is_none_default(value: ast.expr | None) -> bool:
    if value is None:
        return False
    if isinstance(value, ast.Constant) and value.value is None:
        return True
    if isinstance(value, ast.Call):  # dataclasses.field(default=None)
        func = value.func
        leaf = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if leaf == "field":
            for keyword in value.keywords:
                if (
                    keyword.arg == "default"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is None
                ):
                    return True
    return False


def _lazy_fill_nodes(function_node, base: str, slots: frozenset) -> set:
    """ids of statements inside ``if <base>.<slot> is None:`` bodies."""
    lazy: set = set()
    for node in ast.walk(function_node):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and isinstance(test.left, ast.Attribute)
            and isinstance(test.left.value, ast.Name)
            and test.left.value.id == base
            and test.left.attr in slots
        ):
            continue
        for child in node.body:
            for descendant in ast.walk(child):
                lazy.add(id(descendant))
    return lazy
