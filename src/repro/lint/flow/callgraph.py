"""Project-wide call graph with type-informed dispatch.

Functions are indexed by dotted qualname
(``repro.memo.engine.FastForwardEngine._replay``). Nested functions and
classes are *not* indexed separately — their bodies belong to the
enclosing function, so a call inside a closure is attributed to the
function that closes over it (which is what reachability needs).

Call targets are resolved best-effort from several evidence sources,
in decreasing order of confidence:

* module bindings (``from repro.memo.compile import compile_segment``),
* ``self``/``cls``/``super()`` method dispatch through the class
  hierarchy — including overrides in known subclasses, so a call
  through a base class reaches every implementation in the repo,
* inferred static types: parameter/return annotations, locals assigned
  from constructor calls, and attribute types gathered from
  ``self.attr = <typed expr>`` assignments,
* parameter types propagated from resolved call sites (so a helper
  that receives ``self`` inherits its class).

Unresolvable calls simply contribute no edge: the analysis
under-approximates reachability rather than guessing, and the
replay-path entry points are checked to resolve (``flow/missing-entry``)
so the approximation cannot silently collapse to nothing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.lint.flow.modgraph import ModuleGraph, ModuleInfo

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITION_NODES = _FUNCTION_NODES + (ast.ClassDef,)


def function_span(function: ast.AST) -> Tuple[int, int]:
    """Inclusive (first, last) source line of *function*, decorators
    included."""
    first = function.lineno
    if function.decorator_list:
        first = min(first, function.decorator_list[0].lineno)
    return first, function.end_lineno


def statements(node: ast.AST) -> Iterator[ast.stmt]:
    """Every statement under *node* (a function) in source order: a
    compound statement first, then its blocks, then what follows it.
    A nested ``def`` / ``class`` is yielded whole — its body belongs
    to the enclosing function, and ``ast.walk`` of it reaches it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
            if not isinstance(child, _DEFINITION_NODES):
                yield from statements(child)
        elif not isinstance(child, ast.expr):
            # ``except`` handlers and ``match`` cases hold blocks too.
            yield from statements(child)


@dataclass
class ClassInfo:
    """One class of the analyzed package."""

    qualname: str
    name: str
    module: ModuleInfo
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> candidate class qualnames.
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One module-level function or method."""

    qualname: str
    name: str
    module: ModuleInfo
    node: ast.AST
    owner: Optional[str] = None  #: owning class qualname
    span: Tuple[int, int] = (0, 0)
    param_types: Dict[str, Set[str]] = field(default_factory=dict)
    return_types: Set[str] = field(default_factory=set)
    #: resolved callee qualnames per call expression (id(Call) keyed).
    call_targets: Dict[int, Tuple[str, ...]] = field(default_factory=dict)


class CallGraph:
    """Function index + resolved call edges for one module graph."""

    def __init__(self, modgraph: ModuleGraph):
        self.modgraph = modgraph
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.subclasses: Dict[str, Set[str]] = {}
        self.edges: Dict[str, Set[str]] = {}
        self._index()
        self._resolve_hierarchy()
        # Types and edges feed each other (a helper's param type comes
        # from a call site; resolving calls *on* that param needs the
        # type), so resolution runs to a small fixpoint.
        for _ in range(3):
            changed = self._resolve_calls()
            changed |= self._propagate_param_types()
            if not changed:
                break

    # -- indexing ---------------------------------------------------------

    def _index(self) -> None:
        for name in sorted(self.modgraph.modules):
            info = self.modgraph.modules[name]
            for statement in info.tree.body:
                if isinstance(statement, _FUNCTION_NODES):
                    self._add_function(info, statement, owner=None)
                elif isinstance(statement, ast.ClassDef):
                    self._add_class(info, statement)

    def _add_function(self, module: ModuleInfo, node,
                      owner: Optional[str]) -> None:
        parts = [module.name]
        if owner is not None:
            parts.append(owner.rsplit(".", 1)[1])
        parts.append(node.name)
        qualname = ".".join(parts)
        self.functions[qualname] = FunctionInfo(
            qualname=qualname, name=node.name, module=module, node=node,
            owner=owner, span=function_span(node),
        )
        if owner is not None:
            self.classes[owner].methods[node.name] = qualname

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        self.classes[qualname] = ClassInfo(
            qualname=qualname, name=node.name, module=module, node=node,
        )
        for statement in node.body:
            if isinstance(statement, _FUNCTION_NODES):
                self._add_function(module, statement, owner=qualname)

    # -- class hierarchy --------------------------------------------------

    def _resolve_hierarchy(self) -> None:
        for qualname in sorted(self.classes):
            cls = self.classes[qualname]
            for base in cls.node.bases:
                resolved = self._resolve_class_expr(cls.module, base)
                if resolved is not None:
                    cls.bases.append(resolved)
                    self.subclasses.setdefault(resolved, set()).add(
                        qualname
                    )

    def _resolve_class_expr(self, module: ModuleInfo,
                            node: ast.expr) -> Optional[str]:
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        return self._resolve_dotted_class(module, dotted)

    def _resolve_dotted_class(self, module: ModuleInfo,
                              dotted: str) -> Optional[str]:
        target = self._resolve_name(module, dotted)
        if target is not None and target in self.classes:
            return target
        return None

    def _resolve_name(self, module: ModuleInfo,
                      dotted: str) -> Optional[str]:
        """Resolve a (possibly dotted) name used in *module* to a
        package-level qualname, via the module's import bindings or the
        module's own top-level definitions."""
        head, _, rest = dotted.partition(".")
        target = module.bindings.get(head)
        if target is None:
            # Same-module definition?
            candidate = f"{module.name}.{dotted}"
            if (candidate in self.classes
                    or candidate in self.functions):
                return candidate
            if f"{module.name}.{head}" in self.classes and rest:
                return None  # Class.attr — not a package-level name
            return None
        resolved = target + ("." + rest if rest else "")
        # Normalize through the module table: ``repro.memo`` bound via
        # ``import repro`` style chains.
        module_name, remainder = self.modgraph.split(resolved)
        if module_name is None:
            return None
        return resolved

    def mro(self, class_qualname: str) -> List[str]:
        """Linearized repo-internal ancestry (BFS, class first)."""
        order: List[str] = []
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in order or current not in self.classes:
                continue
            order.append(current)
            queue.extend(self.classes[current].bases)
        return order

    def lookup_method(self, class_qualname: str,
                      method: str) -> Optional[str]:
        for ancestor in self.mro(class_qualname):
            hit = self.classes[ancestor].methods.get(method)
            if hit is not None:
                return hit
        return None

    def _dispatch_targets(self, class_qualname: str,
                          method: str) -> List[str]:
        """The method on *class_qualname* plus every override in known
        subclasses (virtual-dispatch approximation)."""
        targets: List[str] = []
        base_hit = self.lookup_method(class_qualname, method)
        if base_hit is not None:
            targets.append(base_hit)
        stack = [class_qualname]
        seen = {class_qualname}
        while stack:
            for sub in sorted(self.subclasses.get(stack.pop(), ())):
                if sub in seen:
                    continue
                seen.add(sub)
                stack.append(sub)
                hit = self.classes[sub].methods.get(method)
                if hit is not None and hit not in targets:
                    targets.append(hit)
        return targets

    # -- annotations ------------------------------------------------------

    def resolve_annotation(self, module: ModuleInfo,
                           node: Optional[ast.expr]) -> Set[str]:
        """Class qualnames named by an annotation expression."""
        if node is None:
            return set()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return set()
        if isinstance(node, ast.Subscript):
            # Optional[X] / Union[X, Y] / List[X]: collect every named
            # class inside — an over-approximation that is fine for
            # dispatch (extra candidates add edges, never drop them).
            found: Set[str] = set()
            for inner in ast.walk(node.slice):
                if isinstance(inner, (ast.Name, ast.Attribute)):
                    found |= self.resolve_annotation(module, inner)
            return found
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return (self.resolve_annotation(module, node.left)
                    | self.resolve_annotation(module, node.right))
        dotted = _dotted_name(node)
        if dotted is None:
            return set()
        resolved = self._resolve_dotted_class(module, dotted)
        return {resolved} if resolved is not None else set()

    # -- type environments ------------------------------------------------

    def function_env(self, fn: FunctionInfo) -> Dict[str, Set[str]]:
        """Static types of names visible in *fn* (params + locals)."""
        env: Dict[str, Set[str]] = {}
        args = fn.node.args
        all_args = (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs))
        if fn.owner is not None and all_args:
            first = all_args[0].arg
            if first in ("self", "cls"):
                env[first] = {fn.owner}
                all_args = all_args[1:]
        for arg in all_args:
            types = self.resolve_annotation(fn.module, arg.annotation)
            types |= fn.param_types.get(arg.arg, set())
            if types:
                env[arg.arg] = types
        # One deterministic pass over the statements: locals assigned
        # from constructors or annotated-return calls.
        for statement in statements(fn.node):
            for node in ast.walk(statement):
                if isinstance(node, ast.Assign):
                    types = self.expr_types(fn, env, node.value)
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            if types:
                                env.setdefault(target.id, set()).update(
                                    types)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                        node.target, ast.Name):
                    types = self.resolve_annotation(fn.module,
                                                    node.annotation)
                    if types:
                        env.setdefault(node.target.id, set()).update(
                            types)
        return env

    def expr_types(self, fn: FunctionInfo, env: Dict[str, Set[str]],
                    node: ast.expr) -> Set[str]:
        """Candidate class qualnames of *node*'s value."""
        if isinstance(node, ast.Name):
            return set(env.get(node.id, ()))
        if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name):
            base_types = env.get(node.value.id, set())
            found: Set[str] = set()
            for class_qualname in base_types:
                for ancestor in self.mro(class_qualname):
                    found |= self.classes[ancestor].attr_types.get(
                        node.attr, set())
            return found
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is not None:
                target = self._resolve_name(fn.module, dotted)
                if target in self.classes:
                    return {target}
                if target in self.functions:
                    return set(self.functions[target].return_types)
            # Method call with an annotated return type.
            for callee in fn.call_targets.get(id(node), ()):
                info = self.functions.get(callee)
                if info is not None and info.return_types:
                    return set(info.return_types)
        if isinstance(node, (ast.IfExp,)):
            return (self.expr_types(fn, env, node.body)
                    | self.expr_types(fn, env, node.orelse))
        return set()

    def _collect_attr_types(self) -> bool:
        """Gather ``self.attr`` types from every method; True when the
        tables grew (used by the resolution fixpoint)."""
        changed = False
        for qualname in sorted(self.functions):
            fn = self.functions[qualname]
            if fn.owner is None:
                continue
            cls = self.classes[fn.owner]
            env = self.function_env(fn)
            for statement in statements(fn.node):
                for node in ast.walk(statement):
                    value = None
                    target = None
                    if isinstance(node, ast.Assign):
                        value = node.value
                        targets = node.targets
                    elif isinstance(node, ast.AnnAssign):
                        value = node.value
                        targets = [node.target]
                    else:
                        continue
                    for target in targets:
                        if not (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            continue
                        types: Set[str] = set()
                        if isinstance(node, ast.AnnAssign):
                            types |= self.resolve_annotation(
                                fn.module, node.annotation)
                        if value is not None:
                            types |= self.expr_types(fn, env, value)
                        if types:
                            slot = cls.attr_types.setdefault(
                                target.attr, set())
                            if not types <= slot:
                                slot.update(types)
                                changed = True
        return changed

    # -- call resolution --------------------------------------------------

    def _resolve_calls(self) -> bool:
        for qualname in sorted(self.functions):
            fn = self.functions[qualname]
            types = self.resolve_annotation(fn.module, fn.node.returns)
            if types and not types <= fn.return_types:
                fn.return_types.update(types)
        changed = self._collect_attr_types()
        for qualname in sorted(self.functions):
            fn = self.functions[qualname]
            env = self.function_env(fn)
            edges = self.edges.setdefault(qualname, set())
            for statement in statements(fn.node):
                for node in ast.walk(statement):
                    if not isinstance(node, ast.Call):
                        continue
                    targets = self._resolve_call(fn, env, node)
                    if targets:
                        recorded = fn.call_targets.get(id(node), ())
                        if tuple(targets) != recorded:
                            fn.call_targets[id(node)] = tuple(targets)
                            changed = True
                        before = len(edges)
                        edges.update(targets)
                        changed |= len(edges) != before
        return changed

    def _resolve_call(self, fn: FunctionInfo, env: Dict[str, Set[str]],
                      node: ast.Call) -> List[str]:
        func = node.func
        # super().method(...)
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and fn.owner is not None):
            for ancestor in self.mro(fn.owner)[1:]:
                hit = self.classes[ancestor].methods.get(func.attr)
                if hit is not None:
                    return [hit]
            return []
        dotted = _dotted_name(func)
        if dotted is not None:
            target = self._resolve_name(fn.module, dotted)
            if target is not None:
                if target in self.functions:
                    return [target]
                if target in self.classes:
                    init = self.lookup_method(target, "__init__")
                    return [init] if init is not None else []
                # ``module.func`` where the binding names the module.
                module_name, remainder = self.modgraph.split(target)
                if module_name is not None and remainder:
                    candidate = f"{module_name}.{remainder}"
                    if candidate in self.functions:
                        return [candidate]
        if isinstance(func, ast.Attribute):
            receiver_types = self.expr_types(fn, env, func.value)
            targets: List[str] = []
            for class_qualname in sorted(receiver_types):
                for hit in self._dispatch_targets(class_qualname,
                                                  func.attr):
                    if hit not in targets:
                        targets.append(hit)
            return targets
        return []

    def _propagate_param_types(self) -> bool:
        """Push argument types from resolved call sites into callee
        parameter tables (how a helper that receives ``self`` or a
        constructed instance learns its class)."""
        changed = False
        for qualname in sorted(self.functions):
            fn = self.functions[qualname]
            env = self.function_env(fn)
            for statement in statements(fn.node):
                for node in ast.walk(statement):
                    if not isinstance(node, ast.Call):
                        continue
                    for callee_name in fn.call_targets.get(id(node), ()):
                        callee = self.functions.get(callee_name)
                        if callee is None:
                            continue
                        changed |= self._bind_arguments(fn, env, node,
                                                        callee)
        return changed

    def _bind_arguments(self, fn: FunctionInfo, env, node: ast.Call,
                        callee: FunctionInfo) -> bool:
        params = [a.arg for a in (list(callee.node.args.posonlyargs)
                                  + list(callee.node.args.args))]
        if callee.owner is not None and params and params[0] in (
                "self", "cls"):
            params = params[1:]
        changed = False
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred) or position >= len(params):
                break
            types = self.expr_types(fn, env, arg)
            if types:
                slot = callee.param_types.setdefault(params[position],
                                                     set())
                if not types <= slot:
                    slot.update(types)
                    changed = True
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            types = self.expr_types(fn, env, keyword.value)
            if types:
                slot = callee.param_types.setdefault(keyword.arg, set())
                if not types <= slot:
                    slot.update(types)
                    changed = True
        return changed

    # -- reachability -----------------------------------------------------

    def reachable_from(self,
                       entries: Sequence[str]) -> FrozenSet[str]:
        """Transitive closure of call edges from *entries*."""
        seen: Set[str] = set()
        stack = [e for e in entries if e in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return frozenset(seen)

    def match_suffix(self, suffix: str) -> List[str]:
        """Function qualnames ending in *suffix* at a dot boundary."""
        hits = []
        for qualname in sorted(self.functions):
            if qualname == suffix or qualname.endswith("." + suffix):
                hits.append(qualname)
        return hits


def _dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
