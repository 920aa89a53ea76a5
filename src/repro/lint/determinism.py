"""Determinism lint (checker family 1).

FastSim's correctness claim is that replaying memoized p-actions is
**bit-identical** to detailed simulation. That only holds if the
simulator is a pure function of (configuration, outcome sequence) —
any value that differs between two host runs, or between the record
pass and the replay pass, poisons the recorded action chains.

Rules
-----

The checker emits every rule on every module; which findings of the
*strict scope only* rules survive is decided afterwards, in one place
(:func:`in_strict_scope`).

``det/unseeded-random`` (everywhere)
    Module-level ``random`` functions (``random.random()``,
    ``random.choice(...)``, a bare ``from random import randint``),
    ``random.Random()`` constructed without a seed, and other entropy
    sources (``os.urandom``, ``uuid.uuid4``, ``secrets``). Simulation
    inputs must flow from an explicit ``random.Random(seed)``.

``det/time-dependent`` (strict scope only)
    Wall/CPU-clock reads (``time.time``, ``perf_counter``,
    ``datetime.now``, …). Host time differs between record and replay.

``det/id-dependent`` (strict scope only)
    ``id(...)`` — CPython addresses differ run to run, so an ``id``
    must never reach an outcome key, edge table, or statistic.
    Exempt: id() used purely as an identity *key* (set membership,
    dict subscript/key) — both runs see the same partition even
    though the raw addresses differ (:func:`identity_key_uses`).

``det/salted-hash`` (strict scope only)
    Builtin ``hash(...)`` — string hashing is salted per process
    (``PYTHONHASHSEED``), the classic cross-run nondeterminism.

``det/set-iteration`` (strict scope only)
    Iterating a set (directly, via a local assigned from a set
    expression, or via ``list``/``tuple`` conversion). Set order is
    arbitrary, so it may differ between the recording run and a replay
    that reconstructed an equal set. ``sorted(...)`` wrapping is the
    sanctioned fix.

``det/dict-value-iteration`` (strict scope only)
    Iterating ``.values()`` / ``.keys()`` / ``.items()``. Two dicts
    that compare equal (as memoized configurations do) may still have
    different insertion orders, so iteration order is not part of the
    configuration key. ``sorted(...)`` wrapping is the sanctioned fix.
"""

from __future__ import annotations

import ast
import sys
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.registry import Checker, LintContext, register

#: ``random`` module functions that consume the shared global RNG.
GLOBAL_RNG_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed",
})

#: (module, attribute) calls that read a host clock.
CLOCK_CALLS = frozenset({
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "process_time"), ("time", "process_time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
})

#: (module, attribute) calls that read OS entropy.
ENTROPY_CALLS = frozenset({
    ("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4"),
})

#: Rules that count only inside the strict scope (see
#: :func:`in_strict_scope`). ``det/unseeded-random`` counts everywhere
#: and is deliberately absent.
STRICT_ONLY_RULES = frozenset({
    "det/time-dependent",
    "det/id-dependent",
    "det/salted-hash",
    "det/set-iteration",
    "det/dict-value-iteration",
})

#: The strict scope that covers a whole file.
EVERYWHERE = ((1, sys.maxsize),)


def in_strict_scope(findings: Iterable[Finding],
                    spans: Sequence[Tuple[int, int]]) -> List[Finding]:
    """The one scope rule: a :data:`STRICT_ONLY_RULES` finding is kept
    only on a line inside *spans*, inclusive ``(first, last)`` pairs.
    The driver passes the replay-reachable function spans of a flow
    session, :data:`EVERYWHERE` for loose files under ``--strict``,
    and nothing otherwise."""
    return [finding for finding in findings
            if finding.rule not in STRICT_ONLY_RULES
            or any(first <= finding.line <= last for first, last in spans)]


#: Set-method calls that yield a new (unordered) set.
_SET_PRODUCING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})


def _is_id_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id")


def identity_key_uses(tree: ast.AST) -> Set[int]:
    """``id(...)`` calls used purely as identity *keys* — membership
    tests, set elements, dict subscripts/keys — returned as AST node
    ids. An id() value that only ever partitions objects by identity
    (and is never ordered, recorded, or arithmetic on) is replay-safe:
    both record and replay see the same partition even though the raw
    addresses differ. ``det/id-dependent`` skips these uses."""
    absolved: Set[int] = set()

    def absolve(candidate: ast.AST) -> None:
        if _is_id_call(candidate):
            absolved.add(id(candidate))

    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("add", "discard", "remove")
                and len(node.args) == 1 and not node.keywords):
            absolve(node.args[0])
        elif isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                absolve(node.left)
                for comparator in node.comparators:
                    absolve(comparator)
        elif isinstance(node, ast.Subscript):
            absolve(node.slice)
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    absolve(key)
        elif isinstance(node, (ast.Set, ast.SetComp)):
            for element in (node.elts if isinstance(node, ast.Set)
                            else [node.elt]):
                absolve(element)
        elif isinstance(node, ast.DictComp):
            absolve(node.key)
    return absolved


def _is_set_expr(node: ast.AST, set_locals: Set[str]) -> bool:
    """Heuristic: does *node* evaluate to a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_locals
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (isinstance(func, ast.Attribute)
                and func.attr in _SET_PRODUCING_METHODS
                and _is_set_expr(func.value, set_locals)):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_locals)
                or _is_set_expr(node.right, set_locals))
    return False


class _Scope:
    """Tracks local names assigned from set expressions in one scope."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, context: LintContext):
        self.context = context
        self.findings: List[Finding] = []
        #: local name -> module it aliases (``import random as rnd``)
        self.module_aliases: Dict[str, str] = {}
        #: local name -> (module, attr) for ``from x import y``
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        self.scopes: List[_Scope] = [_Scope()]
        #: id() calls used purely as identity keys (never flagged).
        self.absolved_ids = identity_key_uses(context.tree)

    # -- helpers --------------------------------------------------------

    def _emit(self, node: ast.AST, rule: str, severity: Severity,
              message: str) -> None:
        self.findings.append(Finding(
            path=self.context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            severity=severity,
            message=message,
        ))

    def _resolve_call(self, node: ast.Call):
        """Resolve a call target to ('module', 'attr') where possible."""
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                module = self.module_aliases.get(base.id)
                if module is not None:
                    return module, func.attr
                # ``datetime.datetime.now`` style: Name is a from-import.
                origin = self.from_imports.get(base.id)
                if origin is not None and origin == ("datetime", "datetime"):
                    return "datetime", func.attr
            elif (isinstance(base, ast.Attribute)
                  and isinstance(base.value, ast.Name)):
                module = self.module_aliases.get(base.value.id)
                if module == "datetime" and base.attr == "datetime":
                    return "datetime", func.attr
            return None
        if isinstance(func, ast.Name):
            return self.from_imports.get(func.id)
        return None

    @property
    def _set_locals(self) -> Set[str]:
        return self.scopes[-1].set_names

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                self.from_imports[alias.asname or alias.name] = (
                    node.module, alias.name
                )
        self.generic_visit(node)

    # -- scope management -----------------------------------------------

    def _visit_function(self, node) -> None:
        self.scopes.append(_Scope())
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self._set_locals):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_locals.add(target.id)
        else:
            # A rebind to a non-set value clears the tracking.
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_locals.discard(target.id)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve_call(node)
        if resolved is not None:
            module, attr = resolved
            if module == "random" and attr in GLOBAL_RNG_FUNCS:
                self._emit(
                    node, "det/unseeded-random", Severity.ERROR,
                    f"call to the shared global RNG random.{attr}(); "
                    "thread an explicit seeded random.Random through "
                    "instead",
                )
            elif module == "random" and attr == "Random" and not node.args:
                self._emit(
                    node, "det/unseeded-random", Severity.ERROR,
                    "random.Random() constructed without a seed draws "
                    "from OS entropy; pass an explicit seed",
                )
            elif module == "secrets" or resolved in ENTROPY_CALLS:
                self._emit(
                    node, "det/unseeded-random", Severity.ERROR,
                    f"{module}.{attr}() reads OS entropy and can never "
                    "replay identically",
                )
            elif resolved in CLOCK_CALLS:
                self._emit(
                    node, "det/time-dependent", Severity.ERROR,
                    f"{module}.{attr}() reads a host clock inside the "
                    "record/replay path; host time differs between "
                    "record and replay",
                )
        if isinstance(node.func, ast.Name):
            if node.func.id == "id" and id(node) not in self.absolved_ids:
                self._emit(
                    node, "det/id-dependent", Severity.ERROR,
                    "id() values are CPython addresses and differ "
                    "between runs; never let one reach recorded actions "
                    "or outcome keys",
                )
            elif node.func.id == "hash":
                self._emit(
                    node, "det/salted-hash", Severity.ERROR,
                    "builtin hash() is salted per process "
                    "(PYTHONHASHSEED); use hashlib for stable digests",
                )
        self.generic_visit(node)

    # -- iteration ------------------------------------------------------

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node, self._set_locals):
            self._emit(
                iter_node, "det/set-iteration", Severity.WARNING,
                "iterating a set in the record/replay path; set order "
                "is arbitrary and may differ between record and "
                "replay — iterate sorted(...) instead",
            )
            return
        if (isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Attribute)
                and iter_node.func.attr in ("values", "keys", "items")
                and not iter_node.args and not iter_node.keywords):
            self._emit(
                iter_node, "det/dict-value-iteration", Severity.WARNING,
                f"iterating .{iter_node.func.attr}() in the record/"
                "replay path; equal dicts can differ in insertion "
                "order — iterate sorted(...) instead",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iteration(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Starred(self, node: ast.Starred) -> None:
        if _is_set_expr(node.value, self._set_locals):
            self._emit(
                node, "det/set-iteration", Severity.WARNING,
                "unpacking a set in the record/replay path; order is "
                "arbitrary — sort first",
            )
        self.generic_visit(node)


def _flag_conversions(visitor: _DeterminismVisitor,
                      tree: ast.Module) -> None:
    """Flag ``list(<set>)`` / ``tuple(<set>)`` — ordered views of an
    unordered container. (Done in a second pass so the scope tracking
    from the main walk is complete at module level.)"""
    # Handled inline by visit_Call? No: list()/tuple() need set-locals
    # context, so the simple module-level approximation lives here.
    class _Conversions(ast.NodeVisitor):
        def visit_Call(self, node: ast.Call) -> None:
            if (isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                    and node.args
                    and _is_set_expr(node.args[0], set())):
                visitor._emit(
                    node, "det/set-iteration", Severity.WARNING,
                    f"{node.func.id}(...) of a set freezes an "
                    "arbitrary order into a sequence — use "
                    "sorted(...) instead",
                )
            self.generic_visit(node)

    _Conversions().visit(tree)


@register
class DeterminismChecker(Checker):
    """Family 1: unseeded randomness, clocks, identity, unordered
    iteration — everything that can differ between record and replay."""

    name = "determinism"
    rules = (
        "det/unseeded-random",
        "det/time-dependent",
        "det/id-dependent",
        "det/salted-hash",
        "det/set-iteration",
        "det/dict-value-iteration",
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        visitor = _DeterminismVisitor(context)
        visitor.visit(context.tree)
        _flag_conversions(visitor, context.tree)
        yield from visitor.findings
