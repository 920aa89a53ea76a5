"""Replay-reachability nondeterminism taint (flow family 1).

The per-file determinism checker flags nondeterminism *sources* at
their call sites, one module at a time — it cannot see a clock read
hiding two calls away in a helper module reach the replay path. This
family closes that hole interprocedurally:

``flow/tainted-call`` (error)
    A replay-reachable function calls a function whose **return
    value** derives (transitively) from a nondeterminism source —
    time, entropy, the global RNG, ``id()`` or salted ``hash()``. The
    source itself may live in a module the per-file checker would
    never scope strictly; what matters is that its value flows back
    into the record/replay path. The finding points at the call site
    and names the originating source.

``flow/missing-entry`` (error)
    A configured replay entry point (see
    :data:`repro.lint.flow.session.REPLAY_ENTRY_SUFFIXES`) matched no
    function in the call graph. Reachability under-approximates by
    design, so a silently-vanished entry point would turn the whole
    analysis into a no-op — this rule makes that loud.

Taint here is *return-value* taint: a function is tainted when some
``return`` expression contains a source call, a name assigned from
one anywhere earlier in the function (statements are read in source
order, and a clean rebind does not clear the name), or a call to an
already-tainted function. Source uses whose value
never escapes the function (e.g. a timestamp only logged) are the
per-file checker's business — in ``--flow`` runs the strict
determinism rules fire inside exactly the reachable functions, so the
two layers partition the work instead of double-reporting it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.determinism import (
    CLOCK_CALLS,
    ENTROPY_CALLS,
    GLOBAL_RNG_FUNCS,
    identity_key_uses,
)
from repro.lint.findings import Finding, Severity
from repro.lint.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    statements,
)
from repro.lint.flow.modgraph import ModuleInfo
from repro.lint.registry import ProjectChecker, register_project

RULE_TAINTED_CALL = "flow/tainted-call"
RULE_MISSING_ENTRY = "flow/missing-entry"


def resolve_external_call(module: ModuleInfo,
                          node: ast.Call) -> Optional[Tuple[str, str]]:
    """Resolve a call to ``(root_module, attr)`` for source matching.

    ``time.perf_counter()`` -> ``("time", "perf_counter")`` whether it
    was reached via ``import time``, ``import time as t``, or ``from
    time import perf_counter``. Dotted chains collapse to (root, last):
    ``datetime.datetime.now()`` -> ``("datetime", "now")``.
    """
    parts = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    target = module.bindings.get(func.id)
    if target is None:
        return None
    dotted = ".".join([target] + list(reversed(parts)))
    pieces = dotted.split(".")
    if len(pieces) < 2:
        return None
    return pieces[0], pieces[-1]


def source_label(module: ModuleInfo, node: ast.Call) -> Optional[str]:
    """Human label of the nondeterminism source *node* calls, if any."""
    if isinstance(node.func, ast.Name) and node.func.id in ("id", "hash"):
        return f"builtin {node.func.id}()"
    resolved = resolve_external_call(module, node)
    if resolved is None:
        return None
    root, attr = resolved
    if root == "random" and attr in GLOBAL_RNG_FUNCS:
        return f"random.{attr}()"
    if root == "secrets":
        return f"secrets.{attr}()"
    if resolved in CLOCK_CALLS or resolved in ENTROPY_CALLS:
        return f"{root}.{attr}()"
    if root == "datetime" and ("datetime", attr) in CLOCK_CALLS:
        return f"datetime.{attr}()"
    return None


class _ReturnTaint:
    """Per-function: does the return value derive from a source?"""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        #: qualname -> source label that taints its return value.
        self.tainted: Dict[str, str] = {}
        self._absolved: Dict[str, Set[int]] = {}
        self._fixpoint()

    def _absolved_for(self, fn: FunctionInfo) -> Set[int]:
        cached = self._absolved.get(fn.module.name)
        if cached is None:
            cached = identity_key_uses(fn.module.tree)
            self._absolved[fn.module.name] = cached
        return cached

    def _expr_taint(self, fn: FunctionInfo, local_taint: Dict[str, str],
                    node: ast.expr) -> Optional[str]:
        """Source label if *node*'s value derives from a source."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in local_taint:
                return local_taint[sub.id]
            if not isinstance(sub, ast.Call):
                continue
            label = source_label(fn.module, sub)
            if label is not None:
                if (label == "builtin id()"
                        and id(sub) in self._absolved_for(fn)):
                    continue
                return label
            for callee in fn.call_targets.get(id(sub), ()):
                if callee in self.tainted:
                    short = callee.rsplit(".", 1)[-1]
                    return f"{short}() <- {self.tainted[callee]}"
        return None

    def _scan(self, fn: FunctionInfo) -> Optional[str]:
        local_taint: Dict[str, str] = {}
        for statement in statements(fn.node):
            if isinstance(statement, ast.Assign):
                label = self._expr_taint(fn, local_taint, statement.value)
                # May-taint: a clean rebind (possibly on a sibling
                # branch) never launders a name.
                for target in statement.targets:
                    if isinstance(target, ast.Name) and label is not None:
                        local_taint[target.id] = label
            elif (isinstance(statement, ast.AnnAssign)
                    and statement.value is not None
                    and isinstance(statement.target, ast.Name)):
                label = self._expr_taint(fn, local_taint, statement.value)
                if label is not None:
                    local_taint[statement.target.id] = label
            elif (isinstance(statement, ast.Return)
                    and statement.value is not None):
                label = self._expr_taint(fn, local_taint, statement.value)
                if label is not None:
                    return label
        return None

    def _fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.graph.functions):
                if qualname in self.tainted:
                    continue
                label = self._scan(self.graph.functions[qualname])
                if label is not None:
                    self.tainted[qualname] = label
                    changed = True


@register_project
class ReplayTaintChecker(ProjectChecker):
    """Flow family 1: nondeterministic values flowing into the
    record/replay path through function returns."""

    name = "flow-taint"
    rules = (RULE_TAINTED_CALL, RULE_MISSING_ENTRY)

    def check(self, session) -> Iterator[Finding]:
        graph = session.callgraph
        yield from self._missing_entries(session)
        taint = _ReturnTaint(graph)
        for qualname in sorted(session.reachable()):
            fn = graph.functions[qualname]
            yield from self._check_function(fn, taint)

    def _missing_entries(self, session) -> Iterator[Finding]:
        for suffix in session.entries:
            if not session.callgraph.match_suffix(suffix):
                yield Finding(
                    path=session.anchor_path, line=1, col=1,
                    rule=RULE_MISSING_ENTRY, severity=Severity.ERROR,
                    message=(
                        f"replay entry point '{suffix}' matches no "
                        "function in the call graph; reachability "
                        "analysis would silently skip that path — fix "
                        "the entry list or restore the function"
                    ),
                )

    def _check_function(self, fn: FunctionInfo,
                        taint: _ReturnTaint) -> Iterator[Finding]:
        # Top-level statements only: walking a nested statement again
        # would report its call sites twice.
        for statement in fn.node.body:
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                for callee in fn.call_targets.get(id(node), ()):
                    label = taint.tainted.get(callee)
                    if label is None:
                        continue
                    short = callee.rsplit(".", 1)[-1]
                    yield Finding(
                        path=fn.module.path,
                        line=getattr(node, "lineno", fn.span[0]),
                        col=getattr(node, "col_offset", 0) + 1,
                        rule=RULE_TAINTED_CALL,
                        severity=Severity.ERROR,
                        message=(
                            f"replay-reachable function {fn.name}() "
                            f"calls {short}(), whose return value "
                            f"derives from {label}; a value that "
                            "differs between record and replay poisons "
                            "recorded action chains"
                        ),
                    )
                    break
