"""Effect inference for memo-safety (flow family 2).

The per-file memo-safety checker cross-checks ``self.<attr>``
assignments *inside* the manifest classes (``IQEntry``,
``InstructionQueue``, ``DetailedSimulator``) against
:data:`~repro.uarch.config_codec.CONFIG_FIELD_MANIFEST`. What it
cannot see is a write performed from the *outside*: a pipeline helper
that receives an entry and stamps a scratch attribute on it, or a
replay-path function that pokes at ``self.iq`` from another module.
Such a write is exactly as dangerous — state carried between cycles
that the configuration codec does not serialize lets two distinct
pipeline states collide on one cache key.

This family infers attribute **effects** interprocedurally: for every
function, the attribute writes performed on any expression whose
inferred static type is a manifest class (parameter annotations,
constructor assignments, typed ``self`` attributes — see
:mod:`repro.lint.flow.callgraph`), checked in every function the
replay path reaches.

``flow/unmanifested-write`` (error)
    A replay-reachable function writes an attribute of a manifest
    class that the manifest does not account for. Writes via ``self``
    inside the class's own methods are skipped — the per-file
    ``memo/hidden-state`` rule owns those, so the two layers partition
    the work. Dunder attributes pass (they are protocol, not state).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    statements,
)
from repro.lint.memosafety import allowed_fields
from repro.lint.registry import ProjectChecker, register_project

RULE_UNMANIFESTED_WRITE = "flow/unmanifested-write"

#: One observed effect: (attr, receiver class bare name, AST node).
Effect = Tuple[str, str, ast.AST]


def _write_targets(statement: ast.stmt) -> List[ast.expr]:
    if isinstance(statement, ast.Assign):
        targets = list(statement.targets)
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    else:
        return []
    flat: List[ast.expr] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            flat.extend(target.elts)
        else:
            flat.append(target)
    return flat


class EffectTable:
    """Per-function attribute writes on manifest classes."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        #: qualname -> write effects with their AST nodes (for findings)
        self.write_sites: Dict[str, List[Effect]] = {}
        for qualname in sorted(graph.functions):
            self._collect(graph.functions[qualname])

    def _manifest_classes(self, fn: FunctionInfo, env,
                          receiver: ast.expr) -> List[str]:
        """Bare names of manifest classes *receiver* may be typed as."""
        names = []
        for qualname in sorted(self.graph.expr_types(fn, env, receiver)):
            bare = qualname.rsplit(".", 1)[-1]
            if allowed_fields(bare) is not None and bare not in names:
                names.append(bare)
        return names

    def _collect(self, fn: FunctionInfo) -> None:
        env = self.graph.function_env(fn)
        sites: List[Effect] = []
        for statement in statements(fn.node):
            for target in _write_targets(statement):
                if not isinstance(target, ast.Attribute):
                    continue
                for bare in self._manifest_classes(fn, env, target.value):
                    sites.append((target.attr, bare, target))
        self.write_sites[fn.qualname] = sites


def _is_dunder(attr: str) -> bool:
    return attr.startswith("__") and attr.endswith("__")


@register_project
class EffectChecker(ProjectChecker):
    """Flow family 2: state written onto manifest classes from outside
    the classes themselves, cross-checked against the codec manifest."""

    name = "flow-effects"
    rules = (RULE_UNMANIFESTED_WRITE,)

    def check(self, session) -> Iterator[Finding]:
        graph = session.callgraph
        table = session.effects()
        for qualname in sorted(session.reachable()):
            fn = graph.functions[qualname]
            owner_bare = (fn.owner.rsplit(".", 1)[-1]
                          if fn.owner is not None else None)
            for attr, bare, node in table.write_sites.get(qualname, ()):
                if _is_dunder(attr):
                    continue
                if bare == owner_bare and _is_self_write(node):
                    continue  # per-file memo/hidden-state owns these
                allowed = allowed_fields(bare)
                if allowed is None or attr in allowed:
                    continue
                yield Finding(
                    path=fn.module.path,
                    line=getattr(node, "lineno", fn.span[0]),
                    col=getattr(node, "col_offset", 0) + 1,
                    rule=RULE_UNMANIFESTED_WRITE,
                    severity=Severity.ERROR,
                    message=(
                        f"replay-reachable function {fn.name}() writes "
                        f"{bare}.{attr}, which is not in "
                        "CONFIG_FIELD_MANIFEST: state the codec does "
                        "not serialize lets two distinct pipeline "
                        "states collide on one configuration key"
                    ),
                )


def _is_self_write(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")
