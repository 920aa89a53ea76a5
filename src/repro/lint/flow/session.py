"""Flow session: whole-program orchestration.

One :class:`FlowSession` = one analyzed package. It builds the module
graph and call graph once, computes the set of functions reachable
from the record/replay entry points, and then

1. runs the **per-file** checker families over every module with
   the strict scope (:func:`~repro.lint.determinism.in_strict_scope`)
   *computed* from reachability: the line spans of the
   replay-reachable functions. A helper module three imports away
   from the engine gets exactly the same strict treatment as the
   engine itself, and module-level code that never runs during replay
   gets none;
2. runs every registered **project** checker family
   (:data:`~repro.lint.registry.PROJECT_CHECKERS`: taint, codegen
   contracts) over the session.

Findings come back unsuppressed — the runner owns suppression, so
tests can see raw checker output (same contract as ``run_checkers``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.lint.determinism import in_strict_scope
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.modgraph import ModuleGraph, ModuleInfo
from repro.lint.registry import (
    PROJECT_CHECKERS,
    LintContext,
    run_checkers,
)

#: Qualname suffixes of the record/replay entry points. Everything
#: transitively callable from these is "the replay path"; strict
#: determinism rules and the flow families scope to that set. The
#: suffixes are class-qualified but package-agnostic so fixture
#: packages exercise the session the same way ``src/repro`` does.
REPLAY_ENTRY_SUFFIXES = (
    "FastSim.run",                 # the public simulation driver
    "FastForwardEngine.run",       # memo engine mode dispatch
    "FastForwardEngine._record",   # record pass
    "FastForwardEngine._replay",   # replay pass (turbo dispatch too)
    "FastForwardEngine._resync",   # divergence recovery
    "compile_segment",             # turbo segment compilation
)


class FlowSession:
    """Whole-program analysis state for one package."""

    def __init__(self, root: str, package: Optional[str] = None,
                 entries: Sequence[str] = REPLAY_ENTRY_SUFFIXES):
        self.root = root
        self.entries = tuple(entries)
        self.modgraph = ModuleGraph.build(root, package=package)
        self.callgraph = CallGraph(self.modgraph)
        self._reachable: Optional[FrozenSet[str]] = None

    # -- derived state ----------------------------------------------------

    @property
    def anchor_path(self) -> str:
        """Path findings without a better anchor point at (the package
        ``__init__``, or the first module, or the root)."""
        init_name = self.modgraph.package
        info = self.modgraph.modules.get(init_name)
        if info is not None:
            return info.path
        for name in sorted(self.modgraph.modules):
            return self.modgraph.modules[name].path
        return self.root

    def entry_functions(self) -> List[str]:
        """Qualnames the entry suffixes matched, sorted."""
        matched: List[str] = []
        for suffix in self.entries:
            for qualname in self.callgraph.match_suffix(suffix):
                if qualname not in matched:
                    matched.append(qualname)
        return sorted(matched)

    def reachable(self) -> FrozenSet[str]:
        """Function qualnames reachable from the replay entry points."""
        if self._reachable is None:
            self._reachable = self.callgraph.reachable_from(
                self.entry_functions())
        return self._reachable

    def reachable_spans(self) -> Dict[str, List[Tuple[int, int]]]:
        """Per-path, sorted line spans of replay-reachable functions."""
        spans: Dict[str, List[Tuple[int, int]]] = {}
        for qualname in sorted(self.reachable()):
            fn = self.callgraph.functions[qualname]
            spans.setdefault(fn.module.path, []).append(fn.span)
        for path in spans:
            spans[path].sort()
        return spans

    def emitter_module(self, suffix: str) -> Optional[ModuleInfo]:
        """The package's code-emitting module named ``*suffix`` (the
        turbo emitter ``memo.compile``, the block emitter
        ``emulator.threaded``), if it has one."""
        for name in sorted(self.modgraph.modules):
            if name.endswith(suffix):
                return self.modgraph.modules[name]
        return None

    # -- running checkers -------------------------------------------------

    def per_file_findings(self) -> List[Finding]:
        """Per-file families over every module, with the strict scope
        set to the replay-reachable function spans (unsuppressed)."""
        spans = self.reachable_spans()
        findings: List[Finding] = []
        for name in sorted(self.modgraph.modules):
            info = self.modgraph.modules[name]
            context = LintContext(path=info.path, source=info.source,
                                  tree=info.tree)
            findings.extend(in_strict_scope(
                run_checkers(context), spans.get(info.path, ())))
        return findings

    def project_findings(self) -> List[Finding]:
        """Registered project (flow) checker families (unsuppressed)."""
        findings: List[Finding] = []
        for checker_class in PROJECT_CHECKERS:
            findings.extend(checker_class().check(self))
        return sorted(findings)

    def run(self) -> List[Finding]:
        """The full session: per-file (strict-scoped) + project
        families, sorted, unsuppressed."""
        return sorted(self.per_file_findings() + self.project_findings())

