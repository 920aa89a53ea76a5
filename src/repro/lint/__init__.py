"""Static analysis guarding the bit-identical replay invariant.

FastSim's headline claim — memoized fast-forwarding produces exactly
the simulation the detailed model would have produced — only survives
contact with new code if that code stays deterministic and keeps all
pipeline state inside the configuration key. ``repro.lint`` enforces
both properties statically, plus structural discipline on p-action
cache nodes and correctness lint for assembly workloads:

========================  ===========================================
checker family            module
========================  ===========================================
determinism               :mod:`repro.lint.determinism`
memo-safety               :mod:`repro.lint.memosafety`
action-node discipline    :mod:`repro.lint.nodes`
ISA program lint          :mod:`repro.lint.asmlint`
flow session (project)    :mod:`repro.lint.flow` (taint, effects,
                          codegen contracts — ``--flow``)
========================  ===========================================

The per-file families above see one module at a time; the flow session
parses the whole package, computes replay reachability from the call
graph, and layers interprocedural checkers on top (docs/lint.md,
"One scope rule").

Entry points: ``fastsim-repro lint`` (CLI), the ``fastsim-lint``
console script and ``python -m repro.lint`` — one driver,
:mod:`repro.lint.runner` — or programmatically::

    from repro.lint import lint_source
    findings = lint_source(code, path="repro/memo/engine.py")

Rule catalogue, suppression syntax, and the JSON report schema are
documented in docs/lint.md.
"""

from repro.lint.findings import Finding, Severity
from repro.lint.registry import (
    CHECKERS,
    PROJECT_CHECKERS,
    Checker,
    LintContext,
    ProjectChecker,
    all_rules,
    register,
    register_project,
    run_checkers,
)
from repro.lint.suppress import (
    apply_suppressions,
    file_suppressions_for,
    suppressions_for,
)
from repro.lint.asmlint import ASM_RULES, lint_asm_source
from repro.lint.runner import (
    discover,
    exit_code,
    lint_asm_file,
    lint_file,
    lint_flow,
    lint_paths,
    lint_source,
    main,
    report,
)

__all__ = [
    "ASM_RULES",
    "CHECKERS",
    "Checker",
    "Finding",
    "LintContext",
    "PROJECT_CHECKERS",
    "ProjectChecker",
    "Severity",
    "all_rules",
    "apply_suppressions",
    "discover",
    "exit_code",
    "file_suppressions_for",
    "lint_asm_file",
    "lint_asm_source",
    "lint_file",
    "lint_flow",
    "lint_paths",
    "lint_source",
    "main",
    "report",
    "register",
    "register_project",
    "run_checkers",
    "suppressions_for",
]
