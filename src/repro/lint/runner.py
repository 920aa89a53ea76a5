"""Lint driver: file discovery, suppression, reporting, exit codes.

This is both the engine behind ``fastsim-repro lint`` / ``lint-asm``
and a standalone console script (``fastsim-lint``). Exit codes follow
CI convention:

====  ============================================================
code  meaning
====  ============================================================
0     no findings survived suppression (and the baseline, if any)
1     at least one finding (any severity — see docs/lint.md)
2     usage or I/O error (unreadable path, no inputs, bad baseline)
====  ============================================================

Two analysis modes share this driver:

**per-file** (default)
    Every registered :class:`~repro.lint.registry.Checker` family runs
    over each file independently; strict-only rules scope to the
    ``REPLAY_PATH_SUFFIXES`` allowlist (or everywhere with
    ``--strict``). ``--jobs N`` fans the files out over a process
    pool — results are merged in deterministic sorted order, so the
    report is byte-identical at any job count.

**flow** (``--flow``)
    Directory arguments become whole-program
    :class:`~repro.lint.flow.FlowSession`\\ s: the package is parsed
    once, replay reachability is *computed* from the call graph, and
    the project checker families (taint, effects, codegen contracts)
    run on top of reachability-scoped per-file findings. The flow
    session is single-process by design — it is one analysis, not a
    file loop.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

# Importing the checker modules registers their families.
from repro.lint import (  # noqa: F401
    asmlint,
    determinism,
    memosafety,
    nodes,
    obschecks,
)
from repro.lint.asmlint import ASM_RULES, lint_asm_source
from repro.lint.baseline import (
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintContext, all_rules, run_checkers
from repro.lint.reporters import (
    render_json,
    render_sarif,
    render_text,
)
from repro.lint.suppress import apply_suppressions

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".pytest_cache", ".hypothesis",
    ".benchmarks", "repro.egg-info",
})


def lint_source(source: str, path: str = "<string>",
                strict: Optional[bool] = None) -> List[Finding]:
    """Lint Python *source*; suppression comments are honoured."""
    try:
        context = LintContext.for_source(source, path=path, strict=strict)
    except SyntaxError as exc:
        return [Finding(
            path=path, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            rule="lint/syntax-error", severity=Severity.ERROR,
            message=f"cannot parse file: {exc.msg}",
        )]
    return apply_suppressions(run_checkers(context), source)


def lint_file(path: str, strict: Optional[bool] = None) -> List[Finding]:
    """Lint one Python file."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path, strict=strict)


def lint_asm_file(path: str) -> List[Finding]:
    """Lint one ``.s`` assembly file; suppressions are honoured."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return apply_suppressions(lint_asm_source(source, path=path), source)


def discover(paths: Sequence[str]) -> Tuple[List[str], List[str]]:
    """Split *paths* into (python_files, asm_files), walking directories.

    Inputs are deduplicated: passing a file plus a directory containing
    it (or the same path twice) lints the file once — each result list
    keeps the first occurrence order. Raises
    :class:`FileNotFoundError` for a path that does not exist.
    """
    python_files: List[str] = []
    asm_files: List[str] = []
    seen: set = set()

    def classify(file_path: str) -> None:
        key = os.path.realpath(file_path)
        if key in seen:
            return
        if file_path.endswith(".py"):
            seen.add(key)
            python_files.append(file_path)
        elif file_path.endswith(".s"):
            seen.add(key)
            asm_files.append(file_path)

    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in _SKIP_DIRS and not d.endswith(".egg-info")
                )
                for name in sorted(files):
                    classify(os.path.join(root, name))
        elif os.path.isfile(path):
            classify(path)
        else:
            raise FileNotFoundError(path)
    return python_files, asm_files


def _python_job(args: Tuple[str, Optional[bool]]) -> List[Finding]:
    """Process-pool worker: lint one Python file."""
    path, strict = args
    return lint_file(path, strict=strict)


def _asm_job(path: str) -> List[Finding]:
    """Process-pool worker: lint one assembly file."""
    return lint_asm_file(path)


def lint_paths(paths: Sequence[str], strict: Optional[bool] = None,
               jobs: int = 1) -> List[Finding]:
    """Lint every ``.py`` and ``.s`` file under *paths*.

    *jobs* > 1 distributes files over a process pool. Findings are
    sorted before returning, so the merged report is deterministic and
    identical at any job count.
    """
    python_files, asm_files = discover(paths)
    findings: List[Finding] = []
    if jobs > 1 and len(python_files) + len(asm_files) > 1:
        with multiprocessing.Pool(processes=jobs) as pool:
            for result in pool.map(
                    _python_job,
                    [(path, strict) for path in python_files]):
                findings.extend(result)
            for result in pool.map(_asm_job, asm_files):
                findings.extend(result)
    else:
        for file_path in python_files:
            findings.extend(lint_file(file_path, strict=strict))
        for file_path in asm_files:
            findings.extend(lint_asm_file(file_path))
    return sorted(findings)


def lint_flow(paths: Sequence[str], jobs: int = 1) -> List[Finding]:
    """Whole-program flow analysis over *paths*.

    Each directory argument becomes one
    :class:`~repro.lint.flow.FlowSession` (package root = the
    directory). Loose ``.py`` file arguments fall back to per-file
    lint; ``.s`` files run the assembly checker as usual. Suppression
    comments are honoured everywhere. *jobs* accelerates the non-flow
    remainder; the session itself is single-process.
    """
    from repro.lint.flow import FlowSession

    findings: List[Finding] = []
    loose: List[str] = []
    for path in paths:
        if not os.path.isdir(path):
            loose.append(path)
            continue
        session = FlowSession(path)
        by_path: Dict[str, List[Finding]] = {}
        for finding in session.run():
            by_path.setdefault(finding.path, []).append(finding)
        for finding_path in sorted(by_path):
            info = session.modgraph.by_path.get(finding_path)
            if info is not None:
                findings.extend(apply_suppressions(
                    by_path[finding_path], info.source))
            else:
                findings.extend(by_path[finding_path])
        # The session covers ``.py`` only; assembly under the same
        # tree still goes through the per-file assembly family.
        _, asm_files = discover([path])
        for file_path in asm_files:
            findings.extend(lint_asm_file(file_path))
    if loose:
        findings.extend(lint_paths(loose, jobs=jobs))
    return sorted(findings)


def report(findings: List[Finding], fmt: str = "text") -> str:
    """Render findings in ``text``, ``json`` or ``sarif`` format."""
    if fmt == "json":
        return render_json(findings)
    if fmt == "sarif":
        return render_sarif(
            findings, rule_ids=sorted(set(all_rules()) | set(ASM_RULES)))
    return render_text(findings)


def exit_code(findings: List[Finding]) -> int:
    """CI exit code for a finished run (any finding fails the gate)."""
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point (``fastsim-lint``)."""
    parser = argparse.ArgumentParser(
        prog="fastsim-lint",
        description=(
            "Determinism & memo-safety lint for the FastSim "
            "reproduction (see docs/lint.md)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    # The two ways to scope the record/replay-path rules — everywhere,
    # or by computed reachability — are alternatives.
    scope = parser.add_mutually_exclusive_group()
    scope.add_argument(
        "--strict", action="store_true",
        help="apply record/replay-path-only rules to every module",
    )
    scope.add_argument(
        "--flow", action="store_true",
        help=(
            "whole-program analysis: build a flow session per "
            "directory (call-graph reachability scopes the strict "
            "rules; taint/effects/codegen families run on top)"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="lint files on N worker processes (per-file mode)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="subtract findings accepted by this baseline file",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="accept the current findings into FILE and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id and exit",
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        # Project (flow) families register on import.
        import repro.lint.flow  # noqa: F401
        for rule in sorted(set(all_rules()) | set(ASM_RULES)):
            print(rule)
        return 0
    if options.jobs < 1:
        print("fastsim-lint: --jobs must be >= 1", file=sys.stderr)
        return 2

    try:
        if options.flow:
            findings = lint_flow(options.paths, jobs=options.jobs)
        else:
            findings = lint_paths(
                options.paths, strict=True if options.strict else None,
                jobs=options.jobs,
            )
    except FileNotFoundError as exc:
        print(f"fastsim-lint: no such path: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fastsim-lint: {exc}", file=sys.stderr)
        return 2

    if options.write_baseline:
        save_baseline(options.write_baseline, findings)
        print(f"baseline: accepted {len(findings)} finding(s) into "
              f"{options.write_baseline}")
        return 0
    if options.baseline:
        try:
            baseline = load_baseline(options.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"fastsim-lint: {exc}", file=sys.stderr)
            return 2
        findings, absorbed = apply_baseline(findings, baseline)
        if absorbed:
            print(f"baseline: {absorbed} accepted finding(s) hidden",
                  file=sys.stderr)

    print(report(findings, options.format))
    return exit_code(findings)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
