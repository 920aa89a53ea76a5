"""Lint driver: file discovery, scope, suppression, reporting, exit
codes.

The one driver behind every front door: ``fastsim-lint``,
``python -m repro.lint`` and ``fastsim-repro lint`` declare their flags
with :func:`add_arguments` and execute them with :func:`run`. Exit
codes follow CI convention:

====  ============================================================
code  meaning
====  ============================================================
0     no findings survived suppression
1     at least one finding (any severity — see docs/lint.md)
2     usage or I/O error (unreadable path)
====  ============================================================

Two analysis modes share this driver:

**flow** (``--flow``, and the default when no path is given)
    Directory arguments become whole-program
    :class:`~repro.lint.flow.FlowSession`\\ s: the package is parsed
    once, replay reachability is *computed* from the call graph, and
    the project checker families (taint, codegen contracts) run on
    top of the per-file findings. With no paths the session
    covers the installed ``repro`` package — the tier-1 gate, whatever
    the working directory.

**per-file**
    Every registered :class:`~repro.lint.registry.Checker` family runs
    over each file independently; ``.s`` files get the assembly family.

Checker families emit every rule everywhere. Where the strict-only
determinism rules *count* is one decision
(:func:`~repro.lint.determinism.in_strict_scope`): inside the
replay-reachable function spans of a flow session, everywhere on loose
files under ``--strict``, nowhere otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import List, Optional, Sequence, Tuple

import repro
# Importing the checker modules registers their families.
from repro.lint import asmlint, determinism, obschecks  # noqa: F401
from repro.lint.asmlint import ASM_RULES, lint_asm_source
from repro.lint.determinism import EVERYWHERE, in_strict_scope
from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintContext, all_rules, run_checkers
from repro.lint.reporters import render_json, render_text
from repro.lint.suppress import apply_suppressions

#: The installed package — what the command lints when given no path.
PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".pytest_cache", ".hypothesis",
    ".benchmarks", "repro.egg-info",
})


def lint_source(source: str, path: str = "<string>",
                strict: bool = False) -> List[Finding]:
    """Lint Python *source*; suppression comments are honoured.
    *strict* puts the whole file in the strict scope."""
    try:
        context = LintContext.for_source(source, path=path)
    except SyntaxError as exc:
        return [Finding(
            path=path, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            rule="lint/syntax-error", severity=Severity.ERROR,
            message=f"cannot parse file: {exc.msg}",
        )]
    findings = in_strict_scope(run_checkers(context),
                               EVERYWHERE if strict else ())
    return apply_suppressions(findings, source)


def lint_file(path: str, strict: bool = False) -> List[Finding]:
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


def lint_paths(paths: Sequence[str],
               strict: bool = False) -> List[Finding]:
    """Lint every ``.py`` and ``.s`` file under *paths*, sorted."""
    python_files, asm_files = discover(paths)
    findings: List[Finding] = []
    for file_path in python_files:
        findings.extend(lint_file(file_path, strict=strict))
    for file_path in asm_files:
        findings.extend(lint_asm_file(file_path))
    return sorted(findings)


def session_findings(session) -> List[Finding]:
    """Run *session* and apply each module's suppression comments to
    the findings that point into it."""
    findings: List[Finding] = []
    # ``run()`` comes back sorted, path first.
    for path, group in itertools.groupby(session.run(),
                                         key=lambda f: f.path):
        info = session.modgraph.by_path.get(path)
        if info is not None:
            findings.extend(apply_suppressions(list(group), info.source))
        else:
            findings.extend(group)
    return findings


def lint_flow(paths: Sequence[str]) -> List[Finding]:
    """Whole-program flow analysis over *paths*.

    Each directory argument becomes one
    :class:`~repro.lint.flow.FlowSession` (package root = the
    directory). Loose ``.py`` file arguments fall back to per-file
    lint; ``.s`` files run the assembly checker as usual. Suppression
    comments are honoured everywhere.
    """
    from repro.lint.flow import FlowSession

    findings: List[Finding] = []
    loose: List[str] = []
    for path in paths:
        if not os.path.isdir(path):
            loose.append(path)
            continue
        findings.extend(session_findings(FlowSession(path)))
        # The session covers ``.py`` only; assembly under the same
        # tree still goes through the per-file assembly family.
        _, asm_files = discover([path])
        for file_path in asm_files:
            findings.extend(lint_asm_file(file_path))
    if loose:
        findings.extend(lint_paths(loose))
    return sorted(findings)


def report(findings: List[Finding], fmt: str = "text") -> str:
    """Render findings in ``text`` or ``json`` format."""
    if fmt == "json":
        return render_json(findings)
    return render_text(findings)


def exit_code(findings: List[Finding]) -> int:
    """CI exit code for a finished run (any finding fails the gate)."""
    return 1 if findings else 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the lint flags on *parser* — the one declaration every
    front door shares; :func:`run` executes what they parse to."""
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the gate — a "
             "flow session over the installed repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
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
        help="whole-program analysis: build a flow session per "
             "directory (call-graph reachability scopes the strict "
             "rules; taint/codegen families run on top)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id and exit",
    )


def run(options: argparse.Namespace) -> int:
    """Execute a parsed lint command line; returns the exit code."""
    if options.list_rules:
        # Project (flow) families register on import.
        import repro.lint.flow  # noqa: F401
        for rule in sorted(set(all_rules()) | set(ASM_RULES)):
            print(rule)
        return 0
    # No path is the gate itself, from any working directory.
    paths = options.paths or [PACKAGE_ROOT]
    flow = options.flow or not (options.paths or options.strict)
    try:
        if flow:
            findings = lint_flow(paths)
        else:
            findings = lint_paths(paths, strict=options.strict)
    except FileNotFoundError as exc:
        print(f"lint: no such path: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    print(report(findings, options.format))
    return exit_code(findings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point (``fastsim-lint``)."""
    parser = argparse.ArgumentParser(
        prog="fastsim-lint",
        description=(
            "Determinism lint for the FastSim reproduction (see "
            "docs/lint.md)."
        ),
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
