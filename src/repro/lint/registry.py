"""Checker registry and lint context.

Checkers are small classes with a ``check(context)`` generator; the
:func:`register` decorator adds them to the global registry in import
order, and :func:`run_checkers` drives every registered checker over
one parsed module. New checker families plug in by defining a class and
registering it — the runner, reporters, and suppression machinery need
no changes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Type

from repro.lint.findings import Finding


@dataclass
class LintContext:
    """Everything a checker may consult about one module."""

    path: str  #: path as reported in findings
    source: str  #: full source text
    tree: ast.Module  #: parsed AST

    @classmethod
    def for_source(cls, source: str,
                   path: str = "<string>") -> "LintContext":
        """Parse *source* and build a context."""
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, tree=tree)


class Checker:
    """Base class for checker families.

    Subclasses set ``name`` (family label), ``rules`` (the rule ids
    they can emit, for documentation and ``--list-rules``), and
    implement :meth:`check` as a generator of findings.
    """

    name: str = "base"
    rules: tuple = ()

    def check(self, context: LintContext) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


class ProjectChecker:
    """Base class for whole-program checker families.

    Where :class:`Checker` sees one parsed module, a project checker's
    :meth:`check` receives a :class:`repro.lint.flow.FlowSession` —
    module graph, call graph, and replay reachability — and may emit
    findings anywhere in the analyzed package. Registered families run
    once per session, after the per-file families.
    """

    name: str = "project-base"
    rules: tuple = ()

    def check(self, session) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


#: Registered checker classes, in registration order.
CHECKERS: List[Type[Checker]] = []

#: Registered project-wide checker classes (the flow session).
PROJECT_CHECKERS: List[Type[ProjectChecker]] = []


def register(checker_class: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker family to the registry."""
    CHECKERS.append(checker_class)
    return checker_class


def register_project(
        checker_class: Type[ProjectChecker]) -> Type[ProjectChecker]:
    """Class decorator adding a project-wide (flow) checker family."""
    PROJECT_CHECKERS.append(checker_class)
    return checker_class


def all_rules() -> List[str]:
    """Every rule id any registered checker can emit, sorted."""
    names = set()
    for checker_class in CHECKERS:
        names.update(checker_class.rules)
    for checker_class in PROJECT_CHECKERS:
        names.update(checker_class.rules)
    return sorted(names)


def run_checkers(context: LintContext,
                 checkers: Iterable[Type[Checker]] = None) -> List[Finding]:
    """Run checker families over one module; findings come back sorted.

    Neither the strict scope nor suppression comments are applied
    here — the runner does both, so unit tests can see raw checker
    output.
    """
    findings: List[Finding] = []
    for checker_class in (CHECKERS if checkers is None else checkers):
        findings.extend(checker_class().check(context))
    return sorted(findings)
