"""Per-line suppression comments.

A finding is suppressed when the physical source line it points at
carries a marker comment naming its rule (or ``all``)::

    tokens = {id(n) for n in nodes}  # repro-lint: disable=det/id-dependent
    risky()                          # repro-lint: disable=all
    chaos(), havoc()                 # repro-lint: disable=rule-a,rule-b

The same syntax works in assembly sources after ``!`` or ``#``::

    ba done     ! repro-lint: disable=asm/delay-slot-hazard

Suppressions are deliberate, reviewable exceptions: the marker sits on
the flagged line, so a reviewer sees the hazard and its waiver together.

**File-level** suppression disables a rule for a whole module when the
marker appears in the first :data:`FILE_MARKER_WINDOW` lines::

    # repro-lint: disable-file=det/dict-value-iteration

Per-line markers compose with findings that point at one statement;
the file form exists for findings that describe a module-level
property and for adopting the flow session on legacy modules. The
head-of-file window keeps the waiver where a reader
looking at the module sees it immediately.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List

from repro.lint.findings import Finding

_MARKER_RE = re.compile(
    r"repro-lint:\s*disable=([A-Za-z0-9_/,\- ]+)"
)

_FILE_MARKER_RE = re.compile(
    r"repro-lint:\s*disable-file=([A-Za-z0-9_/,\- ]+)"
)

#: A ``disable-file`` marker must sit in the first N physical lines.
FILE_MARKER_WINDOW = 5


def suppressions_for(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule names disabled on them."""
    table: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _MARKER_RE.search(line)
        if match is None:
            continue
        rules = frozenset(
            token.strip() for token in match.group(1).split(",")
            if token.strip()
        )
        if rules:
            table[lineno] = rules
    return table


def file_suppressions_for(source: str) -> FrozenSet[str]:
    """Rules disabled module-wide by a head-of-file marker."""
    rules: set = set()
    for line in source.splitlines()[:FILE_MARKER_WINDOW]:
        match = _FILE_MARKER_RE.search(line)
        if match is None:
            continue
        rules.update(
            token.strip() for token in match.group(1).split(",")
            if token.strip()
        )
    return frozenset(rules)


def apply_suppressions(findings: List[Finding],
                       source: str) -> List[Finding]:
    """Drop findings whose line — or whole file — disables their rule
    (or ``all``)."""
    table = suppressions_for(source)
    file_rules = file_suppressions_for(source)
    if not table and not file_rules:
        return list(findings)
    kept = []
    for finding in findings:
        if finding.rule in file_rules or "all" in file_rules:
            continue
        disabled = table.get(finding.line, frozenset())
        if finding.rule in disabled or "all" in disabled:
            continue
        kept.append(finding)
    return kept
