"""Finding reporters: text for humans, JSON for CI tooling.

The JSON document shape is stable (see docs/lint.md)::

    {
      "version": 1,
      "findings": [{"path", "line", "col", "rule", "severity",
                    "message"}, ...],
      "counts": {"error": E, "warning": W, "total": N}
    }
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.findings import Finding, Severity

#: Schema version of the JSON report.
JSON_VERSION = 1


def count_by_severity(findings: List[Finding]) -> Dict[str, int]:
    """``{"error": E, "warning": W, "total": N}`` for *findings*."""
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = sum(1 for f in findings if f.severity is Severity.WARNING)
    return {"error": errors, "warning": warnings, "total": len(findings)}


def render_text(findings: List[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    counts = count_by_severity(findings)
    lines = [finding.render() for finding in findings]
    if counts["total"]:
        lines.append(
            f"{counts['total']} finding(s): {counts['error']} error(s), "
            f"{counts['warning']} warning(s)"
        )
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def render_json(findings: List[Finding]) -> str:
    """Machine-readable report (sorted keys, trailing-newline-free)."""
    document = {
        "version": JSON_VERSION,
        "findings": [finding.as_dict() for finding in findings],
        "counts": count_by_severity(findings),
    }
    return json.dumps(document, indent=2, sort_keys=True)
