"""Whole-program dataflow analysis (the flow session).

The per-file checker families (:mod:`repro.lint.determinism`,
:mod:`repro.lint.obschecks`) see one module at a time, so they can
only guard the record/replay invariant where a hazard and its
consequence sit in the same file. The flow session parses the whole
package once and layers interprocedural analyses on top:

==============  ======================================================
module          builds
==============  ======================================================
``modgraph``    parsed module set + ``repro.*`` import resolution
``callgraph``   project-wide call graph (type-informed dispatch),
                function spans, source-order statement walk
``taint``       replay reachability + nondeterminism taint
``codegen``     turbo emitter contract audit (generated-source lint)
``session``     orchestration: :class:`FlowSession`
==============  ======================================================

In a flow session the strict determinism rules apply to exactly the
functions reachable from the record/replay entry points, repo-wide
(see docs/lint.md, "One scope rule").
"""

# Importing the checker modules registers the project families.
from repro.lint.flow import codegen, taint  # noqa: F401
from repro.lint.flow.session import FlowSession, REPLAY_ENTRY_SUFFIXES

__all__ = ["FlowSession", "REPLAY_ENTRY_SUFFIXES"]
