"""Process-wide generated-source → code-object cache.

Two layers generate Python at runtime: chain compilation
(:mod:`repro.memo.compile`, replay segments) and the direct-execution
frontend (:mod:`repro.emulator.threaded`, basic blocks). Structurally
identical chains and blocks — the common case when a persistent worker
or an in-process sweep re-runs a workload, or a persisted cache
re-warms — generate byte-identical source, so the CPython ``compile()``
step, the expensive half of code generation, runs once per distinct
source text. Only immutable code objects are shared; every caller
``exec``\\ s into a namespace of its own, so nothing leaks between runs.

The cache is bounded (:data:`MAX_ENTRIES`): segment sources embed cycle
constants, so a long-lived worker sweeping ``ProcessorParams`` — or a
hypothesis session — meets new sources for as long as it lives.
"""

from __future__ import annotations

from typing import Optional

#: Distinct sources kept. One sweep of the 18-program suite compiles
#: about 300 (a few hundred KB of source and code objects), so a
#: re-run always hits; the cap only bites on an open-ended stream of
#: new sources.
MAX_ENTRIES = 2048

_CODE_CACHE: dict = {}


def holds(source: str) -> bool:
    """True when *source* is compiled already, so :func:`load` costs
    one ``exec`` of a code object and no ``compile()``."""
    return source in _CODE_CACHE


def load(source: str, filename: str, name: str,
         namespace: Optional[dict] = None):
    """Compile *source* (once per process) and return the function
    *name* it defines, executed into *namespace* (a fresh one when
    None). The function's globals *are* that namespace."""
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, filename, "exec")
        if len(_CODE_CACHE) >= MAX_ENTRIES:
            # Start over rather than track recency: a loaded function
            # holds its own code object, so nothing in use is lost.
            _CODE_CACHE.clear()
        _CODE_CACHE[source] = code
    if namespace is None:
        namespace = {}
    exec(code, namespace)  # noqa: S102
    return namespace[name]
