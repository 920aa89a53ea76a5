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
"""

from __future__ import annotations

from typing import Optional

_CODE_CACHE: dict = {}


def load(source: str, filename: str, name: str,
         namespace: Optional[dict] = None):
    """Compile *source* (once per process) and return the function
    *name* it defines, executed into *namespace* (a fresh one when
    None). The function's globals *are* that namespace."""
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, filename, "exec")
        _CODE_CACHE[source] = code
    if namespace is None:
        namespace = {}
    exec(code, namespace)  # noqa: S102
    return namespace[name]
