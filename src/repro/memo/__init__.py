"""Memoization of the μ-architecture simulator (the paper's contribution).

* :class:`PActionCache` — configuration → action-chain graph
* :class:`FastForwardEngine` — record/replay/resync driver
* replacement policies — unbounded, flush-on-full, copying GC,
  generational GC (§4.3)
* chain compilation — hot replay paths compiled to flat segments
  (:mod:`repro.memo.compile`)
"""

from repro.memo.actions import (
    ACTION_BYTES,
    AdvanceNode,
    ConfigNode,
    ControlNode,
    EDGE_BYTES,
    EndNode,
    LoadIssueNode,
    LoadPollNode,
    Node,
    OutcomeNode,
    RetireNode,
    RollbackNode,
    StoreIssueNode,
)
from repro.memo.compile import (
    CompiledSegment,
    DEFAULT_COMPILE_THRESHOLD,
    SegmentTable,
    compile_segment,
    patch_log,
    revalidate,
)
from repro.memo.dump import cache_summary, dump_chain
from repro.memo.engine import FastForwardEngine, run_signature
from repro.memo.pcache import PActionCache
from repro.memo.persist import (
    load_pcache,
    read_pcache,
    save_pcache,
    write_pcache,
)
from repro.memo.policies import (
    CopyingGCPolicy,
    FlushOnFullPolicy,
    GenerationalGCPolicy,
    ReplacementPolicy,
    UnboundedPolicy,
    make_policy,
)

__all__ = [
    "ACTION_BYTES",
    "EDGE_BYTES",
    "Node",
    "ConfigNode",
    "AdvanceNode",
    "RetireNode",
    "RollbackNode",
    "OutcomeNode",
    "ControlNode",
    "LoadIssueNode",
    "LoadPollNode",
    "StoreIssueNode",
    "EndNode",
    "PActionCache",
    "FastForwardEngine",
    "run_signature",
    "SegmentTable",
    "CompiledSegment",
    "DEFAULT_COMPILE_THRESHOLD",
    "compile_segment",
    "patch_log",
    "revalidate",
    "ReplacementPolicy",
    "UnboundedPolicy",
    "FlushOnFullPolicy",
    "CopyingGCPolicy",
    "GenerationalGCPolicy",
    "make_policy",
    "cache_summary",
    "dump_chain",
    "save_pcache",
    "load_pcache",
    "write_pcache",
    "read_pcache",
]
