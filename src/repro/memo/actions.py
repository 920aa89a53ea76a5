"""P-action cache node types (the recorded "simulator actions").

Paper §4.2: the p-action cache stores a graph of configurations and
action chains. Actions represent every way the μ-architecture simulator
interacts with the outside world — advancing the cycle counter, calling
the cache simulator, returning to direct execution, retiring
instructions — linked in the order the detailed simulator produced
them. Actions whose result can vary (a load's latency, a control
record's outcome) hold an **edge table** mapping each outcome seen so
far to its successor; an outcome not in the table terminates
fast-forwarding (Figure 6's "not yet computed" branches).

Node kinds:

=====================  ====================================================
:class:`ConfigNode`    a compressed iQ snapshot; the entry points of the
                       graph and the resync anchors for fall-back
:class:`AdvanceNode`   advance the cycle counter by a delta
:class:`RetireNode`    retire instructions / advance queue cursors
:class:`RollbackNode`  misprediction rollback of direct execution
:class:`ControlNode`   consume a control record ("return to
                       direct-execution") — outcome-keyed edges
:class:`LoadIssueNode` issue a load to the cache simulator — edges keyed
                       by the returned interval
:class:`LoadPollNode`  poll a load — edges keyed by ready/interval
:class:`StoreIssueNode` issue a store — edges keyed by accept interval
:class:`EndNode`       the program's halt retired; simulation complete
=====================  ====================================================

Byte sizes are a *model* (this is a Python reproduction — the real
objects are Python objects): configurations cost their paper-encoding
length and actions a fixed overhead plus a per-extra-edge cost, so
Table 5 and Figure 7 accounting is comparable with the paper's.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.uarch.interactions import Retire, Rollback

#: Modelled bytes for one action node (first edge included).
ACTION_BYTES = 16
#: Modelled bytes for each additional outcome edge.
EDGE_BYTES = 8


class Node:
    """Base class: every node knows its successor(s) and GC metadata.

    ``next``
        the single successor (outcome nodes use ``edges`` instead);
    ``touch_gen``
        GC clock value when last traversed (for copying collection);
    ``generation``
        0 = young, 1 = old (for the generational collector);
    ``seg``
        compiled replay segment headed at this node
        (:mod:`repro.memo.compile`); derived state — never persisted,
        rebuilt on demand;
    ``seg_hits``
        replay traversals of this node as a segment head, counted up
        to the compile threshold.

    There is no shared constructor: recording builds one node per
    action, so each concrete class sets these five slots itself — one
    Python frame per node instead of a ``super().__init__()`` chain.
    """

    __slots__ = ("next", "touch_gen", "generation", "seg", "seg_hits")

    is_config = False
    is_outcome = False
    #: True for single-successor action nodes whose advance deltas the
    #: chain compiler may fuse (replay neither calls a cycle-sensitive
    #: world method nor resets the chain log).
    is_linear = False
    #: True for action nodes that may head a compiled replay segment
    #: (every recordable action; configurations and end nodes are
    #: handled by the interpreter and passed through / terminate).
    can_head = False

    def size_bytes(self) -> int:
        return ACTION_BYTES


class ConfigNode(Node):
    """A memoized μ-architecture configuration."""

    __slots__ = ("blob", "size")
    is_config = True

    def __init__(self, blob: bytes, size: int):
        self.next = self.seg = None
        self.touch_gen = self.generation = self.seg_hits = 0
        self.blob = blob
        self.size = size

    def size_bytes(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"<ConfigNode {len(self.blob)}B raw>"


class AdvanceNode(Node):
    """Advance the simulation cycle counter by *delta* cycles."""

    __slots__ = ("delta",)
    is_linear = True
    can_head = True

    def __init__(self, delta: int):
        self.next = self.seg = None
        self.touch_gen = self.generation = self.seg_hits = 0
        self.delta = delta

    def __repr__(self) -> str:
        return f"<Advance +{self.delta}>"


class RequestNode(Node):
    """Base for the two deterministic actions. Each keeps the frozen
    :mod:`~repro.uarch.interactions` request it was recorded from, and
    interpreted replay hands the world that very object."""

    __slots__ = ("request",)
    is_linear = True
    can_head = True

    def __init__(self, request: Union[Retire, Rollback]):
        self.next = self.seg = None
        self.touch_gen = self.generation = self.seg_hits = 0
        self.request = request


class RetireNode(RequestNode):
    """Retire instructions; advances statistics and queue cursors."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<Retire {self.request.count}>"


class RollbackNode(RequestNode):
    """Roll direct execution back past a mispredicted branch."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<Rollback ord={self.request.control_ordinal}>"


class OutcomeNode(Node):
    """Base for nodes whose successor depends on the world's reply.

    ``next`` is unused; successors live in ``edges``. *ordinal* is the
    iQ ordinal of the load or store the action addresses (None for a
    :class:`ControlNode`); it lives here so the four concrete classes
    share this one flat constructor.
    """

    __slots__ = ("edges", "ordinal")
    is_outcome = True
    can_head = True

    def __init__(self, ordinal: Optional[int] = None) -> None:
        self.next = self.seg = None
        self.touch_gen = self.generation = self.seg_hits = 0
        self.edges: Dict[object, Node] = {}
        self.ordinal = ordinal

    def size_bytes(self) -> int:
        return ACTION_BYTES + EDGE_BYTES * max(0, len(self.edges) - 1)


class ControlNode(OutcomeNode):
    """Consume the next control record (return to direct execution)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<Control {len(self.edges)} outcomes>"


class LoadIssueNode(OutcomeNode):
    """Issue the load with iQ ordinal *ordinal* to the cache simulator."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<IssueLoad #{self.ordinal} {len(self.edges)} outcomes>"


class LoadPollNode(OutcomeNode):
    """Poll a previously issued load."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<PollLoad #{self.ordinal} {len(self.edges)} outcomes>"


class StoreIssueNode(OutcomeNode):
    """Issue the store with iQ ordinal *ordinal* to the cache simulator."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<IssueStore #{self.ordinal} {len(self.edges)} outcomes>"


class EndNode(Node):
    """Simulation finished; *delta* covers the trailing drain cycles."""

    __slots__ = ("delta",)

    def __init__(self, delta: int):
        self.next = self.seg = None
        self.touch_gen = self.generation = self.seg_hits = 0
        self.delta = delta

    def __repr__(self) -> str:
        return f"<End +{self.delta}>"
