"""Chain compilation — flat, replay-optimized segments (``repro.turbo``).

The fast-forward loop in :mod:`repro.memo.engine` is a node-at-a-time
interpreter: every replayed action pays a ``type()`` dispatch, a
``cache.touch``, a handful of per-field statistics increments and an
attribute chase. This module compiles a hot region of the recorded
graph — after
:data:`DEFAULT_COMPILE_THRESHOLD` traversals of its head — into one
:class:`CompiledSegment`: a straight-line Python function (generated
source, compiled once, replayed thousands of times) plus the metadata
needed to leave the fast path with interpreter-identical state.

What a compiled segment may cover
---------------------------------

The compiler walks the graph from the head while the continuation is
statically known:

* **linear actions** (:class:`~repro.memo.actions.AdvanceNode` /
  ``RetireNode`` / ``RollbackNode``) always have one successor;
* **configuration nodes** are pure replay bookkeeping with one
  successor — the segment passes straight through and the bookkeeping
  is reconstructed from compile-time metadata;
* **outcome nodes with exactly one edge** become *guarded* calls: the
  world is asked exactly as the interpreter would, and the reply is
  compared against the single recorded edge key. Equal → the successor
  is the compiled continuation. Different → the generated function
  returns a side-exit token and the engine reconstructs the exact
  interpreter state (statistics, last configuration, attach point)
  from the per-guard exit table, then falls back to resync — precisely
  what interpreted replay would have done, since within one graph generation a reply
  that differs from the only edge key cannot have an edge.

The walk stops at multi-edge outcome nodes, :class:`EndNode`, pruned
links, a revisited node (the natural loop-closing point — steady-state
loops become one segment replayed per iteration), or the
:data:`MAX_SEGMENT_NODES` cap.

Why replay is faster
--------------------

A replayed action should cost "a few native instructions", so segments
replay against the world's *state*, not through its methods:

* :class:`AdvanceNode` and :class:`RetireNode` emit **no code**. Their
  only effect is adding compile-time constants to the clock, the queue
  cursors and the statistics, and nothing inside a segment reads
  statistics — so the compiler carries a running cycle offset and
  running retire totals, the generated function reads ``c =
  world.cycle``, ``lb = world.lq_base``, ``sb = world.sq_base`` once at
  entry, and every reader gets ``entry value + constant``;
* load and store outcomes call the **cache port directly** with those
  constants folded in (``i = lb + 2; r = c_il(i, lq[i], c + 14)``) —
  the calls ``World.issue_load/poll_load/issue_store`` make,
  minus the wrapper. The port methods are bound per segment *call*,
  never at compile time, so whoever wraps them sees every access;
* ``get_control`` stays a world call (the frontend never reads the
  world's clock or cursors), and a :class:`RollbackNode` is a pre-built
  ``Rollback`` whose control ordinal already includes the controls
  retired so far — ``cf_base`` is still its entry value, so
  :meth:`World.rollback` runs unchanged;
* **exit contract**: every way out — full replay, guard miss, dynamic
  terminal — is an :data:`ExitMeta` record carrying ``(cycles, Retire
  totals)`` (:attr:`CompiledSegment.full_exit`, or ``exit_meta[i]``),
  and the engine's one settle block applies them with one
  ``world.advance_cycles`` + one ``world.retire`` *before* it reads
  ``world.cycle``: interpreter-identical world state at every exit;
* per-node statistics, touches and configuration bookkeeping collapse
  into per-segment constants; a segment keeps no log — its exit record
  names the last covered configuration, and a resync reads the path
  from there off the graph;
* the ``max_cycles`` abort check runs once per segment — a segment
  whose total could cross the limit is interpreted instead, so the
  abort raises at the exact same advance.

An exception raised *inside* a segment (frontend instruction budget,
fetch past the frontend, poll of an unissued load) leaves
``world.cycle`` and the cursors at their segment-entry values, where
the interpreter would have advanced them node by node. No handler in
``src/`` reads a :class:`World` after a ``SimulationError``
(``tests/test_exception_contract.py`` holds the tree to that).

Touch semantics under replacement policies
------------------------------------------

A completed segment advances the touch clock by its node count and
defers the per-node ``touch_gen`` writes to
:meth:`SegmentTable.flush_touches`, which replacement policies invoke
(via ``PActionCache.prepare_collection``) before any survival decision.
Collections only ever happen between whole segments, so "all covered
nodes stamped with the segment's final clock" and "covered nodes
stamped with consecutive clocks" fall on the same side of every
survival threshold. Side exits touch their visited prefix eagerly and
exactly (they are rare and lead straight into record mode).

Invalidation
------------

A segment caches node successors and edge tables, so it is only valid
while the graph is unchanged. :class:`~repro.memo.pcache.PActionCache`
keeps a ``graph_generation`` counter, bumped by every structural
mutation (``attach``, guard ``invalidate``, policy ``clear`` /
``rebuild``); a segment whose recorded generation differs is discarded
at its next use and the head re-warms toward recompilation. Replay
never walks stale pointers, and a guard can never miss an edge that
exists: adding an edge bumps the generation first.

Because a valid segment hands the cache port and the frontend exactly
the interpreter's requests in the same order at the same cycles, and
reconstructs the same statistics and resync inputs,
simulated results are bit-identical with compilation on or off —
asserted for every suite workload by ``tests/memo/test_turbo.py`` and
``tests/memo/test_fold.py``, and measured by
``python3 bench/run.py --workload fast-warm`` (see docs/performance.md).
Segments are derived state: they are never persisted (FSPC stores only
nodes) and never counted in the modelled cache size.
"""

from __future__ import annotations

import hashlib
import re
from typing import List, Optional, Tuple

from repro import codecache
from repro.memo.actions import (
    AdvanceNode,
    ConfigNode,
    ControlNode,
    LoadIssueNode,
    LoadPollNode,
    Node,
    RetireNode,
    RollbackNode,
    StoreIssueNode,
)
from repro.uarch.interactions import Retire, Rollback

#: Replay traversals of a segment head before it is compiled.
DEFAULT_COMPILE_THRESHOLD = 8

#: Upper bound on nodes covered by one segment (loops close themselves
#: earlier via the revisit rule; this caps pathological straight-line
#: chains so generated functions stay small).
MAX_SEGMENT_NODES = 512

#: Signature of every generated segment function. ``world`` is the
#: live world adapter, ``R`` the pre-built ``Rollback`` tuple, ``K`` the
#: non-inlinable key tuple.
SEG_HEADER = "def _seg(world, R, K):\n"

#: Local -> world expression each generated entry line reads, once per
#: segment call: the clock, cursors and queues every folded constant is
#: relative to, the two world methods a segment still calls, and the
#: cache-port methods the ``World`` load/store wrappers themselves call
#: (the flow lint cross-checks this table against those wrappers and
#: the interpreted replay loop, so drift is a lint error).
WORLD_BINDINGS = {
    "c": "world.cycle", "lb": "world.lq_base", "sb": "world.sq_base",
    "lq": "world._lq", "sq": "world._sq", "sqw": "world._sqw",
    "w_get": "world.get_control", "w_rb": "world.rollback",
    "c_il": "world.cache.issue_load", "c_pl": "world.cache.poll_load",
    "c_st": "world.cache.issue_store",
}

#: Every line shape :func:`compile_segment` can emit, as
#: ``str.format`` templates — a module constant so the flow lint can
#: audit the emitter and tests can inject mutations. ``{index}`` is a
#: queue ordinal plus the loads/stores retired so far in the segment,
#: ``{cycles}`` the cycles advanced so far.
SEG_TEMPLATES = {
    "bind": "    {name} = {target}\n",
    "rollback": "    w_rb(R[{index}])",
    "control_call": "    rec = w_get()",
    "load_issue": "    i = lb + {index}; r = c_il(i, lq[i], c + {cycles})",
    "load_poll": "    r = c_pl(lb + {index}, c + {cycles})",
    "store_issue": ("    i = sb + {index}; "
                    "r = c_st(sq[i], sqw[i], c + {cycles})"),
    "guard": "    if {test} != {key}: return ({index}, {ret})",
    "terminal": "    return ({index}, {ret})",
    "epilogue": "    return None\n",
}

_NAME_RE = re.compile(r"[A-Za-z_]\w*")


#: One guard's side-exit reconstruction record:
#: (node, is_control, actions_incl, visited_nodes, cycles_before,
#:  retired_before, configs_before, last_config_or_None).
#: ``actions_incl`` and ``visited_nodes`` count the failing node itself
#: — the interpreter books an outcome before checking its edge table.
#: ``cycles_before`` and ``retired_before`` (the fused ``Retire`` of
#: every covered RetireNode up to here) are what the engine still owes
#: the world at this exit.
ExitMeta = Tuple[Node, bool, int, int, int, Retire, int,
                 Optional[ConfigNode]]


class CompiledSegment:
    """One compiled region of the action graph.

    Everything here is derived from the node graph and rebuilt on
    demand; segments are never persisted and never accounted in the
    modelled cache size.
    """

    __slots__ = (
        "fn",           #: generated straight-line replay function
        "source",       #: generated source (capture_source=True only)
        "nodes",        #: tuple of covered nodes, traversal order
        "requests",     #: tuple of pre-built Rollback requests
        "keys",         #: tuple of non-inlinable expected edge keys
        "n_actions",    #: covered action-node count (excl. configs)
        "n_configs",    #: covered configuration-node count
        "cycles",       #: total advance delta, owed at a full replay
        "retired",      #: fused Retire totals, owed likewise
        "last_config",  #: last covered configuration node (or None)
        "last_attach",  #: (last covered node, edge key or None)
        "end",          #: successor of the segment at compile time
        "exit_meta",    #: per-guard/terminal ExitMeta tuple
        "full_exit",    #: full replay as an ExitMeta (no exit node)
        "guard_keys",   #: expected edge key per guard, walk order
        "has_terminal", #: segment ends in a dynamic multi-edge outcome
        "generation",   #: cache.graph_generation when compiled
        "touched_at",   #: touch-clock value of the latest full replay
    )

    def __init__(self, fn, nodes, requests, keys, n_actions, n_configs,
                 cycles, retired, last_config, last_attach, end,
                 exit_meta, guard_keys, has_terminal, generation,
                 source=None):
        self.fn = fn
        self.source = source
        self.nodes = nodes
        self.requests = requests
        self.keys = keys
        self.n_actions = n_actions
        self.n_configs = n_configs
        self.cycles = cycles
        self.retired = retired
        self.last_config = last_config
        self.last_attach = last_attach
        self.end = end
        self.exit_meta = exit_meta
        self.full_exit = (None, False, n_actions, len(nodes), cycles,
                          retired, n_configs, last_config)
        self.guard_keys = guard_keys
        self.has_terminal = has_terminal
        self.generation = generation
        self.touched_at = 0

    def __repr__(self) -> str:
        return (f"<CompiledSegment {self.n_actions}+{self.n_configs} "
                f"nodes, +{self.cycles} cycles, "
                f"{len(self.exit_meta)} guards>")


def _literal(value) -> Optional[str]:
    """Source literal for *value* if it can be inlined, else None."""
    if value is None or value is True or value is False:
        return repr(value)
    if type(value) is int or type(value) is str:
        return repr(value)
    if type(value) is tuple:
        parts = [_literal(v) for v in value]
        if any(p is None for p in parts):
            return None
        inner = ", ".join(parts)
        return f"({inner},)" if len(parts) == 1 else f"({inner})"
    return None


def compile_segment(head: Node, generation: int,
                    capture_source: bool = False) -> CompiledSegment:
    """Compile the statically-known region starting at *head*.

    *head* must be an action node (``can_head``). The walk covers
    linear actions, configurations, and single-edge outcome nodes
    (which become guards); it stops at multi-edge outcomes, end nodes,
    pruned links, revisits, or :data:`MAX_SEGMENT_NODES`.

    *capture_source* keeps the generated source on the segment's
    ``source`` slot (the flow lint's codegen audit reads it; replay
    never needs it, so by default it is dropped after ``compile()``).
    """
    nodes: List[Node] = []
    requests: List[Rollback] = []
    keys: List[object] = []
    guard_keys: List[object] = []
    lines: List[str] = []
    exit_meta: List[ExitMeta] = []
    seen: set = set()  # nodes hash by identity; compile-time only

    cycles = 0           # advance deltas so far: the clock readers' offset
    # Fused retires so far: the cursor readers' offsets, and as a
    # request what each exit owes the world.
    retired = Retire(0, 0, 0, 0, 0)
    n_actions = 0
    n_configs = 0
    last_config: Optional[ConfigNode] = None
    last_key = None      # edge key that reached the *next* node

    def key_expr(key) -> str:
        lit = _literal(key)
        if lit is not None:
            return lit
        keys.append(key)
        return f"K[{len(keys) - 1}]"

    def exit_record(node: Node, is_control: bool) -> int:
        # The interpreter books an outcome before checking its edges,
        # so the exiting node counts.
        exit_meta.append((
            node, is_control, n_actions + 1, len(nodes) + 1, cycles,
            retired, n_configs, last_config,
        ))
        return len(exit_meta) - 1

    def outcome_call(kind, node) -> Tuple[str, str]:
        """Emit the call for an outcome node; return (test expr, ret):
        controls hand back the record (the engine reads its edge key
        off it), loads/stores the raw reply."""
        if kind is ControlNode:
            lines.append(SEG_TEMPLATES["control_call"])
            return "rec.outcome_key", "rec"
        if kind is LoadIssueNode:
            template, base = "load_issue", retired.loads
        elif kind is LoadPollNode:
            template, base = "load_poll", retired.loads
        else:  # StoreIssueNode
            template, base = "store_issue", retired.stores
        lines.append(SEG_TEMPLATES[template].format(
            index=base + node.ordinal, cycles=cycles))
        return "r", "r"

    has_terminal = False
    node: Optional[Node] = head
    while (node is not None and len(nodes) < MAX_SEGMENT_NODES
           and node not in seen):
        kind = node.__class__
        if kind is AdvanceNode:
            cycles += node.delta
        elif kind is RetireNode:
            request = node.request
            retired = Retire(retired.count + request.count,
                             retired.loads + request.loads,
                             retired.stores + request.stores,
                             retired.controls + request.controls,
                             retired.branches + request.branches)
        elif kind is RollbackNode:
            # The world's cf_base is still its segment-entry value:
            # fold in the controls retired since.
            request = node.request
            requests.append(Rollback(
                request.control_ordinal + retired.controls,
                request.squashed_loads, request.squashed_stores,
                request.squashed_controls))
            lines.append(SEG_TEMPLATES["rollback"].format(
                index=len(requests) - 1))
        elif node.is_config:
            seen.add(node)
            nodes.append(node)
            n_configs += 1
            last_config = node
            last_key = None
            node = node.next
            continue
        elif node.is_outcome and len(node.edges) == 1:
            ((key, successor),) = node.edges.items()
            test, ret = outcome_call(kind, node)
            guard_keys.append(key)
            lines.append(SEG_TEMPLATES["guard"].format(
                test=test, key=key_expr(key),
                index=exit_record(node, kind is ControlNode), ret=ret,
            ))
            seen.add(node)
            nodes.append(node)
            n_actions += 1
            last_key = key
            node = successor
            continue
        elif node.is_outcome:
            # Multi-edge outcome: a dynamic terminal. The compiled
            # code performs the call and hands the reply back; the
            # engine does the edge lookup itself, as the interpreter
            # would.
            _, ret = outcome_call(kind, node)
            lines.append(SEG_TEMPLATES["terminal"].format(
                index=exit_record(node, kind is ControlNode), ret=ret))
            nodes.append(node)
            n_actions += 1
            has_terminal = True
            node = None
            break
        else:
            break  # EndNode or unknown: stop here
        seen.add(node)
        nodes.append(node)
        n_actions += 1
        last_key = None
        node = node.next

    body = "\n".join(lines) + ("\n" if lines else "")
    used = set(_NAME_RE.findall(body))
    source = SEG_HEADER
    for name, target in sorted(WORLD_BINDINGS.items()):
        if name in used:
            source += SEG_TEMPLATES["bind"].format(name=name, target=target)
    source += body + SEG_TEMPLATES["epilogue"]
    # Structurally identical chains generate byte-identical source and
    # share one code object (see repro.codecache).
    fn = codecache.load(source, "<repro.turbo segment>", "_seg")

    return CompiledSegment(
        fn, tuple(nodes), tuple(requests), tuple(keys),
        n_actions, n_configs, cycles, retired, last_config,
        (nodes[-1], last_key), node, tuple(exit_meta),
        tuple(guard_keys), has_terminal, generation,
        source=source if capture_source else None,
    )


def segment_digest(segment: CompiledSegment) -> bytes:
    """Structural SHA-256 digest of a compiled segment's covered chain.

    Two segments compiled from structurally identical chains — same
    node kinds, payloads, config blobs, and guarded edge keys, in the
    same order — have equal digests, regardless of which process or
    graph object they were compiled in. This is the identity the
    persistent segment store (:mod:`repro.memo.segstore`) keys on: at
    install time the chain is recompiled from the *live* graph and its
    digest compared against the persisted one, so a stale or corrupt
    record can only ever cause a skipped install, never a wrong replay.

    Both ends derive the digest from a :class:`CompiledSegment`
    produced by :func:`compile_segment`, so the walk rules can never
    drift between save and load.
    """
    h = hashlib.sha256()
    upd = h.update
    nodes = segment.nodes
    count = len(nodes)
    guard_keys = segment.guard_keys
    j = 0
    for i, node in enumerate(nodes):
        kind = node.__class__
        if kind is AdvanceNode:
            upd(b"A")
            upd(node.delta.to_bytes(4, "big"))
        elif kind is RetireNode:
            upd(b"R")
            request = node.request
            upd(bytes((request.count, request.loads, request.stores,
                       request.controls, request.branches)))
        elif kind is RollbackNode:
            upd(b"B")
            request = node.request
            upd(request.control_ordinal.to_bytes(4, "big"))
            upd(bytes((request.squashed_loads, request.squashed_stores,
                       request.squashed_controls)))
        elif node.is_config:
            upd(b"C")
            upd(len(node.blob).to_bytes(4, "big"))
            upd(node.blob)
        else:  # outcome node: guard (single edge) or trailing terminal
            terminal = segment.has_terminal and i + 1 == count
            upd(b"T" if terminal else b"G")
            upd(kind.__name__.encode("ascii"))
            if node.ordinal is not None:  # a ControlNode has none
                upd(node.ordinal.to_bytes(4, "big"))
            if not terminal:
                upd(repr(guard_keys[j]).encode("ascii"))
                j += 1
    upd(segment.cycles.to_bytes(8, "big"))
    upd(segment.retired.count.to_bytes(8, "big"))
    return h.digest()


def revalidate(segment: CompiledSegment, generation: int) -> bool:
    """Revive *segment* after a graph mutation if its region survived.

    A generation bump says *something* in the graph changed — usually
    an attach far away from this segment. Re-walking the covered nodes
    and comparing every successor link, edge table and guard key
    against what was compiled is O(length) pointer checks; when nothing
    differs the segment is stamped with the current generation and
    reused, skipping the re-warm/recompile cycle entirely.
    """
    nodes = segment.nodes
    guard_keys = segment.guard_keys
    count = len(nodes)
    j = 0
    for i, node in enumerate(nodes):
        if segment.has_terminal and i + 1 == count:
            break  # the terminal's edge table is consulted at runtime
        expected = nodes[i + 1] if i + 1 < count else segment.end
        if node.is_outcome:
            edges = node.edges
            if len(edges) != 1:
                return False
            ((key, successor),) = edges.items()
            if key != guard_keys[j] or successor is not expected:
                return False
            j += 1
        elif node.next is not expected:
            return False
    segment.generation = generation
    return True


class SegmentTable:
    """Per-cache registry of compiled segments (+ turbo statistics).

    Owned by a :class:`~repro.memo.pcache.PActionCache` (its ``turbo``
    attribute); installed by the engine when compilation is enabled.
    The registry exists for :meth:`flush_touches` — segments defer
    per-node ``touch_gen`` writes until a replacement policy is about
    to make survival decisions.
    """

    def __init__(self):
        self.segments: List[CompiledSegment] = []
        #: Segments ever compiled / full fast-path replays / guard
        #: side exits / stale segments discarded at use (obs mirrors
        #: these as ``turbo.segments_compiled`` etc.).
        self.segments_compiled = 0
        self.segment_replays = 0
        self.side_exits = 0
        self.revalidations = 0
        self.invalidations = 0
        #: Segments installed pre-warmed from a persistent segment
        #: store (:mod:`repro.memo.segstore`) rather than compiled
        #: after threshold traversals.
        self.segments_installed = 0

    def register(self, segment: CompiledSegment) -> CompiledSegment:
        self.segments.append(segment)
        self.segments_compiled += 1
        return segment

    def flush_touches(self, current_generation: int) -> None:
        """Materialize deferred touches onto nodes; drop dead segments.

        Called (via ``PActionCache.prepare_collection``) before a
        replacement policy computes survivals, so ``touch_gen`` is as
        up to date as interpreted replay would have left it. Collection
        order with respect to whole segments is what makes the values
        equivalent: a collection never lands mid-segment, so "all nodes
        stamped with the segment's final clock" and "nodes stamped with
        consecutive clocks" fall on the same side of every threshold.
        """
        live: List[CompiledSegment] = []
        for segment in self.segments:
            stamp = segment.touched_at
            if stamp:
                for node in segment.nodes:
                    if stamp > node.touch_gen:
                        node.touch_gen = stamp
            # A stale-generation segment may yet be revived by
            # revalidate(); it stays live while its head still points
            # at it (the engine clears ``head.seg`` when discarding).
            if segment.nodes[0].seg is segment:
                live.append(segment)
        self.segments = live

    def snapshot(self) -> dict:
        """Sorted-key statistics view (for dumps and tests)."""
        return {
            "invalidations": self.invalidations,
            "revalidations": self.revalidations,
            "segment_replays": self.segment_replays,
            "segments_compiled": self.segments_compiled,
            "segments_installed": self.segments_installed,
            "segments_live": len(self.segments),
            "side_exits": self.side_exits,
        }
