"""Chain compilation — flat, replay-optimized segments (``repro.turbo``).

The fast-forward loop in :mod:`repro.memo.engine` is a node-at-a-time
interpreter: every replayed action pays a ``type()`` dispatch, a
``cache.touch``, a handful of per-field statistics increments, a
``chain_log.append`` and an attribute chase — and every configuration
node pays a fresh-list allocation and five bookkeeping stores. This
module compiles a hot region of the recorded graph — after
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
* **configuration nodes** are pure replay bookkeeping (log reset, new
  anchor) with one successor — the segment passes straight through and
  the bookkeeping is reconstructed from compile-time metadata;
* **outcome nodes with exactly one edge** become *guarded* calls: the
  world is asked exactly as the interpreter would, and the reply is
  compared against the single recorded edge key. Equal → the successor
  is the compiled continuation. Different → the generated function
  returns a side-exit token and the engine reconstructs the exact
  interpreter state (statistics, chain log, anchor) from the per-guard
  exit table, then falls back to resync — precisely what interpreted
  replay would have done, since within one graph generation a reply
  that differs from the only edge key cannot have an edge.

The walk stops at multi-edge outcome nodes, :class:`EndNode`, pruned
links, a revisited node (the natural loop-closing point — steady-state
loops become one segment replayed per iteration), or the
:data:`MAX_SEGMENT_NODES` cap.

Why replay is faster
--------------------

* consecutive :class:`AdvanceNode` deltas are **fused** into a single
  ``world.advance_cycles`` per outcome-to-outcome gap (legal because
  ``retire``/``rollback`` never read the cycle counter, while the
  cycle-sensitive outcome calls always see a fully advanced clock);
* consecutive :class:`RetireNode` requests are likewise **fused** into
  one pre-built ``Retire`` per gap — ``retire`` only *adds* to the
  queue cursors and statistics, and everything that reads a cursor
  (outcome calls, ``rollback``) is a flush barrier, so the fused call
  leaves exactly the interpreter's world state at every guard;
* ``Retire``/``Rollback`` request objects are pre-built;
* per-node statistics, touches and configuration bookkeeping collapse
  into per-segment constants applied once;
* chain-log entries for loads and stores are static (on a guard hit
  the logged reply *is* the edge key); only control records are
  captured at runtime (:class:`_CtlSlot` patches them into the log
  template on demand);
* the ``max_cycles`` abort check runs once per segment — the replay is
  skipped (interpreted instead) when the segment's total could cross
  the limit, so the interpreter raises at the exact same advance.

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

Because a valid segment performs exactly the interpreter's world calls
in the same order at the same cycles, and reconstructs the same
statistics, chain log and resync inputs, simulated results are
bit-identical with compilation on or off — asserted for every suite
workload by ``tests/memo/test_turbo.py`` and benchmarked by
``benchmarks/bench_replay_hot_loop.py`` (see docs/performance.md).
Segments are derived state: they are never persisted (FSPC stores only
nodes) and never counted in the modelled cache size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import codecache
from repro.memo.actions import (
    AdvanceNode,
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
#: live world adapter, ``R`` the pre-built request tuple, ``K`` the
#: non-inlinable key tuple, ``ctl_a`` the control-record collector.
SEG_HEADER = "def _seg(world, R, K, ctl_a):\n"

#: Local alias -> world attribute each generated binding line caches.
#: The values are, by construction, exactly the world methods the
#: interpreted replay loop (:meth:`FastForwardEngine._replay`) calls —
#: the flow lint's codegen checker cross-checks this table against the
#: interpreter source so compiler/interpreter drift is a lint error.
WORLD_BINDINGS = {
    "w_adv": "world.advance_cycles", "w_ret": "world.retire",
    "w_rb": "world.rollback", "w_get": "world.get_control",
    "w_il": "world.issue_load", "w_pl": "world.poll_load",
    "w_st": "world.issue_store",
}

#: Every line shape :func:`compile_segment` can emit, as
#: ``str.format`` templates. Exposed as a module constant so the flow
#: lint can audit the emitter (and tests can inject a mutation to
#: prove the audit bites). Generated code never contains any other
#: statement shape.
SEG_TEMPLATES = {
    "bind": "    {name} = {target}\n",
    "advance": "    w_adv({delta})",
    "retire": "    w_ret(R[{index}])",
    "rollback": "    w_rb(R[{index}])",
    "control_call": "    rec = w_get()",
    "control_log": "    ctl_a(rec)",
    "load_issue": "    r = w_il({ordinal})",
    "load_poll": "    r = w_pl({ordinal})",
    "store_issue": "    r = w_st({ordinal})",
    "guard": "    if {test} != {key}: return ({index}, {ret})",
    "terminal": "    return ({index}, {ret})",
    "epilogue": "    return None\n",
}


@dataclass(frozen=True)
class TurboConfig:
    """Chain-compilation knobs (``--turbo`` / ``--turbo-threshold``)."""

    enabled: bool = True
    threshold: int = DEFAULT_COMPILE_THRESHOLD

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("turbo threshold must be >= 1")

    @staticmethod
    def resolve(value) -> "TurboConfig":
        """Coerce ``None`` / bool / TurboConfig to a TurboConfig."""
        if value is None:
            return TurboConfig()
        if isinstance(value, TurboConfig):
            return value
        return TurboConfig(enabled=bool(value))


class _CtlSlot:
    """Placeholder in a log template for a runtime control record."""

    __slots__ = ("i",)

    def __init__(self, i: int):
        self.i = i


#: One guard's side-exit reconstruction record:
#: (node, is_control, actions_incl, visited_nodes, cycles_applied,
#:  instructions_before, configs_before, last_blob_or_None,
#:  log_template). ``actions_incl`` and ``visited_nodes`` count the
#: failing node itself — the interpreter books an outcome before
#: checking its edge table.
ExitMeta = Tuple[Node, bool, int, int, int, int, int,
                 Optional[bytes], Tuple]


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
        "requests",     #: tuple of pre-built Retire/Rollback requests
        "keys",         #: tuple of non-inlinable expected edge keys
        "n_actions",    #: covered action-node count (excl. configs)
        "n_configs",    #: covered configuration-node count
        "n_ctl",        #: control records captured per full replay
        "cycles",       #: total fused advance delta
        "instructions", #: total retired instruction count
        "last_blob",    #: blob of the last covered config (or None)
        "log_tail",     #: log entries after the last covered config
        "sets_anchor",  #: segment contains an anchor-setting node
        "trailing_delta",  #: advance cycles after the last anchor
        "last_attach",  #: (last covered node, edge key or None)
        "end",          #: successor of the segment at compile time
        "exit_meta",    #: per-guard/terminal ExitMeta tuple
        "guard_keys",   #: expected edge key per guard, walk order
        "has_terminal", #: segment ends in a dynamic multi-edge outcome
        "generation",   #: cache.graph_generation when compiled
        "touched_at",   #: touch-clock value of the latest full replay
    )

    def __init__(self, fn, nodes, requests, keys, n_actions, n_configs,
                 n_ctl, cycles, instructions, last_blob, log_tail,
                 sets_anchor, trailing_delta, last_attach, end,
                 exit_meta, guard_keys, has_terminal, generation,
                 source=None):
        self.fn = fn
        self.source = source
        self.nodes = nodes
        self.requests = requests
        self.keys = keys
        self.n_actions = n_actions
        self.n_configs = n_configs
        self.n_ctl = n_ctl
        self.cycles = cycles
        self.instructions = instructions
        self.last_blob = last_blob
        self.log_tail = log_tail
        self.sets_anchor = sets_anchor
        self.trailing_delta = trailing_delta
        self.last_attach = last_attach
        self.end = end
        self.exit_meta = exit_meta
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


def patch_log(template: Tuple, ctl: List) -> List[Tuple[Node, object]]:
    """Materialize a log template, filling control-record slots."""
    return [
        (node, ctl[value.i] if value.__class__ is _CtlSlot else value)
        for node, value in template
    ]


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
    requests: List[object] = []
    keys: List[object] = []
    guard_keys: List[object] = []
    lines: List[str] = []
    exit_meta: List[ExitMeta] = []
    seen: set = set()  # nodes hash by identity; compile-time only
    used = set()  # world method bindings the generated code needs

    pending = 0          # accumulated advance delta not yet emitted
    applied = 0          # advance cycles emitted so far
    cycles = 0
    instructions = 0
    n_actions = 0
    n_configs = 0
    n_ctl = 0
    last_blob: Optional[bytes] = None
    log_since: List[Tuple[Node, object]] = []
    sets_anchor = False
    trailing = 0
    last_key = None      # edge key that reached the *next* node

    pending_ret: Optional[List[int]] = None  # fused retire field sums

    def flush_retires() -> None:
        nonlocal pending_ret
        if pending_ret is not None:
            used.add("w_ret")
            requests.append(Retire(*pending_ret))
            lines.append(SEG_TEMPLATES["retire"].format(
                index=len(requests) - 1))
            pending_ret = None

    def flush() -> None:
        nonlocal pending, applied
        flush_retires()
        if pending:
            used.add("w_adv")
            lines.append(SEG_TEMPLATES["advance"].format(delta=pending))
            applied += pending
            pending = 0

    def key_expr(key) -> str:
        lit = _literal(key)
        if lit is not None:
            return lit
        keys.append(key)
        return f"K[{len(keys) - 1}]"

    def guard(node: Node, test_expr: str, ret_expr: str, key,
              is_control: bool) -> None:
        # Interpreted replay logs the outcome *before* checking the
        # edge table, so the failing node is part of the exit state;
        # controls hand back the record (the log value, from which the
        # engine recomputes the edge key), loads/stores the raw reply.
        guard_keys.append(key)
        exit_meta.append((
            node, is_control, n_actions + 1, len(nodes) + 1, applied,
            instructions, n_configs, last_blob, tuple(log_since),
        ))
        lines.append(SEG_TEMPLATES["guard"].format(
            test=test_expr, key=key_expr(key),
            index=len(exit_meta) - 1, ret=ret_expr,
        ))

    def outcome_call(kind, node) -> Tuple[str, str]:
        """Emit the world call for an outcome node; return (expr, ret)."""
        if kind is ControlNode:
            used.add("w_get")
            lines.append(SEG_TEMPLATES["control_call"])
            return "rec.outcome_key()", "rec"
        if kind is LoadIssueNode:
            used.add("w_il")
            lines.append(SEG_TEMPLATES["load_issue"].format(
                ordinal=node.ordinal))
        elif kind is LoadPollNode:
            used.add("w_pl")
            lines.append(SEG_TEMPLATES["load_poll"].format(
                ordinal=node.ordinal))
        else:  # StoreIssueNode
            used.add("w_st")
            lines.append(SEG_TEMPLATES["store_issue"].format(
                ordinal=node.ordinal))
        return "r", "r"

    has_terminal = False
    node: Optional[Node] = head
    while (node is not None and len(nodes) < MAX_SEGMENT_NODES
           and node not in seen):
        kind = node.__class__
        if kind is AdvanceNode:
            pending += node.delta
            cycles += node.delta
            trailing += node.delta
        elif kind is RetireNode:
            if pending_ret is None:
                pending_ret = [node.count, node.loads, node.stores,
                               node.controls, node.branches]
            else:
                pending_ret[0] += node.count
                pending_ret[1] += node.loads
                pending_ret[2] += node.stores
                pending_ret[3] += node.controls
                pending_ret[4] += node.branches
            instructions += node.count
            log_since.append((node, None))
            sets_anchor = True
            trailing = 0
        elif kind is RollbackNode:
            # Rollback reads the control cursor retires advance: apply
            # every pending retire before it, exactly as interpreted.
            flush_retires()
            used.add("w_rb")
            requests.append(Rollback(node.control_ordinal,
                                     node.squashed_loads,
                                     node.squashed_stores,
                                     node.squashed_controls))
            lines.append(SEG_TEMPLATES["rollback"].format(
                index=len(requests) - 1))
            log_since.append((node, None))
            sets_anchor = True
            trailing = 0
        elif node.is_config:
            seen.add(node)
            nodes.append(node)
            n_configs += 1
            last_blob = node.blob
            log_since = []
            sets_anchor = True
            trailing = 0
            last_key = None
            node = node.next
            continue
        elif node.is_outcome and len(node.edges) == 1:
            ((key, successor),) = node.edges.items()
            flush()
            test, ret = outcome_call(kind, node)
            is_control = kind is ControlNode
            guard(node, test, ret, key, is_control)
            if is_control:
                used.add("ctl_a")
                lines.append(SEG_TEMPLATES["control_log"])
                log_since.append((node, _CtlSlot(n_ctl)))
                n_ctl += 1
            else:
                log_since.append((node, key))
            seen.add(node)
            nodes.append(node)
            n_actions += 1
            sets_anchor = True
            trailing = 0
            last_key = key
            node = successor
            continue
        elif node.is_outcome:
            # Multi-edge outcome: a dynamic terminal. The compiled
            # code performs the world call and hands the reply back;
            # the engine does the edge lookup itself — exactly the
            # interpreter's outcome processing, with the preceding run
            # compiled instead of dispatched.
            flush()
            _, ret = outcome_call(kind, node)
            exit_meta.append((
                node, kind is ControlNode, n_actions + 1,
                len(nodes) + 1, applied, instructions, n_configs,
                last_blob, tuple(log_since),
            ))
            lines.append(SEG_TEMPLATES["terminal"].format(
                index=len(exit_meta) - 1, ret=ret))
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
    flush()

    source = SEG_HEADER
    for name in sorted(used & set(WORLD_BINDINGS)):
        source += SEG_TEMPLATES["bind"].format(
            name=name, target=WORLD_BINDINGS[name])
    source += "\n".join(lines) + ("\n" if lines else "")
    source += SEG_TEMPLATES["epilogue"]
    # Structurally identical chains generate byte-identical source and
    # share one code object (see repro.codecache).
    fn = codecache.load(source, "<repro.turbo segment>", "_seg")

    return CompiledSegment(
        fn, tuple(nodes), tuple(requests), tuple(keys),
        n_actions, n_configs, n_ctl, cycles, instructions, last_blob,
        tuple(log_since), sets_anchor, trailing,
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
            upd(bytes((node.count, node.loads, node.stores,
                       node.controls, node.branches)))
        elif kind is RollbackNode:
            upd(b"B")
            upd(node.control_ordinal.to_bytes(4, "big"))
            upd(bytes((node.squashed_loads, node.squashed_stores,
                       node.squashed_controls)))
        elif node.is_config:
            upd(b"C")
            upd(len(node.blob).to_bytes(4, "big"))
            upd(node.blob)
        else:  # outcome node: guard (single edge) or trailing terminal
            terminal = segment.has_terminal and i + 1 == count
            upd(b"T" if terminal else b"G")
            upd(kind.__name__.encode("ascii"))
            ordinal = getattr(node, "ordinal", None)
            if ordinal is not None:
                upd(ordinal.to_bytes(4, "big"))
            if not terminal:
                upd(repr(guard_keys[j]).encode("ascii"))
                j += 1
    upd(segment.cycles.to_bytes(8, "big"))
    upd(segment.instructions.to_bytes(8, "big"))
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

    def __init__(self, threshold: int = DEFAULT_COMPILE_THRESHOLD):
        if threshold < 1:
            raise ValueError("turbo threshold must be >= 1")
        self.threshold = threshold
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
            "threshold": self.threshold,
        }
