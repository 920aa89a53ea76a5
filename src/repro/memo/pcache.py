"""The p-action cache — configurations mapped to action chains.

Owns the configuration index (compressed iQ snapshot → entry node), the
modelled size accounting, and the allocation statistics that Table 5
reports. Replacement decisions are delegated to a
:class:`~repro.memo.policies.ReplacementPolicy`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import MemoizationError
from repro.memo.actions import ACTION_BYTES, ConfigNode, EDGE_BYTES, Node
from repro.uarch.config_codec import config_size_bytes

#: An attachment point: (node, edge_key). ``edge_key`` is None for
#: single-successor nodes, else the outcome value whose edge to set.
AttachPoint = Tuple[Node, Optional[object]]


def reachable(roots: Iterable[Node]) -> Iterator[Node]:
    """Every node reachable from *roots*, each once, depth first.

    The one graph walk: a node is yielded, then its outcome edges (in
    insertion order) or its ``next`` are pushed, and the stack pops the
    last pushed first. The order is therefore a function of the root
    order and the graph alone, which the persistent formats rely on.
    """
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if node.is_outcome:
            stack.extend(node.edges.values())
        elif node.next is not None:
            stack.append(node.next)


class PActionCache:
    """Graph of configurations and memoized simulator actions."""

    def __init__(self) -> None:
        self.index: Dict[bytes, ConfigNode] = {}
        self.bytes_used = 0
        self.peak_bytes = 0
        #: Static allocation counters (Table 5).
        self.configs_allocated = 0
        self.actions_allocated = 0
        #: Monotonic clock used for touch-based (GC) replacement.
        self.touch_clock = 0
        #: Number of flushes / collections performed.
        self.collections = 0
        #: Identity of the program this cache's configurations describe.
        self._bound_program: Optional[bytes] = None
        #: Structural-mutation generation. Bumped by every operation
        #: that changes node linkage or membership (attach, invalidate,
        #: clear, rebuild); compiled replay segments record the value
        #: they were built under and are discarded on mismatch, so the
        #: turbo fast path can never walk stale pointers
        #: (:mod:`repro.memo.compile`).
        self.graph_generation = 0
        #: Chain-compilation registry (:class:`repro.memo.compile.
        #: SegmentTable`); installed by the engine when turbo is
        #: enabled, None otherwise. Derived state — never persisted.
        self.turbo = None
        #: The key of the most recent :meth:`lookup` hit. The guard's
        #: audit engine uses it as the *trusted* encoding of the state
        #: a replay episode entered from (the key was produced by
        #: ``encode_config`` moments before the hit, so it is immune to
        #: in-memory corruption of the node's ``blob`` attribute).
        self.last_lookup_blob: Optional[bytes] = None
        #: Chains invalidated (quarantined) by the audit engine.
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self.index)

    def bind_program(self, signature: bytes) -> None:
        """Tie the cache to one program's text image.

        Configurations encode instruction addresses, so replaying a
        cache recorded for a different binary would be silently wrong;
        sharing across runs is only legal for the same text.
        """
        if self._bound_program is None:
            self._bound_program = signature
        elif self._bound_program != signature:
            raise MemoizationError(
                "p-action cache was recorded for a different program; "
                "create a fresh PActionCache per executable"
            )

    def snapshot(self) -> Dict[str, object]:
        """Read-only live view for observability and the ``obs`` CLI.

        Keys are explicitly sorted so exported snapshots are stable
        documents; nothing here walks the graph (O(1)), so it is safe
        to call per sample while a simulation is running.
        """
        return {
            "actions_allocated": self.actions_allocated,
            "bytes_used": self.bytes_used,
            "collections": self.collections,
            "configs_allocated": self.configs_allocated,
            "configs_live": len(self.index),
            "invalidations": self.invalidations,
            "peak_bytes": self.peak_bytes,
            "touch_clock": self.touch_clock,
        }

    # -- lookup -----------------------------------------------------------

    def lookup(self, blob: bytes) -> Optional[ConfigNode]:
        """Find the configuration node for *blob*, touching it."""
        node = self.index.get(blob)
        if node is not None:
            self.touch_clock = node.touch_gen = self.touch_clock + 1
            self.last_lookup_blob = blob
        return node

    def invalidate(self, node: ConfigNode) -> None:
        """Quarantine *node*'s chain: unlink it and drop its index entry.

        Used by the audit engine when a replayed chain diverges from
        detailed re-execution (in-memory corruption, stale warm-start
        state). The configuration is removed from the index — keyed by
        identity, not by ``node.blob``, which may itself be the
        corrupted field — and its outgoing chain is severed, so every
        path into the node degrades to the safe pruned-chain fall-back
        and a fresh configuration is recorded for that state.

        ``node.blob`` is tried as the index key first — the common case
        where the blob field itself is intact — falling back to the
        full scan only when that probe misses (the blob may be the
        corrupted field).
        """
        try:
            hit = self.index.get(node.blob)
        except TypeError:  # blob corrupted into something unhashable
            hit = None
        if hit is node:
            del self.index[node.blob]
        else:
            for key, candidate in list(self.index.items()):
                if candidate is node:
                    del self.index[key]
        node.next = None
        self.invalidations += 1
        self.graph_generation += 1

    def touch(self, node: Node) -> None:
        """Mark *node* as used (replay traversal / recording)."""
        self.touch_clock += 1
        node.touch_gen = self.touch_clock

    # -- allocation ----------------------------------------------------------
    #
    # Growing the graph is a leaf: the three methods below make no
    # Python-level call of their own — size accounting, the peak and the
    # touch stamp are inline — and a recorded action is one call,
    # ``alloc_action(node, point)`` (``tests/test_call_budget.py`` holds
    # the helper composition they replaced as the reference;
    # docs/performance.md, "The record path").

    def alloc_config(self, blob: bytes) -> ConfigNode:
        """Allocate (and index) a new configuration node."""
        index = self.index
        if blob in index:
            raise MemoizationError("configuration already allocated")
        size = config_size_bytes(blob)
        index[blob] = node = ConfigNode(blob, size)
        self.configs_allocated += 1
        self.bytes_used = used = self.bytes_used + size
        if used > self.peak_bytes:
            self.peak_bytes = used
        self.touch_clock = node.touch_gen = self.touch_clock + 1
        return node

    def alloc_action(self, node: Node,
                     point: Optional[AttachPoint] = None) -> Node:
        """Account for a freshly created action node (no edge yet, so
        its modelled size is ``ACTION_BYTES``) and, when *point* is
        given, link it there: exactly ``alloc_action(node)`` followed by
        ``attach(point, node)``, in one call."""
        self.actions_allocated += 1
        self.bytes_used = used = self.bytes_used + ACTION_BYTES
        if used > self.peak_bytes:
            self.peak_bytes = used
        self.touch_clock = node.touch_gen = self.touch_clock + 1
        if point is None:
            return node
        parent, key = point
        if key is None:
            if parent.is_outcome:
                raise MemoizationError(
                    f"outcome node {parent!r} needs an edge key"
                )
            parent.next = node
        else:
            if not parent.is_outcome:
                raise MemoizationError(
                    f"{parent!r} cannot hold outcome edges"
                )
            edges = parent.edges
            edges[key] = node
            if len(edges) > 1:  # the first edge is in ACTION_BYTES
                self.bytes_used = used = used + EDGE_BYTES
                if used > self.peak_bytes:
                    self.peak_bytes = used
        self.graph_generation += 1
        return node

    def attach(self, point: Optional[AttachPoint], node: Node) -> None:
        """Link *node* as the successor at *point* (no-op when None).

        The same steps as the link in :meth:`alloc_action`, which keeps
        its own copy so that a recorded action stays one call; this one
        links configurations onto the chain."""
        if point is None:
            return
        parent, key = point
        if key is None:
            if parent.is_outcome:
                raise MemoizationError(
                    f"outcome node {parent!r} needs an edge key"
                )
            parent.next = node
        else:
            if not parent.is_outcome:
                raise MemoizationError(
                    f"{parent!r} cannot hold outcome edges"
                )
            edges = parent.edges
            edges[key] = node
            if len(edges) > 1:  # the first edge is in ACTION_BYTES
                self.bytes_used = used = self.bytes_used + EDGE_BYTES
                if used > self.peak_bytes:
                    self.peak_bytes = used
        self.graph_generation += 1

    # -- wholesale replacement support ----------------------------------------

    def prepare_collection(self) -> None:
        """Hook a replacement policy calls before computing survivals.

        Materializes the turbo fast path's deferred per-node touches
        (see :meth:`repro.memo.compile.SegmentTable.flush_touches`) so
        ``touch_gen``-based survival decisions are identical with chain
        compilation on or off.
        """
        if self.turbo is not None:
            self.turbo.flush_touches(self.graph_generation)

    def clear(self) -> None:
        """Drop everything (the flush-on-full policy)."""
        self.index.clear()
        self.bytes_used = 0
        self.collections += 1
        self.graph_generation += 1
        if self.turbo is not None:
            self.turbo.segments = []

    def rebuild(self, kept: Dict[bytes, ConfigNode]) -> None:
        """Replace the index after a garbage collection and re-account.

        The caller has already pruned dead successors from the kept
        subgraph; this recomputes ``bytes_used`` by walking it.
        """
        self.index = kept
        self.bytes_used = self._measure()
        self.collections += 1
        self.graph_generation += 1

    def _measure(self) -> int:
        return sum(node.size_bytes() for node in self.reachable_nodes())

    def reachable_nodes(self) -> Iterator[Node]:
        """Iterate every node reachable from the configuration index."""
        return reachable(self.index.values())
