"""P-action cache replacement policies (paper §4.3).

The paper investigates four ways of bounding the p-action cache:

* **unbounded** — let it grow (fast while it fits in RAM);
* **flush-on-full** — drop the whole cache when it exceeds a limit and
  let detailed simulation repopulate it ("easy to implement and can
  limit the p-action cache to any size");
* **copying GC** — keep only actions *used since the last collection*;
* **generational GC** — ditto, but nodes that survive a collection are
  promoted and minor collections only sweep the young generation
  (one implementation: copying GC is generational GC with every
  collection major).

The paper's finding — reproduced by ``fastsim-repro gc-study``
— is that the collectors are "almost always worse than simply
flushing", because collections are infrequent and little of the cache
survives them.

A policy is consulted after every allocation burst
(:meth:`ReplacementPolicy.maybe_collect`); returning True tells the
recording engine that node identities were invalidated and it must
re-anchor at the next configuration boundary.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.memo.actions import ConfigNode, Node
from repro.memo.pcache import PActionCache, reachable


class ReplacementPolicy:
    """Interface: decide when and how to shrink the p-action cache."""

    #: Human-readable name used in benchmark output.
    name = "abstract"

    def maybe_collect(self, cache: PActionCache) -> bool:
        """Shrink *cache* if needed. True when a collection happened."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class UnboundedPolicy(ReplacementPolicy):
    """Never collect: the paper's default measurement configuration."""

    name = "unbounded"

    def maybe_collect(self, cache: PActionCache) -> bool:
        return False


class FlushOnFullPolicy(ReplacementPolicy):
    """Flush the entire cache when it exceeds *limit_bytes*."""

    name = "flush"

    def __init__(self, limit_bytes: int):
        if limit_bytes <= 0:
            raise ValueError("limit must be positive")
        self.limit_bytes = limit_bytes

    def maybe_collect(self, cache: PActionCache) -> bool:
        if cache.bytes_used <= self.limit_bytes:
            return False
        cache.clear()
        return True

    def describe(self) -> str:
        return f"flush@{self.limit_bytes}"


class GenerationalGCPolicy(ReplacementPolicy):
    """Two-generation collector: survivors are promoted and minor
    collections sweep only the young generation.

    A node is alive when its ``touch_gen`` is newer than the previous
    collection's clock or, on a minor collection, when it is promoted.
    Dead successors are unlinked, so replay hitting a pruned branch
    falls back to detailed simulation and re-records.
    """

    name = "generational-gc"

    #: Run a full (major) collection every this many collections.
    MAJOR_EVERY = 4

    def __init__(self, limit_bytes: int):
        if limit_bytes <= 0:
            raise ValueError("limit must be positive")
        self.limit_bytes = limit_bytes
        self._last_collection_clock = 0
        self._minor_count = 0
        #: Fraction of bytes surviving each collection (paper: ~18%).
        self.survival_rates = []

    def maybe_collect(self, cache: PActionCache) -> bool:
        if cache.bytes_used <= self.limit_bytes:
            return False
        # Materialize any touches the compiled fast path deferred, so
        # survival below sees what interpreted replay would have left.
        cache.prepare_collection()
        before = cache.bytes_used
        threshold = self._last_collection_clock
        self._minor_count += 1
        keep_old = self._minor_count % self.MAJOR_EVERY != 0

        def alive(node: Node) -> bool:
            return node.touch_gen > threshold or (keep_old
                                                  and node.generation > 0)

        # Per-node survival filter: insertion order of ``index`` is the
        # (deterministic) recording order, and the decision for each
        # node is independent of visit order.
        kept: Dict[bytes, ConfigNode] = {}
        for blob, node in cache.index.items():  # repro-lint: disable=det/dict-value-iteration
            if alive(node):
                kept[blob] = node
        for node in list(reachable(kept.values())):
            if node.is_outcome:
                # Order-insensitive: selects the *set* of dead edges.
                dead = [
                    key for key, succ in node.edges.items()  # repro-lint: disable=det/dict-value-iteration
                    if not alive(succ)
                ]
                for key in dead:
                    del node.edges[key]
            elif node.next is not None and not alive(node.next):
                node.next = None
        # Promote after pruning: promoting inside the prune would let a
        # young successor already promoted pass as old.
        if self.MAJOR_EVERY > 1:
            for node in reachable(kept.values()):
                node.generation = 1
        cache.rebuild(kept)
        self._last_collection_clock = cache.touch_clock
        self.survival_rates.append(
            cache.bytes_used / before if before else 0.0
        )
        return True

    def describe(self) -> str:
        return f"{self.name}@{self.limit_bytes}"


class CopyingGCPolicy(GenerationalGCPolicy):
    """Keep only nodes used since the last collection: every collection
    major. Re-recording pruned branches is exactly the cost the paper
    measured against flushing (plus, in the real implementation, the
    copying cost; our model counts surviving bytes identically)."""

    name = "copying-gc"
    MAJOR_EVERY = 1


def make_policy(name: str, limit_bytes: Optional[int] = None,
                ) -> ReplacementPolicy:
    """Factory: ``unbounded``, ``flush``, ``copying-gc``,
    ``generational-gc``."""
    if name == "unbounded":
        return UnboundedPolicy()
    if limit_bytes is None:
        raise ValueError(f"policy {name!r} requires limit_bytes")
    factories = {
        "flush": FlushOnFullPolicy,
        "copying-gc": CopyingGCPolicy,
        "generational-gc": GenerationalGCPolicy,
    }
    try:
        return factories[name](limit_bytes)
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from "
            f"{['unbounded'] + sorted(factories)}"
        ) from None
