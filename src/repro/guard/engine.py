"""Online replay audits — lockstep verification of memoized chains.

The memoization invariant (PAPER.md §4) is that replaying a p-action
chain is *bit-identical* to detailed simulation. :mod:`repro.lint`
defends that invariant statically; this module defends it at runtime:
:class:`GuardedEngine` deterministically samples replay episodes and
runs each sampled episode in **lockstep** with a shadow
:class:`~repro.uarch.detailed.DetailedSimulator` reconstructed from the
episode's entry configuration.

Why lockstep rather than replay-then-check: an audit that compares
results *after* driving the world cannot recover — the wrong retires,
cache issues, and cycle advances have already been applied. Here every
action node is verified against the shadow's actual next request
*before* the world is touched, so on divergence the world is still
clean at the last verified action and the engine can

1. emit a structured :class:`DivergenceReport`,
2. quarantine the corrupt portion of the chain in the
   :class:`~repro.memo.pcache.PActionCache` (severing it from the
   graph so no later episode replays it), and
3. hand the already-synchronised shadow simulator straight to record
   mode, exactly like the engine's normal fall-back path —

degrading to detailed simulation instead of crashing or emitting wrong
numbers. Each verified request is performed through ``World.answer``,
so the verified prefix performs the same world calls in the same order
at the same cycles as unguarded replay (cycle advances are deferred
until validated, then applied node-by-node), and an audited run of an
*uncorrupted* cache is ``timing_equal`` to an unguarded run.

Trust anchor: the shadow is decoded from
``PActionCache.last_lookup_blob`` — the dict *key* that produced the
entry hit, written by ``encode_config`` moments before — not from the
entry node's ``blob`` attribute, which is itself one of the fields a
bit-flip can corrupt. A mismatch between the two is the first thing an
audit checks.

The shadow comes from ``FastForwardEngine._restore`` and a hand-off
enters record mode through ``_enter_record``, like every other way back
into detailed simulation. The terminal configuration is no special
case: restored there, the shadow yields ``Finished`` at once.

Clock bookkeeping: ``shadow_cycle`` is the cycle whose requests the
shadow generator produces next; consuming a ``CycleBoundary`` ends that
cycle. A chain action is validated by ``world.cycle + pending_delta ==
shadow_cycle`` where ``pending_delta`` sums the not-yet-applied
``AdvanceNode`` deltas — i.e. the chain's claimed clock must meet the
shadow's actual clock. Entry states are boundary snapshots, so a fresh
shadow's first requests belong to ``world.cycle + 1``; the one
exception is the program's *root* configuration — the blob ``run()``
encoded at cold start (``root_blob``), met with the world at cycle 0 —
whose chain was recorded from a cold start and begins at cycle 0. A
boundary-snapped state that happens to encode identically to the root
at world cycle 0 would be misclassified, but such a state would
require the whole cycle-0 fetch group to vanish within its own cycle,
which the pipeline cannot do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.memo.actions import (
    AdvanceNode,
    ConfigNode,
    ControlNode,
    EndNode,
    LoadIssueNode,
    LoadPollNode,
    Node,
    RetireNode,
    RollbackNode,
    StoreIssueNode,
)
from repro.memo.engine import _REQUEST_FOR_NODE, FastForwardEngine
from repro.uarch.config_codec import encode_config
from repro.uarch.interactions import CycleBoundary, Finished


@dataclass(frozen=True)
class DivergenceReport:
    """One audited replay episode that disagreed with re-execution.

    ``kind`` names the check that failed:

    ==================  ====================================================
    ``entry-blob``      entry node's blob differs from the trusted lookup key
    ``config-blob``     a crossed configuration differs from the shadow state
    ``config-misplaced``the shadow still had actions where the chain put a
                        configuration boundary
    ``structure``       an AdvanceNode immediately precedes a configuration
                        (recording never produces that shape)
    ``clock-skew``      the chain's claimed cycle for an action differs from
                        the shadow's actual clock
    ``action-type``     the chain's node kind differs from the shadow request
    ``action-payload``  same kind, different payload (ordinal/retire counts)
    ``end-mismatch``    the chain claims the program ends here (or with a
                        different drain delta) and the shadow disagrees
    ==================  ====================================================
    """

    kind: str
    episode: int        #: replay-episode ordinal (0-based) within the run
    chain_index: int    #: actions replayed on this chain before detection
    world_cycle: int    #: world clock at detection (last verified action)
    shadow_cycle: int   #: shadow simulator's clock at detection
    expected: str       #: repr of the chain node that failed verification
    actual: str         #: repr of the shadow's actual request ("" if n/a)

    def as_dict(self) -> Dict[str, object]:
        """Sorted-key dict for JSON export (stable document)."""
        return {
            "actual": self.actual,
            "chain_index": self.chain_index,
            "episode": self.episode,
            "expected": self.expected,
            "kind": self.kind,
            "shadow_cycle": self.shadow_cycle,
            "world_cycle": self.world_cycle,
        }


def _replay_pending(request, generator):
    """Re-deliver *request* (pulled during verification), then delegate.

    Record mode receives this wrapper instead of the raw shadow
    generator when an audit pulled one request past the divergence
    point; the wrapper replays that request first so record mode sees
    the exact stream a fresh resync would have produced.
    """
    received = yield request
    while True:
        received = yield generator.send(received)


class GuardedEngine(FastForwardEngine):
    """A :class:`FastForwardEngine` that audits sampled replay episodes.

    ``audit_every=N`` audits every Nth replay episode (1 = all): the
    episodes whose ordinal is a multiple of N, so two guarded runs
    audit the same episodes.
    """

    def __init__(self, executable, world, pcache=None, policy=None,
                 obs=None, audit_every: int = 1,
                 turbo: bool = True, turbo_threshold: Optional[int] = None):
        super().__init__(executable, world, pcache=pcache, policy=policy,
                         obs=obs, turbo=turbo,
                         turbo_threshold=turbo_threshold)
        if audit_every < 1:
            raise ValueError("audit_every must be >= 1")
        self.audit_every = audit_every
        self.audits = 0
        self.divergences = 0
        self.reports: List[DivergenceReport] = []

    # ------------------------------------------------------------------

    def _replay(self, entry: ConfigNode):
        ordinal = self.memo.replay_episodes
        if ordinal % self.audit_every == 0:
            return self._replay_audited(entry, ordinal)
        return super()._replay(entry)

    # ------------------------------------------------------------------
    # Audited replay: lockstep chain-vs-shadow verification
    # ------------------------------------------------------------------

    def _replay_audited(self, entry: ConfigNode, ordinal: int):
        world = self.world
        cache = self.cache
        memo = self.memo
        obs = self.obs
        obs_on = self._obs_on

        true_blob = cache.last_lookup_blob
        if true_blob is None or cache.index.get(true_blob) is not entry:
            # No trusted key for this entry (direct invocation outside
            # the engine's own lookup path) — cannot anchor a shadow.
            return super()._replay(entry)

        memo.replay_episodes += 1
        self.audits += 1
        if obs_on:
            obs.counter("guard.audits")

        shadow = self._restore(true_blob)
        gen = shadow.run()
        is_root = world.cycle == 0 and true_blob == self.root_blob
        shadow_cycle = world.cycle if is_root else world.cycle + 1

        chain_length = 0
        segment_outcome = False  # an outcome verified since the last config
        pending: List[AdvanceNode] = []  # unapplied, not-yet-validated
        pending_delta = 0
        send = None             # outcome owed to the shadow on next pull
        came_from = None        # last verified attach point
        position: Optional[Node] = entry
        first = True

        def pull():
            """One raw event from the shadow (feeds any owed outcome)."""
            nonlocal send
            try:
                request = gen.send(send)
            except StopIteration:  # pragma: no cover - protocol violation
                raise SimulationError(
                    "detailed simulator ended unexpectedly"
                )
            send = None
            return request

        def pump():
            """Next non-boundary event, counting boundaries as cycles."""
            nonlocal shadow_cycle
            while True:
                request = pull()
                if type(request) is CycleBoundary:
                    shadow_cycle += 1
                    if shadow_cycle > self.max_cycles + 1:
                        raise SimulationError(
                            f"exceeded {self.max_cycles} simulated cycles"
                        )
                    continue
                return request

        def flush():
            """Apply clock-validated AdvanceNodes exactly as unguarded
            replay would (same world calls, same counter updates)."""
            nonlocal pending, pending_delta, came_from, chain_length
            for advance in pending:
                world.advance_cycles(advance.delta)
                memo.replayed_cycles += advance.delta
                if obs_on:
                    obs.sample_cycle(world.cycle, self)
                if world.cycle > self.max_cycles:
                    raise SimulationError(
                        f"exceeded {self.max_cycles} simulated cycles"
                    )
                memo.actions_replayed += 1
                chain_length += 1
                came_from = (advance, None)
            pending = []
            pending_delta = 0

        def handoff(attach, pending_request=None):
            """Record-mode tuple at the shadow's current position.

            The shadow doubles as the resync simulator: it is already
            synchronised through the last verified action, so no
            outcome re-feed is needed. Its next boundary ends
            ``shadow_cycle`` by the clock convention, which is what
            ``_enter_record`` aligns the world to.
            """
            generator = gen
            if pending_request is not None:
                generator = _replay_pending(pending_request, gen)
            return self._enter_record(shadow, generator, attach,
                                      shadow_cycle, send,
                                      segment_outcome)

        def corrupt(label, node, request, attach, pending_request=None,
                    invalidated=None):
            """Report + quarantine + degrade to record mode."""
            if invalidated is not None:
                cache.invalidate(invalidated)
            else:
                # The corrupt suffix is spliced out when record mode
                # attaches the fresh branch at *attach*; count it as an
                # invalidation for snapshot()/operator visibility, and
                # bump the graph generation so compiled replay segments
                # built over the suffix are revalidated before reuse.
                cache.invalidations += 1
                cache.graph_generation += 1
            report = DivergenceReport(
                kind=label,
                episode=ordinal,
                chain_index=chain_length,
                world_cycle=world.cycle,
                shadow_cycle=shadow_cycle,
                expected=repr(node) if node is not None else "<chain end>",
                actual=repr(request) if request is not None else "",
            )
            self.reports.append(report)
            self.divergences += 1
            if obs_on:
                obs.counter("guard.divergences")
                obs.event("guard.divergence", cat="guard",
                          **report.as_dict())
            self._end_chain(chain_length)
            return handoff(attach, pending_request)

        while True:
            node = position
            if node is None:
                # Chain pruned (replacement policy) or severed by a
                # previous quarantine: validate any trailing advances
                # against the shadow's true next request, then resume
                # recording with the shadow in place of a fresh resync.
                if pending_delta:
                    request = pump()
                    if world.cycle + pending_delta != shadow_cycle:
                        return corrupt("clock-skew", None, request,
                                       came_from, pending_request=request)
                    flush()
                    self._end_chain(chain_length)
                    return handoff(came_from, pending_request=request)
                self._end_chain(chain_length)
                return handoff(came_from)
            cache.touch(node)
            kind = type(node)

            if kind is ConfigNode:
                if first:
                    first = False
                    if node.blob != true_blob:
                        return corrupt("entry-blob", node, None, None,
                                       invalidated=node)
                else:
                    # Recording attaches configurations directly after
                    # an action, never after an AdvanceNode.
                    if pending_delta:
                        return corrupt("structure", node, None, came_from)
                    boundary = pull()
                    if type(boundary) is not CycleBoundary:
                        return corrupt("config-misplaced", node, boundary,
                                       came_from, pending_request=boundary)
                    shadow_cycle += 1
                    blob = encode_config(shadow.iq.entries, shadow.fetch_pc,
                                         shadow.fetch_stalled,
                                         shadow.fetch_halted)
                    if blob != node.blob:
                        return corrupt("config-blob", node, None,
                                       came_from, invalidated=node)
                memo.configs_replayed += 1
                segment_outcome = False
                came_from = (node, None)
                position = node.next
                continue

            if kind is AdvanceNode:
                # Deferred: applied by flush() once the next action's
                # clock check has validated the claimed delta.
                pending.append(node)
                pending_delta += node.delta
                position = node.next
                continue

            if kind is EndNode:
                request = pump()
                if (type(request) is not Finished
                        or world.cycle + pending_delta + node.delta
                        != shadow_cycle):
                    return corrupt("end-mismatch", node, request,
                                   came_from, pending_request=request)
                flush()
                world.advance_cycles(node.delta)
                memo.replayed_cycles += node.delta
                memo.actions_replayed += 1
                chain_length += 1
                self._end_chain(chain_length)
                return ("finished",)

            expected = _REQUEST_FOR_NODE.get(kind)
            if expected is None:  # pragma: no cover - protocol violation
                raise SimulationError(
                    f"unknown node {node!r} in p-action cache"
                )
            request = pump()
            if world.cycle + pending_delta != shadow_cycle:
                return corrupt("clock-skew", node, request, came_from,
                               pending_request=request)
            # The clock check validated the pending advances (their sum
            # meets the shadow's actual clock); apply them so the world
            # and the splice point sit exactly at this action.
            flush()
            if type(request) is not expected:
                return corrupt("action-type", node, request, came_from,
                               pending_request=request)
            if _payload_mismatch(node, request):
                return corrupt("action-payload", node, request, came_from,
                               pending_request=request)

            reply = world.answer(request)  # == the recorded request
            if kind is RetireNode:
                memo.replayed_instructions += request.count
            memo.actions_replayed += 1
            chain_length += 1
            if not node.is_outcome:
                came_from = (node, None)
                position = node.next
                continue
            segment_outcome = True
            send = reply
            key = reply.outcome_key if kind is ControlNode else reply
            successor = node.edges.get(key)
            if successor is None:
                # Outcome not yet memoized — the engine's normal
                # fall-back, not corruption. The shadow is already
                # at the divergence point.
                self._end_chain(chain_length)
                return handoff((node, key))
            came_from = (node, key)
            position = successor


def _payload_mismatch(node: Node, request) -> bool:
    """Same request kind — do the recorded parameters match?"""
    kind = type(node)
    if kind is RetireNode or kind is RollbackNode:
        return request != node.request
    if kind in (LoadIssueNode, LoadPollNode, StoreIssueNode):
        return request.ordinal != node.ordinal
    return False  # ControlNode / GetControl carry no payload
