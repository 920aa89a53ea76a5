"""The fast-forwarding engine — memoized μ-architecture simulation.

This is the reproduction of the paper's §4.2 machinery. The engine runs
in two alternating modes:

**Record (detailed) mode** pumps the :class:`DetailedSimulator`
generator exactly like SlowSim, but additionally writes every
interaction into the p-action cache: an :class:`AdvanceNode` whenever
the acting cycle moved, then the interaction's node, with outcome-bearing
interactions growing an edge per distinct result. At the end of a cycle
it snapshots the iQ into a configuration if an outcome-bearing action
was recorded since the last one — replay can leave a chain only at an
outcome, so a configuration reached through advances, retires and
rollbacks alone would be a key nothing resumes from (docs/memoization.md,
step 3). If that configuration is already in the cache the chain is
linked into the existing graph and the engine switches to —

**Replay (fast-forward) mode**, which walks the recorded graph and
executes the actions directly against the world — no iQ, no pipeline
scan, no per-cycle work for quiet cycles. Outcome-bearing actions call
the world and follow the edge matching the actual result; a result with
no edge (or a chain pruned by a replacement policy) terminates
fast-forwarding.

**Fall-back/resync**: on termination the engine decodes the owning
configuration back into a pipeline state, restarts a fresh detailed
simulator from it, and silently re-feeds the outcomes logged since that
configuration (no world side effects are repeated — the replayer
already performed them). The simulator is deterministic given
(configuration, outcome sequence), so after the last logged outcome it
stands exactly at the divergence point, and recording continues along a
new branch of the action chain — Figure 6's picture.

Because record and replay drive the same world methods in the same
order at the same cycle numbers, all simulated statistics are
bit-identical with and without memoization; the test suite asserts this
for every workload.

**What replay does not do.** A warm run leaves almost every compiled
segment through its dynamic terminal onto a configuration, so that path
builds only what is read: pure-sum statistics ride in locals and reach
``memo`` before an observer samples, before a fall-back and at the end;
a segment exit hands its chain-log share over unbuilt and
``patch_log`` runs only for a reader (resync, or the interpreter about
to append node-at-a-time) — a configuration drops it; the configuration
an exit lands on is stepped in the exit path. What later steps compare
stays eager and exact: the world's clock and cursors, touch stamps,
``log_anchor``, ``came_from`` (docs/performance.md, tier 2a). An
exception leaves the locals unsettled; the run is over.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Optional, Tuple

from repro.errors import MemoizationError, SimulationError
from repro.isa.program import Executable
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
from repro.memo.compile import (
    DEFAULT_COMPILE_THRESHOLD,
    SegmentTable,
    compile_segment,
    patch_log,
    revalidate,
)
from repro.memo.pcache import AttachPoint, PActionCache
from repro.memo.policies import ReplacementPolicy, UnboundedPolicy
from repro.obs.core import ensure_observer
from repro.sim.results import MemoStats
from repro.sim.world import World
from repro.uarch.config_codec import decode_config, encode_config
from repro.uarch.detailed import DetailedSimulator
from repro.uarch.interactions import (
    CycleBoundary,
    Finished,
    GetControl,
    IssueLoad,
    IssueStore,
    PollLoad,
    Retire,
    Rollback,
)


def run_signature(executable: Executable, params) -> bytes:
    """Identity used to prevent unsound p-action cache reuse.

    Recorded actions encode the *timing* of one pipeline on one binary:
    replaying them for a different text image or different processor
    parameters would be silently wrong, so the cache is bound to both.
    The binding is conservative: it hashes ``repr(params)`` whole,
    ``memory`` and ``bht_entries`` included, so a p-action cache is
    never reused across L1 / L2 geometries or BHT sizes — even though
    replay checks every cache and predictor reply as an outcome edge
    and nothing the pipeline reads depends on them. Narrowing the
    binding to the pipeline's own fields is ROADMAP item 5(b).

    This is also the key under which campaign cache directories store
    persisted p-action caches (see :mod:`repro.campaign.cachedir`).
    """
    digest = hashlib.sha256()
    digest.update(executable.text)
    digest.update(executable.text_base.to_bytes(4, "big"))
    digest.update(repr(params).encode())
    return digest.digest()


#: Matching (request type, node type) pairs for resync verification.
_REQUEST_FOR_NODE = {
    ControlNode: GetControl,
    LoadIssueNode: IssueLoad,
    LoadPollNode: PollLoad,
    StoreIssueNode: IssueStore,
    RetireNode: Retire,
    RollbackNode: Rollback,
}


def _build_log(chain_log: List[Tuple[Node, object]],
               parts: List[Tuple]) -> None:
    """Append to *chain_log* what the segment exits in *parts* logged,
    then empty *parts*: per exit, its template with the control records
    captured on that call patched in, then the exit node's own reply
    (a full replay has no exit node)."""
    for template, ctl, xnode, actual in parts:
        chain_log.extend(patch_log(template, ctl))
        if xnode is not None:
            chain_log.append((xnode, actual))
    parts.clear()


def _settle(memo: MemoStats, table: Optional[SegmentTable], actions: int,
            configs: int, cycles: int, instructions: int,
            replays: int) -> None:
    """Write the replay loop's local counters back where readers look."""
    memo.actions_replayed = actions
    memo.configs_replayed = configs
    memo.replayed_cycles = cycles
    memo.replayed_instructions = instructions
    if table is not None:
        table.segment_replays = replays


class FastForwardEngine:
    """Memoized simulation: detailed recording + fast-forward replay."""

    def __init__(
        self,
        executable: Executable,
        world: World,
        pcache: Optional[PActionCache] = None,
        policy: Optional[ReplacementPolicy] = None,
        obs=None,
        turbo: bool = True,
        turbo_threshold: Optional[int] = None,
    ):
        self.executable = executable
        self.world = world
        self.params = world.params
        self.cache = pcache if pcache is not None else PActionCache()
        self.policy = policy if policy is not None else UnboundedPolicy()
        # Chain compilation (repro.turbo), one to one with
        # ``HostOptions.turbo`` / ``turbo_threshold``. The segment table
        # lives on the cache so compiled segments stay warm across
        # engines sharing a pcache, and so replacement policies can
        # flush deferred touches before collecting; each engine compiles
        # at its own threshold (docs/performance.md).
        if turbo_threshold is None:
            turbo_threshold = DEFAULT_COMPILE_THRESHOLD
        if turbo_threshold < 1:
            raise ValueError("turbo threshold must be >= 1")
        self.turbo = turbo
        self.turbo_threshold = turbo_threshold
        if turbo and self.cache.turbo is None:
            self.cache.turbo = SegmentTable()
        self.memo = MemoStats()
        self.max_cycles = 0
        #: The cold-start configuration :meth:`run` encoded.
        self.root_blob: Optional[bytes] = None
        # Observability hooks. ``obs`` resolves to the module-level
        # null object when disabled; ``_obs_on`` guards per-cycle
        # sampling so the off path costs one attribute test. Observers
        # only read engine state (enforced by the obs/ lint family), so
        # simulated results are identical with obs on or off.
        self.obs = ensure_observer(obs)
        self._obs_on = self.obs.enabled

    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 50_000_000) -> MemoStats:
        """Simulate the program to completion."""
        self.max_cycles = max_cycles
        self.cache.bind_program(run_signature(self.executable, self.params))
        simulator = DetailedSimulator(self.executable, self.params)
        self.root_blob = blob = self._encode(simulator)
        node = self.cache.lookup(blob)
        if node is not None:
            mode = ("replay", node)
        else:
            root = self.cache.alloc_config(blob)
            mode = self._enter_record(simulator, simulator.run(),
                                      (root, None), self.world.cycle,
                                      None, False)

        while True:
            if mode[0] == "record":
                _, sim, generator, attach, anchor, send, debt, outcome = mode
                with self.obs.span("memo.record", cat="memo"):
                    mode = self._record(sim, generator, attach, anchor,
                                        send, debt, outcome)
            elif mode[0] == "replay":
                with self.obs.span("memo.replay", cat="memo"):
                    mode = self._replay(mode[1])
            else:  # finished
                self.memo.configs_allocated = self.cache.configs_allocated
                self.memo.actions_allocated = self.cache.actions_allocated
                self.memo.cache_bytes = self.cache.bytes_used
                self.memo.peak_cache_bytes = self.cache.peak_bytes
                self.memo.evictions = self.cache.collections
                return self.memo

    def _encode(self, simulator: DetailedSimulator) -> bytes:
        blob = encode_config(
            simulator.iq.entries,
            simulator.fetch_pc,
            simulator.fetch_stalled,
            simulator.fetch_halted,
        )
        if self._obs_on:
            self.obs.counter("memo.encodes")
            self.obs.observe("memo.config_bytes", len(blob))
        return blob

    def _restore(self, blob: bytes) -> DetailedSimulator:
        """A detailed simulator resumed from configuration *blob*.

        A blob that cannot decode is corrupt in-memory state: no
        simulator can resume from it, and silently proceeding would
        emit wrong numbers. It surfaces as the memoization failure it
        is (docs/robustness.md).
        """
        try:
            state = decode_config(blob, self.executable)
        except MemoizationError:
            raise
        except (ValueError, IndexError, struct.error) as exc:
            raise MemoizationError(
                f"cannot resynchronize: undecodable configuration "
                f"snapshot ({type(exc).__name__}: {exc})"
            ) from exc
        simulator = DetailedSimulator(self.executable, self.params)
        simulator.restore(*state)
        return simulator

    def _enter_record(self, simulator, generator,
                      attach: Optional[AttachPoint], first_boundary: int,
                      send, outcome: bool):
        """The record-mode tuple for *generator*, whose requests up to
        its first ``CycleBoundary`` belong to cycle *first_boundary*.

        The one clock alignment: a world behind that cycle is advanced
        to it and the cycles count as detailed; a world ahead has
        already advanced past boundaries the generator will still
        yield, and that lead becomes cycle debt for ``_record`` to
        swallow. *outcome* is ``_record``'s cut flag: whether the chain
        since the last configuration holds an outcome node — never at a
        cold start; what the resync re-fed or the audit verified.
        """
        world = self.world
        anchor = world.cycle  # cycle of the last action on the branch
        if anchor < first_boundary:
            world.advance_cycles(first_boundary - anchor)
            self.memo.detailed_cycles += first_boundary - anchor
        return ("record", simulator, generator, attach, anchor, send,
                max(0, anchor - first_boundary), outcome)

    def _end_chain(self, length: int) -> None:
        """Close one replay chain (statistics + event metrics)."""
        self.memo.chain_lengths.append(length)
        if self._obs_on:
            self.obs.observe("memo.chain_length", length)

    # ------------------------------------------------------------------
    # Record (detailed) mode
    # ------------------------------------------------------------------

    def _record(self, simulator, generator, attach: Optional[AttachPoint],
                anchor: int, send, cycle_debt: int, outcome: bool):
        """Run the detailed simulator, recording its actions.

        Returns the next mode tuple: ``("replay", node)`` when a known
        configuration is reached, or ``("finished",)``. *outcome* says
        whether the chain since the last configuration already holds an
        outcome node, so the next boundary is a cut point.

        One step per request and no helper frame of its own: a first
        visit pays for the pipeline, ``encode_config`` and the three
        ``PActionCache`` methods that grow the graph
        (docs/performance.md, "The record path").
        """
        world = self.world
        cache = self.cache
        memo = self.memo
        obs = self.obs
        obs_on = self._obs_on
        max_cycles = self.max_cycles
        step = generator.send
        alloc_action = cache.alloc_action
        link = cache.attach
        advance_cycles = world.advance_cycles
        maybe_collect = self.policy.maybe_collect
        actions_pending = attach is None  # force re-anchor after eviction

        while True:
            try:
                request = step(send)
            except StopIteration:  # pragma: no cover - protocol violation
                raise SimulationError("detailed simulator ended unexpectedly")
            send = None
            kind = type(request)

            if kind is CycleBoundary:
                # A configuration is cut where a chain can diverge: after
                # an outcome (or to re-anchor after an eviction), and
                # only when the world clock is in sync with the
                # simulator's cycle (not while swallowing cycles the
                # replayer already advanced).
                if (outcome or actions_pending) and cycle_debt == 0:
                    blob = (self._encode(simulator) if obs_on
                            else encode_config(simulator.iq.entries,
                                               simulator.fetch_pc,
                                               simulator.fetch_stalled,
                                               simulator.fetch_halted))
                    existing = cache.lookup(blob)
                    if existing is not None:
                        link(attach, existing)
                        return ("replay", existing)
                    config = cache.alloc_config(blob)
                    link(attach, config)
                    attach = (config, None)
                    anchor = world.cycle
                    outcome = False
                    actions_pending = False
                    if maybe_collect(cache):
                        # Node identities are stale: re-anchor at the
                        # next configuration boundary.
                        attach = None
                        actions_pending = True
                if cycle_debt > 0:
                    cycle_debt -= 1  # replay already advanced this cycle
                else:
                    advance_cycles(1)
                    memo.detailed_cycles += 1
                if obs_on:
                    obs.sample_cycle(world.cycle, self,
                                     simulator.occupancy)
                if world.cycle > max_cycles:
                    raise SimulationError(
                        f"exceeded {max_cycles} simulated cycles"
                    )
                continue

            # An action: the world performs it, then the graph grows by
            # its node under ``key`` — after an advance when the acting
            # cycle moved. Retire is the commonest, so it goes first.
            if kind is Retire:
                node = RetireNode(request)
                world.retire(request)
                memo.detailed_instructions += request.count
                key = None
            elif kind is GetControl:
                node = ControlNode()
                send = world.get_control()
                key = send.outcome_key
            elif kind is IssueLoad:
                node = LoadIssueNode(request.ordinal)
                key = send = world.issue_load(request.ordinal)
            elif kind is PollLoad:
                node = LoadPollNode(request.ordinal)
                key = send = world.poll_load(request.ordinal)
            elif kind is IssueStore:
                node = StoreIssueNode(request.ordinal)
                key = send = world.issue_store(request.ordinal)
            elif kind is Rollback:
                node = RollbackNode(request)
                world.rollback(request)
                key = None
            elif kind is Finished:
                if attach is not None:
                    end = EndNode(world.cycle - anchor)
                    alloc_action(end)
                    link(attach, end)
                return ("finished",)
            else:  # pragma: no cover - protocol violation
                raise SimulationError(f"unknown request {request!r}")
            cycle = world.cycle
            if attach is not None:
                if cycle != anchor:
                    advance = AdvanceNode(cycle - anchor)
                    alloc_action(advance)
                    link(attach, advance)
                    attach = (advance, None)
                alloc_action(node)
                link(attach, node)
                attach = (node, key)
            anchor = cycle
            if key is not None:  # a reply is never None: an outcome
                outcome = True

    # ------------------------------------------------------------------
    # Replay (fast-forward) mode
    # ------------------------------------------------------------------

    def _replay(self, entry: ConfigNode):
        """Fast-forward along the memoized graph starting at *entry*.

        Returns ``("record", ...)`` after a fall-back resync, or
        ``("finished",)``.

        When chain compilation is enabled (:mod:`repro.memo.compile`),
        hot regions of the graph — linear actions, pass-through
        configurations and guarded single-edge outcomes — are replayed
        as straight-line compiled segments instead of node-at-a-time
        interpretation. ``fast`` marks the positions where a segment
        can begin (after a configuration, a followed outcome edge, or
        a previous segment); interior nodes of an uncompiled region pay
        a single extra boolean test. The graph cannot mutate during an
        unguarded replay episode (attaches happen in record mode,
        collections at record-mode configuration boundaries, guard
        invalidations inside audited episodes), so the structural
        generation is read once per episode.

        The loop materialises nothing it will not read (module
        docstring): the four replay counters and ``segment_replays``
        live in locals until an observer samples or the loop ends — its
        only way out — and ``parts`` holds the chain log segment exits
        left unbuilt; it is non-empty only between a segment exit and
        the next dispatch.
        """
        world = self.world
        cache = self.cache
        memo = self.memo
        obs = self.obs
        obs_on = self._obs_on
        memo.replay_episodes += 1
        entry_actions = actions = memo.actions_replayed
        configs = memo.configs_replayed
        cycles = memo.replayed_cycles
        instructions = memo.replayed_instructions
        chain_log: List[Tuple[Node, object]] = []
        parts: List[Tuple] = []
        last_blob: Optional[bytes] = None
        log_anchor = world.cycle
        position: Optional[Node] = entry
        came_from: Optional[AttachPoint] = None
        finished = False

        table = cache.turbo if self.turbo else None
        turbo_on = table is not None
        fast = False
        replays = 0
        if turbo_on:
            graph_gen = cache.graph_generation
            threshold = self.turbo_threshold
            max_cycles = self.max_cycles
            replays = table.segment_replays

        while True:
            node = position
            if node is None:
                # A reply without an edge, or a chain pruned by a
                # replacement policy: re-record from ``came_from``.
                break

            if fast and node.can_head:
                seg = node.seg
                if seg is None:
                    node.seg_hits = hits = node.seg_hits + 1
                    if hits >= threshold:
                        node.seg_hits = 0
                        seg = table.register(
                            compile_segment(node, graph_gen)
                        )
                        node.seg = seg
                        if obs_on:
                            obs.counter("turbo.segments_compiled")
                elif seg.generation != graph_gen:
                    # Something in the graph changed since compilation.
                    # Usually it changed elsewhere: a cheap structural
                    # re-walk revives the segment; otherwise discard
                    # and re-warm toward recompilation.
                    if revalidate(seg, graph_gen):
                        table.revalidations += 1
                        if obs_on:
                            obs.counter("turbo.revalidations")
                    else:
                        table.invalidations += 1
                        if obs_on:
                            obs.counter("turbo.invalidations")
                        node.seg = None
                        node.seg_hits = 1
                        seg = None
                # A segment whose fused total could cross the cycle
                # budget is interpreted instead, so the abort raises at
                # the exact advance the interpreter would have raised.
                if (seg is not None
                        and world.cycle + seg.cycles <= max_cycles):
                    ctl: List = []
                    result = seg.fn(world, seg.requests, seg.keys,
                                    ctl.append)
                    # Every way out settles through this one block. A
                    # full replay is the exit record without an exit
                    # node; the others are the segment's dynamic
                    # terminal (a multi-edge outcome whose edge is
                    # looked up here, exactly like the interpreter) or
                    # a guard miss (within one generation the reply
                    # cannot have an edge — adding one bumps the
                    # generation — so the lookup below misses and this
                    # is exactly the interpreter's fall-back).
                    if result is None:
                        actual = None
                        meta = seg.full_exit
                    else:
                        gid, actual = result
                        meta = seg.exit_meta[gid]
                    (xnode, is_control, n_act, visited, cyc, retired,
                     n_cfg, xblob, template) = meta
                    # What was folded up to this exit: the world first.
                    if cyc:
                        world.advance_cycles(cyc)
                        cycles += cyc
                    if retired.count:  # else all fields are 0
                        world.retire(retired)
                        instructions += retired.count
                    if visited == len(seg.nodes):
                        # Full traversal: batched touch.
                        clock = cache.touch_clock + visited
                        cache.touch_clock = clock
                        seg.touched_at = clock
                    else:
                        # Rare guard miss: touch the visited prefix
                        # exactly as the interpreter would.
                        for touched in seg.nodes[:visited]:
                            cache.touch(touched)
                    actions += n_act
                    configs += n_cfg
                    if xnode is None:
                        successor = seg.end
                    else:
                        edge_key = (actual.outcome_key if is_control
                                    else actual)
                        successor = xnode.edges.get(edge_key)
                    if successor is None and xnode is not None:
                        table.side_exits += 1
                        counter = "turbo.side_exits"
                    else:
                        replays += 1
                        counter = "turbo.segment_replays"
                    if obs_on:
                        _settle(memo, table, actions, configs, cycles,
                                instructions, replays)
                        obs.counter(counter)
                        obs.sample_cycle(world.cycle, self)
                    if successor.__class__ is ConfigNode:
                        # The configuration the exit lands on, stepped
                        # here: one iteration of the interpreter's
                        # ConfigNode branch. Nothing will read the log
                        # this exit closes, so it is never built.
                        cache.touch_clock = clock = cache.touch_clock + 1
                        successor.touch_gen = clock
                        configs += 1
                        if chain_log:
                            chain_log = []
                        if parts:
                            parts = []
                        last_blob = successor.blob
                        log_anchor = world.cycle
                        came_from = (successor, None)
                        position = successor.next
                        continue
                    if xblob is not None:
                        last_blob = xblob
                        chain_log = []
                        parts = []
                    parts.append((template, ctl, xnode, actual))
                    if xnode is not None:
                        log_anchor = world.cycle
                        came_from = (xnode, edge_key)
                    else:
                        if seg.sets_anchor:
                            log_anchor = world.cycle - seg.trailing_delta
                        came_from = seg.last_attach
                    position = successor
                    continue
                fast = False  # interpret the rest of this cold region
                if parts:
                    _build_log(chain_log, parts)

            cache.touch(node)
            kind = type(node)

            if kind is ConfigNode:
                configs += 1
                chain_log = []
                last_blob = node.blob
                log_anchor = world.cycle
                came_from = (node, None)
                position = node.next
                fast = turbo_on
                continue

            if kind is AdvanceNode:
                world.advance_cycles(node.delta)
                cycles += node.delta
                if obs_on:
                    _settle(memo, table, actions, configs, cycles,
                            instructions, replays)
                    obs.sample_cycle(world.cycle, self)
                if world.cycle > self.max_cycles:
                    raise SimulationError(
                        f"exceeded {self.max_cycles} simulated cycles"
                    )
                actions += 1
                came_from = (node, None)
                position = node.next
                continue

            if kind is RetireNode:
                world.retire(node.request)
                instructions += node.request.count
                actions += 1
                chain_log.append((node, None))
                log_anchor = world.cycle
                came_from = (node, None)
                position = node.next
                continue

            if kind is RollbackNode:
                world.rollback(node.request)
                actions += 1
                chain_log.append((node, None))
                log_anchor = world.cycle
                came_from = (node, None)
                position = node.next
                continue

            if kind is ControlNode:
                reply = world.get_control()
                edge_key = reply.outcome_key
            elif kind is LoadIssueNode:
                edge_key = reply = world.issue_load(node.ordinal)
            elif kind is LoadPollNode:
                edge_key = reply = world.poll_load(node.ordinal)
            elif kind is StoreIssueNode:
                edge_key = reply = world.issue_store(node.ordinal)
            elif kind is EndNode:
                world.advance_cycles(node.delta)
                cycles += node.delta
                actions += 1
                finished = True
                break
            else:  # pragma: no cover
                raise SimulationError(
                    f"unknown node {node!r} in p-action cache"
                )
            # An outcome: booked, logged, then its edge followed — a
            # reply without one ends fast-forwarding at the loop top.
            actions += 1
            chain_log.append((node, reply))
            log_anchor = world.cycle
            came_from = (node, edge_key)
            position = node.edges.get(edge_key)
            fast = turbo_on

        _settle(memo, table, actions, configs, cycles, instructions,
                replays)
        self._end_chain(actions - entry_actions)
        if finished:
            return ("finished",)
        if parts:
            _build_log(chain_log, parts)
        return self._resync(last_blob, chain_log, came_from, log_anchor)

    # ------------------------------------------------------------------
    # Fall-back: resynchronise a fresh detailed simulator
    # ------------------------------------------------------------------

    def _resync(self, blob: Optional[bytes],
                chain_log: List[Tuple[Node, object]],
                attach: Optional[AttachPoint], log_anchor: int):
        """Reconstruct detailed state at the divergence point.

        Decodes the owning configuration, restarts a detailed simulator
        from it, and re-feeds the logged outcomes **without** touching
        the world (the replayer already performed those interactions).
        Returns the record-mode tuple positioned exactly at the
        divergence.
        """
        if blob is None:
            raise SimulationError("fall-back before any configuration")
        if self._obs_on:
            self.obs.counter("memo.resyncs")
            self.obs.observe("memo.resync_log_length", len(chain_log))
        with self.obs.span("memo.resync", cat="memo"):
            simulator = self._restore(blob)
            generator = simulator.run()

            send = None
            outcome = False
            for node, value in chain_log:
                expected = _REQUEST_FOR_NODE[type(node)]
                while True:
                    request = generator.send(send)
                    send = None
                    if type(request) is CycleBoundary:
                        continue  # cycles already counted during replay
                    break
                if type(request) is not expected:
                    raise SimulationError(
                        f"resync desync: simulator yielded {request!r}, "
                        f"log has {node!r}"
                    )
                if node.is_outcome:
                    send = value
                    outcome = True
            # The resumed generator's first boundary ends cycle
            # ``log_anchor`` when the prefix left the simulator
            # mid-cycle (non-empty log), else the cycle after the
            # owning configuration.
            b0 = log_anchor if chain_log else log_anchor + 1
            return self._enter_record(simulator, generator, attach, b0,
                                      send, outcome)
