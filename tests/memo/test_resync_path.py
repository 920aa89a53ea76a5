"""Resync reads the path from the graph.

Replay keeps no log: at a fall-back the engine hands ``_resync`` the
last configuration it crossed and the attach point, and
:func:`repro.memo.engine._refeed` finds the path between them. These
tests check that search against what replay actually did, with nothing
shared with it:

* :class:`TestRefeedOnHandBuiltGraphs` — the four shapes a path can
  take, on graphs built by hand;
* :class:`TestRefeedOracle` — at every fall-back of the 18 programs, the
  re-fed ``(node, reply key)`` sequence is the tail of the world calls
  interpreted replay made since its last configuration, and the first
  boundary is the clock at the last of those calls; compiled replay
  (threshold 1) re-feeds exactly what interpreted replay re-feeds at
  the same fall-back;
* :class:`TestControlRecordFromKey` — a control reply re-fed from its
  edge key is the record the frontend built, in everything the detailed
  simulator reads.
"""

import io

import pytest

from repro.branch import BimodalPredictor
from repro.emulator import threaded
from repro.emulator.queues import ControlKind, ControlRecord
from repro.errors import MemoizationError
from repro.memo import engine as engine_module
from repro.memo.actions import (
    AdvanceNode,
    ConfigNode,
    ControlNode,
    LoadIssueNode,
    RetireNode,
    RollbackNode,
)
from repro.memo.engine import FastForwardEngine, _refeed
from repro.memo.pcache import PActionCache
from repro.memo.persist import read_pcache, write_pcache
from repro.memo.policies import make_policy
from repro.sim.fastsim import FastSim
from repro.sim.world import World
from repro.uarch.interactions import Retire, Rollback
from repro.uarch.params import ProcessorParams
from repro.workloads.suite import WORKLOAD_ORDER, load_workload


def chain(*nodes):
    """Link linear *nodes* in order; return the first."""
    for node, successor in zip(nodes, nodes[1:]):
        node.next = successor
    return nodes[0]


class TestRefeedOnHandBuiltGraphs:
    def test_pruned_config_next_is_an_empty_path(self):
        config = ConfigNode(bytes(4), 4)
        assert _refeed(config, (config, None)) == ([], 0)

    def test_trailing_advances_only(self):
        config = ConfigNode(bytes(4), 4)
        a1, a2 = AdvanceNode(2), AdvanceNode(3)
        chain(config, a1, a2)
        # Nothing re-fed; the first boundary is the configuration's
        # cycle + 1, five cycles back from the world's clock.
        assert _refeed(config, (a2, None)) == ([], 5)

    def test_fan_out_follows_the_branch_that_leads_to_the_node(self):
        config = ConfigNode(bytes(4), 4)
        load = LoadIssueNode(1)
        chain(config, AdvanceNode(1), load)
        retire = RetireNode(Retire(2, 1, 0, 0, 0))
        control = ControlNode()
        last = AdvanceNode(7)
        load.edges[9] = chain(AdvanceNode(2), retire, control)
        control.edges[(0, 0x40, True, True)] = chain(AdvanceNode(3), last)
        control.edges[(0, 0x40, False, False)] = AdvanceNode(1)
        # Edge 4 is a dead end the search enters first (its edge was
        # added last) and must leave again; it ends in a configuration
        # the search must not cross.
        load.edges[4] = chain(RetireNode(Retire(1, 0, 0, 0, 0)),
                              AdvanceNode(1), ConfigNode(bytes(8), 8))
        refed, trailing = _refeed(config, (last, None))
        assert refed == [(load, 9), (retire, None),
                         (control, (0, 0x40, True, True))]
        assert trailing == 10

    def test_missing_edge_at_an_outcome(self):
        config = ConfigNode(bytes(4), 4)
        rollback = RollbackNode(Rollback(0, 1, 0, 0))
        control = ControlNode()
        chain(config, AdvanceNode(1), rollback, AdvanceNode(2), control)
        control.edges[(1, 0x80, 0x100)] = AdvanceNode(1)
        # The reply replay got has no edge: the attach point's key is
        # the last node's reply, and nothing trails it.
        refed, trailing = _refeed(config, (control, (1, 0x80, 0x200)))
        assert refed == [(rollback, None), (control, (1, 0x80, 0x200))]
        assert trailing == 0

    def test_a_node_off_the_path_is_refused(self):
        config = ConfigNode(bytes(4), 4)
        chain(config, AdvanceNode(1), RetireNode(Retire(1, 0, 0, 0, 0)))
        with pytest.raises(MemoizationError, match="not on a path"):
            _refeed(config, (AdvanceNode(5), None))


#: The seven world calls replay makes, and the node kind each stands for.
NODE_FOR_CALL = {
    "retire": "RetireNode", "rollback": "RollbackNode",
    "get_control": "ControlNode", "issue_load": "LoadIssueNode",
    "poll_load": "LoadPollNode", "issue_store": "StoreIssueNode",
}
WORLD_CALLS = ("advance_cycles",) + tuple(NODE_FOR_CALL)


def logged_world(executable):
    """A world whose seven replay calls append ``(node kind, payload,
    reply key, clock)`` to ``world.calls``."""
    world = World(executable, ProcessorParams.r10k(), BimodalPredictor())
    world.calls = []

    def logged(method, call):
        def wrapper(*args):
            reply = call(*args)
            if method != "advance_cycles":
                key = reply.outcome_key if method == "get_control" else reply
                world.calls.append((NODE_FOR_CALL[method],
                                    args[0] if args else None, key,
                                    world.cycle))
            return reply
        return wrapper

    for method in WORLD_CALLS:
        setattr(world, method, logged(method, getattr(world, method)))
    return world


def mark_configurations(pcache, world):
    """Interpreted replay touches every node it enters: log each
    configuration it crosses into *world*'s call log."""
    touch = pcache.touch

    def marked(node):
        if node.is_config:
            world.calls.append(("config", None, None, world.cycle))
        touch(node)

    pcache.touch = marked


class _Probe(FastForwardEngine):
    """Keeps, per fall-back, the world-call count at the resync and the
    first boundary the resync hands record mode."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fallbacks = []

    def _resync(self, config, attach):
        self.fallbacks.append([len(self.world.calls)])
        return super()._resync(config, attach)

    def _enter_record(self, simulator, generator, attach, first_boundary,
                      send, outcome):
        if self.fallbacks and len(self.fallbacks[-1]) == 1:
            self.fallbacks[-1].append(first_boundary)
        return super()._enter_record(simulator, generator, attach,
                                     first_boundary, send, outcome)


def expected_fallback(calls):
    """What the oracle says the n-th resync re-feeds: the calls since
    the last configuration crossed, and the first boundary — the clock
    at the last of them, or one past the configuration's."""
    last = max(i for i, call in enumerate(calls) if call[0] == "config")
    tail = [call[:3] for call in calls[last + 1:]]
    anchor = calls[-1][3]
    return tail, anchor if tail else anchor + 1


def as_calls(refed):
    return [(type(node).__name__,
             node.request if isinstance(node, (RetireNode, RollbackNode))
             else node.ordinal,
             key) for node, key in refed]


def fallbacks(executable, pcache, turbo, policy=None):
    """Run the engine over *pcache*; per fall-back, what ``_refeed``
    returned (as calls) and the first boundary, plus the oracle's
    expectation when replay was interpreted."""
    world = logged_world(executable)
    engine = _Probe(executable, world, pcache=pcache, policy=policy, **turbo)
    if not turbo["turbo"]:
        mark_configurations(pcache, world)
    refeeds = []

    def spy(config, attach):
        result = _refeed(config, attach)
        refeeds.append(as_calls(result[0]))
        return result

    engine_module._refeed, real = spy, engine_module._refeed
    try:
        engine.run()
    finally:
        engine_module._refeed = real
    seen, expected = [], []
    for (at, boundary), refed in zip(engine.fallbacks, refeeds):
        seen.append((refed, boundary))
        if not turbo["turbo"]:
            expected.append(expected_fallback(world.calls[:at]))
    return seen, expected, world.cycle


def clone(pcache):
    stream = io.BytesIO()
    write_pcache(pcache, stream)
    stream.seek(0)
    return read_pcache(stream)


class TestRefeedOracle:
    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_every_fallback_refeeds_what_replay_did(self, name):
        """Cold, bounded at 0.35x (flush) and persisted-warm from the
        bounded run's cache — the warm start meets what the flushes
        pruned. Interpreted replay is checked against its own world
        calls; compiled replay at threshold 1, over an identically
        grown p-cache, against interpreted replay."""
        executable = load_workload(name, "tiny")
        interpreted, compiled = {"turbo": False}, {"turbo": True,
                                                   "turbo_threshold": 1}
        probe = PActionCache()
        FastForwardEngine(executable, World(executable, ProcessorParams.r10k(),
                                            BimodalPredictor()),
                          pcache=probe).run()
        limit = max(int(probe.peak_bytes * 0.35), 512)
        count = 0
        bounded = {}
        for mode in ("cold", "flush", "warm"):
            runs = {}
            for turbo in (interpreted, compiled):
                policy = None
                if mode == "cold":
                    pcache = PActionCache()
                elif mode == "flush":
                    pcache = PActionCache()
                    policy = make_policy("flush", limit_bytes=limit)
                else:
                    pcache = clone(bounded[turbo["turbo"]])
                runs[turbo["turbo"]] = fallbacks(executable, pcache,
                                                 turbo, policy)
                if mode == "flush":
                    bounded[turbo["turbo"]] = pcache
            seen, expected, cycles = runs[False]
            assert seen == expected, (name, mode)
            compiled_seen, _, compiled_cycles = runs[True]
            assert compiled_seen == seen, (name, mode)
            assert compiled_cycles == cycles
            count += len(seen)
        assert count > 0


def records_built(executable, monkeypatch, **knobs):
    """Every control record the frontend builds over a FastSim run."""
    built = []
    init = ControlRecord.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    sim = FastSim(executable, **knobs)
    with monkeypatch.context() as patch:
        patch.setattr(ControlRecord, "__init__", recording)
        sim.run()
    return built, sim.world.frontend.frontend_stats()


class TestControlRecordFromKey:
    def test_every_frontend_record_round_trips(self, monkeypatch):
        monkeypatch.setattr(threaded, "COMPILE_AFTER", 1)
        kinds = set()
        for name in WORKLOAD_ORDER:
            executable = load_workload(name, "tiny")
            stepped, stats = records_built(executable, monkeypatch,
                                           threaded_frontend=False)
            assert stats["fused_branches"] == 0
            generated, stats = records_built(executable, monkeypatch)
            assert stats["fused_branches"] > 0
            for record in stepped + generated:
                again = ControlRecord.from_key(record.outcome_key)
                assert again.kind is record.kind
                assert again.pc == record.pc
                assert again.predicted_taken == record.predicted_taken
                assert again.mispredicted == record.mispredicted
                if record.kind is ControlKind.INDIRECT:
                    assert again.target == record.target
                assert again.outcome_key == record.outcome_key
                kinds.add(record.kind)
        assert kinds == set(ControlKind)
