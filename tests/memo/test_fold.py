"""The clock/cursor fold, checked from outside the emitter.

Compiled segments no longer call ``world.advance_cycles`` /
``world.retire`` / the ``World`` load-store wrappers: they hand the
cache port ``entry cursor + constant`` keys at ``entry clock +
constant`` cycles and leave settling the world to the engine
(``repro.memo.compile``). Neither test here looks at generated source:

* :class:`TestPortStream` — a recording ``MemorySystem`` must see the
  identical request stream with compilation on and off;
* :class:`TestForcedExits` — every way out of a compiled segment is
  forced in turn and the whole world, plus everything the engine hands
  to resync, is compared with interpreted replay stopped at the same
  node.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch import BimodalPredictor, NotTakenPredictor
from repro.isa import assemble
from repro.memo.compile import TurboConfig
from repro.memo.engine import FastForwardEngine
from repro.memo.pcache import PActionCache
from repro.sim.world import World
from repro.uarch.params import ProcessorParams
from repro.workloads.fuzz import random_program
from repro.workloads.suite import WORKLOAD_ORDER, load_workload
from tests.cache.recording import RecordingMemorySystem

EAGER = TurboConfig(threshold=1)
NO_TURBO = TurboConfig(enabled=False)


def port_streams(executable, turbo, predictor_cls=BimodalPredictor, runs=2):
    """The port's request stream of *runs* engine runs sharing one
    p-cache (the later ones replay from the first instruction)."""
    params = ProcessorParams.r10k()
    pcache = PActionCache()
    streams = []
    for _ in range(runs):
        memory = RecordingMemorySystem(params.memory)
        world = World(executable, params, predictor_cls(),
                      memory_system=memory)
        FastForwardEngine(executable, world, pcache=pcache,
                          turbo=turbo).run()
        streams.append((memory.stream, world.cycle, world.stats.as_dict(),
                        memory.stats.as_dict()))
    return streams, pcache


class TestPortStream:
    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_suite_program_stream_identical(self, name):
        executable = load_workload(name, "test")
        compiled, pcache = port_streams(executable, EAGER)
        interpreted, _ = port_streams(executable, NO_TURBO)
        assert compiled == interpreted
        assert pcache.turbo.segment_replays > 0
        assert any(request[0] == "issue_load" for request in compiled[1][0])

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fuzz_program_stream_identical_under_rollbacks(self, seed):
        """Not-taken prediction mispredicts every loop branch, so the
        stream is full of wrong-path loads, their cancellation and the
        lQ indices the right path then issues again."""
        executable = assemble(random_program(seed, iterations=12))
        compiled, pcache = port_streams(executable, EAGER,
                                        NotTakenPredictor)
        interpreted, _ = port_streams(executable, NO_TURBO,
                                      NotTakenPredictor)
        assert compiled == interpreted
        assert pcache.turbo.segment_replays > 0
        assert any(request[0] == "cancel_loads_from"
                   for request in compiled[0][0])


class _Stopped(Exception):
    pass


class _StopAtResync(FastForwardEngine):
    """Captures what replay hands to its first fall-back, then stops."""

    def _resync(self, blob, chain_log, attach, log_anchor):
        # Control records come from each run's own frontend: by value.
        self.handed = (blob,
                       [(id(node), repr(value)) for node, value in chain_log],
                       None if attach is None else (id(attach[0]), attach[1]),
                       log_anchor)
        raise _Stopped


def stop_state(executable, pcache, turbo):
    """Replay *pcache* from the first instruction until the first
    fall-back; everything observable at that point."""
    params = ProcessorParams.r10k()
    world = World(executable, params, BimodalPredictor())
    engine = _StopAtResync(executable, world, pcache=pcache, turbo=turbo)
    with pytest.raises(_Stopped):
        engine.run()
    memo = dataclasses.asdict(engine.memo)
    return {
        "cycle": world.cycle,
        "cursors": (world.lq_base, world.sq_base, world.cf_base),
        "cf_fetched": world.cf_fetched,
        "sim_stats": world.stats.as_dict(),
        "cache_stats": world.cache.stats.as_dict(),
        "outstanding": sorted(world.cache._ready.items()),
        "frontend": (world.frontend.executed_instructions,
                     world.frontend.rollbacks),
        "memo": memo,
        "touch_clock": pcache.touch_clock,
        "handed": engine.handed,
    }


def segment_exits(pcache):
    """Every distinct exit node (guard or dynamic terminal) of the
    segments compiled so far, in a deterministic order."""
    exits, seen = [], set()
    for segment in pcache.turbo.segments:
        for meta in segment.exit_meta:
            if id(meta[0]) not in seen:
                seen.add(id(meta[0]))
                exits.append(meta[0])
    return exits


def drop_segments(pcache):
    """Forget every compiled segment, so the next EAGER replay compiles
    each region afresh from the graph as it stands (a stale segment
    that fails revalidation would be *interpreted* on that visit)."""
    for segment in pcache.turbo.segments:
        segment.nodes[0].seg = None
        segment.nodes[0].seg_hits = 0
    pcache.turbo.segments = []
    pcache.graph_generation += 1


class TestForcedExits:
    """Re-key one outcome node's edges so no reply can match: compiled
    replay side-exits at that guard (or misses at that terminal) and
    interpreted replay falls back at that node, on the same untouched
    world reply. Every exit of every compiled segment takes its turn."""

    @pytest.mark.parametrize("name", ["compress", "li", "mgrid", "perl"])
    def test_every_exit_matches_interpreted_replay(self, name):
        executable = load_workload(name, "tiny")
        params = ProcessorParams.r10k()
        pcache = PActionCache()
        for _ in range(2):  # record, then compile along a full replay
            FastForwardEngine(executable,
                              World(executable, params, BimodalPredictor()),
                              pcache=pcache, turbo=EAGER).run()
        exits = segment_exits(pcache)
        assert len(exits) > 20
        kinds = set()
        for node in exits:
            saved = node.edges
            node.edges = {("no reply is this", index): successor
                          for index, successor in
                          enumerate(saved.values())}
            drop_segments(pcache)
            try:
                table = pcache.turbo
                side_exits = table.side_exits
                touch_clock = pcache.touch_clock
                compiled = stop_state(executable, pcache, EAGER)
                # The stop really was a compiled segment's exit.
                assert table.side_exits == side_exits + 1
                pcache.touch_clock = touch_clock
                interpreted = stop_state(executable, pcache, NO_TURBO)
            finally:
                node.edges = saved
                drop_segments(pcache)
            assert compiled == interpreted, (name, node)
            assert compiled["handed"][2][0] == id(node)
            kinds.add(type(node).__name__)
        assert kinds == {"ControlNode", "LoadIssueNode", "LoadPollNode",
                         "StoreIssueNode"}
