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
  node;
* :class:`TestLazyExit` — the exit path builds the chain log only where
  it is read and keeps its counters in locals: the n-th fall-back of a
  bounded run, every observer sample, and the number of ``patch_log``
  calls say it hands over exactly what the interpreter would, and no
  more often.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch import BimodalPredictor, NotTakenPredictor
from repro.isa import assemble
from repro.memo import engine as engine_module
from repro.memo.engine import FastForwardEngine
from repro.memo.pcache import PActionCache
from repro.memo.persist import _collect_nodes
from repro.memo.policies import make_policy
from repro.obs.core import NullObserver
from repro.sim.world import World
from repro.uarch.params import ProcessorParams
from repro.workloads.fuzz import random_program
from repro.workloads.suite import WORKLOAD_ORDER, load_workload
from tests.cache.recording import RecordingMemorySystem

#: Engine keywords: compile on first traversal / interpret only.
EAGER = {"turbo": True, "turbo_threshold": 1}
NO_TURBO = {"turbo": False}


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
                          **turbo).run()
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


def stop_state(executable, pcache, turbo, engine_cls=_StopAtResync,
               policy=None):
    """Replay *pcache* from the first instruction until *engine_cls*
    stops (the first fall-back); everything observable at that point."""
    params = ProcessorParams.r10k()
    world = World(executable, params, BimodalPredictor())
    engine = engine_cls(executable, world, pcache=pcache, policy=policy,
                        **turbo)
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


def patch_log_calls(monkeypatch):
    """Count the engine's ``patch_log`` calls from here on: the list
    grows by one template per call."""
    calls = []
    real = engine_module.patch_log

    def counted(template, ctl):
        calls.append(template)
        return real(template, ctl)

    monkeypatch.setattr(engine_module, "patch_log", counted)
    return calls


def touched_nodes(monkeypatch):
    """Every node handed to ``PActionCache.touch`` from here on — the
    interpreter touches each node it enters; compiled segments stamp
    theirs in bulk."""
    touched = []
    real = PActionCache.touch

    def counted(self, node):
        touched.append(node)
        real(self, node)

    monkeypatch.setattr(PActionCache, "touch", counted)
    return touched


def build_log_spans(monkeypatch):
    """Record how many segment exits each built log spans (the number
    of unbuilt parts ``_build_log`` is handed), from here on."""
    spans = []
    real = engine_module._build_log

    def counted(chain_log, parts):
        spans.append(len(parts))
        real(chain_log, parts)

    monkeypatch.setattr(engine_module, "_build_log", counted)
    return spans


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
    def test_every_exit_matches_interpreted_replay(self, name,
                                                   monkeypatch):
        executable = load_workload(name, "tiny")
        params = ProcessorParams.r10k()
        pcache = PActionCache()
        for _ in range(2):  # record, then compile along a full replay
            FastForwardEngine(executable,
                              World(executable, params, BimodalPredictor()),
                              pcache=pcache, **EAGER).run()
        exits = segment_exits(pcache)
        assert len(exits) > 20
        spans = build_log_spans(monkeypatch)
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
                built = patch_log_calls(monkeypatch)
                compiled = stop_state(executable, pcache, EAGER)
                # The stop really was a compiled segment's exit, and
                # the log it handed to resync was built for it.
                assert table.side_exits == side_exits + 1
                assert len(built) >= 1
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
        # Not every exit carries a configuration: some of these logs
        # grew by one unbuilt part per segment exit and were built in
        # one go at the fall-back.
        assert max(spans) >= (2 if name in ("compress", "li") else 1)


class _StopAtNthResync(_StopAtResync):
    """Lets the fall-backs before the ``stop_at``-th resync and record
    on, then captures that one — naming nodes by their place in the
    graph walk FSPC serialisation uses, so runs over *separate* but
    equal p-caches compare."""

    stop_at = 1
    fallbacks = 0

    def _resync(self, blob, chain_log, attach, log_anchor):
        self.fallbacks += 1
        if self.fallbacks < self.stop_at:
            return FastForwardEngine._resync(self, blob, chain_log,
                                             attach, log_anchor)
        place = {id(node): index for index, node
                 in enumerate(_collect_nodes(self.cache))}
        self.handed = (
            blob,
            [(place[id(node)], repr(value)) for node, value in chain_log],
            None if attach is None else (place[id(attach[0])], attach[1]),
            log_anchor)
        raise _Stopped


class _MemoSampler(NullObserver):
    """An observer that keeps ``engine.memo`` as it finds it at every
    replay-mode ``sample_cycle``."""

    enabled = True

    def __init__(self):
        self.samples = []

    def sample_cycle(self, cycle, engine, iq_len=None):
        if iq_len is None:  # replay: no iQ exists
            memo = dataclasses.asdict(engine.memo)
            del memo["chain_lengths"]
            self.samples.append((cycle, engine.world.cycle, memo))


class TestLazyExit:
    @pytest.mark.parametrize("stop_at", [2, 5])
    @pytest.mark.parametrize("kind", ["flush", "copying-gc"])
    @pytest.mark.parametrize("name", ["compress", "li"])
    def test_nth_fallback_of_a_bounded_run(self, name, kind, stop_at,
                                           monkeypatch):
        """Under a 0.35x bound a warm run is many short episodes:
        collections drop segments between them, regions recompile, and
        a log can span several segment exits without a configuration.
        At the n-th fall-back compiled and interpreted replay — each
        over its own, identically grown p-cache — agree on everything."""
        executable = load_workload(name, "tiny")
        params = ProcessorParams.r10k()
        probe = PActionCache()
        FastForwardEngine(executable,
                          World(executable, params, BimodalPredictor()),
                          pcache=probe).run()
        limit = max(int(probe.peak_bytes * 0.35), 512)
        spans = build_log_spans(monkeypatch)
        engine_cls = type("Stop", (_StopAtNthResync,),
                          {"stop_at": stop_at})
        states = {}
        for turbo in (EAGER, NO_TURBO):
            pcache = PActionCache()
            policy = make_policy(kind, limit_bytes=limit)
            FastForwardEngine(
                executable, World(executable, params, BimodalPredictor()),
                pcache=pcache, policy=policy, **turbo).run()
            assert pcache.collections > 0  # the bound bit
            states[turbo["turbo"]] = stop_state(
                executable, pcache, turbo, engine_cls, policy)
            states[turbo["turbo"]]["collections"] = pcache.collections
        assert states[True] == states[False]
        assert states[True]["memo"]["replay_episodes"] >= stop_at
        assert spans and all(spans)  # compiled replay handed logs over

    @pytest.mark.parametrize("name", ["compress", "mgrid"])
    def test_observer_sees_settled_counters(self, name):
        """The four replay counters ride in locals; every sample must
        find them written back. The clock law holds at each sample of
        either tier; at a cycle both tiers sample, the compiled run has
        counted up to its exit node — between what the interpreter had
        counted when it reached that cycle and when it left it."""
        executable = load_workload(name, "tiny")
        params = ProcessorParams.r10k()
        sampled, finals = {}, {}
        for turbo in (EAGER, NO_TURBO):
            pcache = PActionCache()
            for _ in range(2):
                observer = _MemoSampler()
                engine = FastForwardEngine(
                    executable,
                    World(executable, params, BimodalPredictor()),
                    pcache=pcache, obs=observer, **turbo)
                engine.run()
            sampled[turbo["turbo"]] = observer.samples
            finals[turbo["turbo"]] = dataclasses.asdict(engine.memo)
            for cycle, world_cycle, memo in observer.samples:
                assert cycle == world_cycle
                assert (memo["replayed_cycles"] + memo["detailed_cycles"]
                        == cycle)
        assert finals[True] == finals[False]
        # The interpreter samples once per advance, so once per cycle
        # value; ``after[c]`` is its sample at the next cycle it visits.
        interpreted = sampled[False]
        before = {cycle: memo for cycle, _, memo in interpreted}
        after = {cycle: memo for (cycle, _, _), (_, _, memo)
                 in zip(interpreted, interpreted[1:])}
        shared = [(memo, before[cycle], after[cycle])
                  for cycle, _, memo in sampled[True] if cycle in after]
        assert len(shared) > 20
        for compiled, low, high in shared:
            assert compiled["replayed_cycles"] == low["replayed_cycles"]
            assert compiled["replay_episodes"] == low["replay_episodes"]
            for counter in ("actions_replayed", "configs_replayed",
                            "replayed_instructions"):
                assert low[counter] <= compiled[counter] <= high[counter]

    @pytest.mark.parametrize("name,scale", [
        # compress at ``tiny`` replays fewer than 100 segments.
        pytest.param("compress", "test", id="compress"),
        pytest.param("tomcatv", "tiny", id="tomcatv"),
    ])
    def test_log_is_built_only_for_the_interpreter(self, name, scale,
                                                   monkeypatch):
        """Third pass over one p-cache at threshold 1: nothing compiles,
        nothing falls back — so the only reader of a chain log is the
        interpreter, entering a node a segment exit led to."""
        executable = load_workload(name, scale)
        _, pcache = port_streams(executable, EAGER)
        compiled = pcache.turbo.segments_compiled
        built = patch_log_calls(monkeypatch)
        touched = touched_nodes(monkeypatch)
        params = ProcessorParams.r10k()
        engine = FastForwardEngine(
            executable, World(executable, params, BimodalPredictor()),
            pcache=pcache, **EAGER)
        memo = engine.run()
        assert pcache.turbo.segments_compiled == compiled
        assert memo.detailed_cycles == 0 and memo.replay_episodes == 1
        assert pcache.turbo.segment_replays > 100
        assert len(built) <= sum(not node.is_config for node in touched)
