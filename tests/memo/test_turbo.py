"""Chain compilation (``repro.turbo``) — bit-identity and unit tests.

The contract of :mod:`repro.memo.compile`: compiled replay is **bit
identical** to interpreted replay (and therefore to SlowSim) — same
canonical results, same touch clock, same behaviour under replacement
policies and guard audits. Plus unit tests of the compiler itself via
a recording stub world.
"""

from dataclasses import replace

import pytest

from repro.memo.actions import (
    AdvanceNode,
    ConfigNode,
    ControlNode,
    EndNode,
    LoadIssueNode,
    LoadPollNode,
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
from repro.memo.pcache import PActionCache
from repro.memo.policies import make_policy
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.uarch.interactions import Retire, Rollback
from repro.workloads.suite import WORKLOAD_ORDER, load_workload

#: Compile on the first traversal — tests want segments engaged
#: immediately, not after the production warm-up.
EAGER = {"turbo": True, "turbo_threshold": 1}
NO_TURBO = {"turbo": False}


def canonical(result, cross_simulator=False):
    data = result.as_dict()
    data.pop("host_seconds", None)
    if cross_simulator:
        data.pop("name", None)
    return data


def run_pair(executable, turbo, runs=2, policy=None):
    """*runs* FastSim runs sharing one cache; list of canonical dicts."""
    cache = PActionCache()
    out = []
    for _ in range(runs):
        sim = FastSim(executable, pcache=cache, policy=policy, **turbo)
        out.append(canonical(sim.run()))
    return out, cache


class TestSuiteBitIdentity:
    """The headline invariant, over every suite workload."""

    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_compiled_equals_interpreted_equals_slowsim(self, name):
        executable = load_workload(name, "tiny")
        slow = canonical(SlowSim(executable).run(), cross_simulator=True)
        interpreted, _ = run_pair(executable, NO_TURBO)
        compiled, cache = run_pair(executable, EAGER)
        assert compiled == interpreted
        # Compiled replay actually ran (the comparison means something).
        assert cache.turbo.segment_replays > 0
        for run in compiled:
            cross = dict(run)
            cross.pop("name")
            assert cross == slow


class TestTurboIntegration:
    def test_default_on_with_production_threshold(self):
        sim = FastSim(load_workload("compress", "tiny"))
        assert sim.engine.turbo
        assert sim.engine.turbo_threshold == DEFAULT_COMPILE_THRESHOLD
        assert sim.pcache.turbo is not None

    def test_disabled_installs_no_table(self):
        sim = FastSim(load_workload("compress", "tiny"), turbo=False)
        assert not sim.engine.turbo
        assert sim.pcache.turbo is None

    def test_engine_threshold_governs_shared_pcache(self):
        """A second engine over a p-cache whose segment table another
        engine installed compiles at its own threshold."""
        executable = load_workload("go", "tiny")
        compiled = {}
        for threshold in (DEFAULT_COMPILE_THRESHOLD, 1):
            cache = PActionCache()
            FastSim(executable, pcache=cache).run()
            before = cache.turbo.segments_compiled
            sim = FastSim(executable, pcache=cache,
                          turbo_threshold=threshold)
            sim.run()
            assert sim.engine.turbo_threshold == threshold
            compiled[threshold] = cache.turbo.segments_compiled - before
        assert compiled[1] > compiled[DEFAULT_COMPILE_THRESHOLD]

    def test_lifecycle_counters_all_exercised(self):
        # compress at threshold 1 naturally drives every code path:
        # compilation, fast-path replays, guard side exits (new load
        # outcomes mid-run), revalidation after far-away attaches, and
        # recompilation after local ones.
        executable = load_workload("compress", "tiny")
        _, cache = run_pair(executable, EAGER)
        stats = cache.turbo.snapshot()
        assert stats["segments_compiled"] > 0
        assert stats["segment_replays"] > 0
        assert stats["side_exits"] > 0
        assert stats["revalidations"] > 0
        assert stats["invalidations"] > 0

    def test_touch_clock_identical_to_interpreted(self):
        # The GC replacement machinery keys off the touch clock;
        # deferred segment touches must advance it exactly as the
        # interpreter's per-node touches do.
        executable = load_workload("li", "tiny")
        _, interp_cache = run_pair(executable, NO_TURBO)
        _, turbo_cache = run_pair(executable, EAGER)
        turbo_cache.prepare_collection()
        assert turbo_cache.touch_clock == interp_cache.touch_clock

    @pytest.mark.parametrize("kind",
                             ["flush", "copying-gc", "generational-gc"])
    def test_bounded_policies_identical(self, kind):
        executable = load_workload("compress", "tiny")
        probe = PActionCache()
        FastSim(executable, pcache=probe).run()
        limit = max(int(probe.peak_bytes * 0.35), 512)
        outcomes = {}
        for turbo in (NO_TURBO, EAGER):
            policy = make_policy(kind, limit_bytes=limit)
            results, cache = run_pair(executable, turbo, runs=3,
                                      policy=policy)
            outcomes[turbo["turbo"]] = (results, cache.collections)
        assert outcomes[True] == outcomes[False]
        assert outcomes[True][1] > 0  # the limit actually bit


class TestGuardInteraction:
    def _warm_turbo_cache(self, executable):
        cache = PActionCache()
        FastSim(executable, pcache=cache, turbo_threshold=1).run()
        FastSim(executable, pcache=cache, turbo_threshold=1).run()
        return cache

    def test_audited_turbo_run_matches_unguarded(self):
        executable = load_workload("compress", "tiny")
        cache = self._warm_turbo_cache(executable)
        reference = canonical(
            FastSim(executable, pcache=self._warm_turbo_cache(executable),
                    turbo_threshold=1).run()
        )
        guarded = FastSim(executable, pcache=cache, turbo_threshold=1,
                          audit_every=1)
        assert canonical(guarded.run()) == reference
        assert guarded.engine.audits > 0
        assert guarded.engine.divergences == 0

    def test_corruption_detected_and_segments_discarded(self):
        executable = load_workload("compress", "tiny")
        reference = canonical(
            FastSim(executable,
                    pcache=self._warm_turbo_cache(executable),
                    turbo_threshold=1).run()
        )
        cache = self._warm_turbo_cache(executable)
        # Corrupt a retire payload in the first chain replayed on a
        # warm run (audits interpret in lockstep, so the compiled
        # fast path never masks an audited episode).
        entry = next(iter(cache.index.values()))
        node = entry.next
        while node is not None and not isinstance(node, RetireNode):
            node = node.next
        assert node is not None
        node.request = replace(node.request, count=node.request.count + 1)
        generation_before = cache.graph_generation
        guarded = FastSim(executable, pcache=cache, turbo_threshold=1,
                          audit_every=1)
        assert canonical(guarded.run()) == reference
        assert guarded.engine.divergences > 0
        # Quarantine bumped the generation: stale segments over the
        # severed chain can never replay again without revalidation.
        assert cache.graph_generation > generation_before


class TestGraphGeneration:
    def make_blob(self, tag):
        return bytes([0, 1, tag & 0xFF, 0, 0, 0]) + bytes(6)

    def test_attach_bumps(self):
        cache = PActionCache()
        config = cache.alloc_config(self.make_blob(1))
        before = cache.graph_generation
        cache.attach((config, None), cache.alloc_action(AdvanceNode(1)))
        assert cache.graph_generation == before + 1

    def test_invalidate_bumps(self):
        cache = PActionCache()
        config = cache.alloc_config(self.make_blob(1))
        before = cache.graph_generation
        cache.invalidate(config)
        assert cache.graph_generation == before + 1

    def test_clear_bumps_and_drops_segments(self):
        cache = PActionCache()
        cache.turbo = SegmentTable()
        head = AdvanceNode(1)
        head.next = EndNode(1)
        cache.turbo.register(compile_segment(head, 0))
        before = cache.graph_generation
        cache.clear()
        assert cache.graph_generation == before + 1
        assert cache.turbo.segments == []

    def test_rebuild_bumps(self):
        cache = PActionCache()
        cache.alloc_config(self.make_blob(1))
        before = cache.graph_generation
        cache.rebuild({})
        assert cache.graph_generation == before + 1


class FakePort:
    """Recording stand-in for the keyed cache port."""

    def __init__(self, calls, replies):
        self.calls = calls
        self.replies = replies

    def issue_load(self, key, address, now):
        self.calls.append(("issue_load", key, address, now))
        return self.replies.pop(0)

    def poll_load(self, key, now):
        self.calls.append(("poll_load", key, now))
        return self.replies.pop(0)

    def issue_store(self, address, width, now):
        self.calls.append(("issue_store", address, width, now))
        return self.replies.pop(0)


class FakeWorld:
    """Recording stub with the surface a compiled segment replays
    against: entry clock and cursors, the flat frontend queues, the
    cache port, and the two world calls that stay calls. A segment must
    leave every attribute as it found it — settling clock and cursors
    is the engine's job (the exit contract)."""

    CYCLE, LQ_BASE, SQ_BASE = 100, 10, 20

    def __init__(self, replies=(), controls=()):
        self.calls = []
        self.cycle = self.CYCLE
        self.lq_base = self.LQ_BASE
        self.sq_base = self.SQ_BASE
        # Entry k of a queue has address 0x1000/0x2000 + 8k; store k
        # has width 1 + k % 8, so a wrong index shows in either field.
        self._lq = [0x1000 + 8 * k for k in range(32)]
        self._sq = [0x2000 + 8 * k for k in range(32)]
        self._sqw = [1 + k % 8 for k in range(32)]
        self.cache = FakePort(self.calls, list(replies))
        self.controls = list(controls)

    def rollback(self, request):
        self.calls.append(("rollback", request.control_ordinal))

    def get_control(self):
        self.calls.append(("get_control",))
        return self.controls.pop(0)

    def untouched(self):
        return (self.cycle, self.lq_base, self.sq_base) == (
            self.CYCLE, self.LQ_BASE, self.SQ_BASE)


def linear_chain():
    """advance(2) → retire(3) → advance(1) → load#0{5:…} → advance(4) → End."""
    a1, retire = AdvanceNode(2), RetireNode(Retire(3, 1, 0, 0, 1))
    a2, load = AdvanceNode(1), LoadIssueNode(0)
    a3, end = AdvanceNode(4), EndNode(1)
    a1.next, retire.next, a2.next, a3.next = retire, a2, load, end
    load.edges[5] = a3
    return a1, retire, load, end


class TestCompileSegment:
    def test_fusion_and_completion(self):
        head, retire, load, end = linear_chain()
        seg = compile_segment(head, 7, capture_source=True)
        world = FakeWorld(replies=[5])
        ctl = []
        assert seg.fn(world, seg.requests, seg.keys, ctl.append) is None
        # Advances and the retire emitted nothing: the load is the only
        # call, keyed by entry cursor + the one load retired before it,
        # at entry clock + the three cycles advanced before it.
        assert world.calls == [("issue_load", 11, 0x1000 + 8 * 11, 103)]
        assert world.untouched()
        assert "advance_cycles" not in seg.source
        assert "retire" not in seg.source
        # What the engine owes the world at the full-replay exit.
        assert seg.cycles == 7
        assert seg.retired == Retire(3, 1, 0, 0, 1)
        assert seg.requests == ()
        assert seg.n_actions == 5
        assert seg.n_configs == 0
        assert seg.end is end
        assert seg.generation == 7
        assert seg.trailing_delta == 4 and seg.sets_anchor
        assert patch_log(seg.log_tail, ctl) == [(retire, None), (load, 5)]
        assert not seg.has_terminal

    def test_guard_miss_side_exit(self):
        head, _, load, _ = linear_chain()
        seg = compile_segment(head, 0)
        world = FakeWorld(replies=[9])
        gid, actual = seg.fn(world, seg.requests, seg.keys, [].append)
        assert actual == 9
        # Nothing past the failing guard executed.
        assert world.calls == [("issue_load", 11, 0x1000 + 8 * 11, 103)]
        assert world.untouched()
        (node, is_control, n_act, visited, cyc, retired, n_cfg, blob,
         template) = seg.exit_meta[gid]
        assert node is load and not is_control
        assert n_act == 4 and visited == 4  # failing node included
        # Owed at this exit: the cycles and retires *before* the guard.
        assert cyc == 3 and retired == Retire(3, 1, 0, 0, 1)
        assert n_cfg == 0 and blob is None
        # The log template ends *before* the failing outcome — the
        # engine appends (node, actual) itself.
        assert [entry[0] for entry in template] == [head.next]

    def test_cursor_and_clock_offsets_accumulate(self):
        """Each reader sees entry value + everything folded before it:
        loads/stores by their own retire field, the rollback's control
        ordinal by the retired controls."""
        a1, r1 = AdvanceNode(2), RetireNode(Retire(5, 2, 1, 1, 0))
        poll, a2 = LoadPollNode(1), AdvanceNode(3)
        r2, store = RetireNode(Retire(2, 0, 2, 1, 1)), StoreIssueNode(0)
        rollback, end = RollbackNode(Rollback(1, 0, 0, 0)), EndNode(1)
        a1.next, r1.next, a2.next, r2.next = r1, poll, r2, store
        poll.edges[0] = a2
        store.edges[1] = rollback
        rollback.next = end
        seg = compile_segment(a1, 0)
        world = FakeWorld(replies=[0, 1])
        assert seg.fn(world, seg.requests, seg.keys, [].append) is None
        assert world.calls == [
            ("poll_load", 10 + 2 + 1, 102),
            ("issue_store", 0x2000 + 8 * (20 + 3 + 0), 1 + 23 % 8, 105),
            ("rollback", 1 + 2),
        ]
        assert world.untouched()
        assert seg.cycles == 5 and seg.retired == Retire(7, 2, 3, 2, 1)
        # The first guard's exit owes only what preceded it.
        assert seg.exit_meta[0][4:6] == (2, Retire(5, 2, 1, 1, 0))
        assert seg.exit_meta[1][4:6] == (5, Retire(7, 2, 3, 2, 1))

    def test_config_passthrough_and_anchor_delta(self):
        a1, config = AdvanceNode(2), ConfigNode(bytes(12), 12)
        a2, end = AdvanceNode(1), EndNode(1)
        a1.next, config.next, a2.next = config, a2, end
        seg = compile_segment(a1, 0, capture_source=True)
        world = FakeWorld()
        assert seg.fn(world, seg.requests, seg.keys, [].append) is None
        # Advances fold straight through the configuration: the
        # function body is empty and reads nothing of the world…
        assert world.calls == [] and "world." not in seg.source
        assert seg.cycles == 3 and seg.retired == Retire(0, 0, 0, 0, 0)
        # …and the anchor is reconstructed from the trailing delta:
        # log_anchor = world.cycle - trailing == the cycle at the config.
        assert seg.n_configs == 1 and seg.last_blob == bytes(12)
        assert seg.trailing_delta == 1 and seg.sets_anchor
        assert seg.log_tail == ()

    def test_control_records_captured_at_runtime(self):
        class Record:
            def __init__(self, key):
                self.outcome_key = key

        control, end = ControlNode(), EndNode(1)
        follow = AdvanceNode(1)
        control.edges[("taken", 4)] = follow
        follow.next = end
        seg = compile_segment(control, 0)
        record = Record(("taken", 4))
        world = FakeWorld(controls=[record])
        ctl = []
        assert seg.fn(world, seg.requests, seg.keys, ctl.append) is None
        assert ctl == [record]
        # The template slot patches to the runtime record, not the key
        # (advances are never logged, so the trailing one is absent).
        assert patch_log(seg.log_tail, ctl) == [(control, record)]

    def test_multi_edge_outcome_is_dynamic_terminal(self):
        load = LoadIssueNode(2)
        load.edges[1] = AdvanceNode(1)
        load.edges[6] = AdvanceNode(6)
        seg = compile_segment(load, 0)
        assert seg.has_terminal and seg.nodes == (load,)
        world = FakeWorld(replies=[6])
        gid, actual = seg.fn(world, seg.requests, seg.keys, [].append)
        assert (gid, actual) == (0, 6)
        assert world.calls == [("issue_load", 12, 0x1000 + 8 * 12, 100)]
        assert seg.exit_meta[0][4:6] == (0, Retire(0, 0, 0, 0, 0))

    def test_loop_closes_at_revisit(self):
        a1, retire = AdvanceNode(1), RetireNode(Retire(1, 0, 0, 0, 0))
        a1.next, retire.next = retire, a1  # steady-state loop
        seg = compile_segment(a1, 0)
        assert seg.n_actions == 2
        assert seg.end is a1  # one iteration per replay

    def test_revalidate_revives_and_rejects(self):
        head, retire, load, _ = linear_chain()
        seg = compile_segment(head, 0)
        assert revalidate(seg, 3)
        assert seg.generation == 3
        # A new edge on a covered guard breaks the single-edge shape.
        load.edges[9] = EndNode(1)
        assert not revalidate(seg, 4)
        del load.edges[9]
        assert revalidate(seg, 5)
        # A relinked successor is caught too.
        retire.next = AdvanceNode(99)
        assert not revalidate(seg, 6)


class TestSegmentTable:
    def test_flush_touches_stamps_and_prunes(self):
        head, _, _, _ = linear_chain()
        table = SegmentTable()
        seg = table.register(compile_segment(head, 0))
        head.seg = seg
        seg.touched_at = 42
        table.flush_touches(0)
        assert all(node.touch_gen == 42 for node in seg.nodes)
        assert table.segments == [seg]
        head.seg = None  # discarded by the engine
        table.flush_touches(0)
        assert table.segments == []

    def test_threshold_validated(self):
        # The table keeps no threshold; the engine owns and checks it.
        with pytest.raises(ValueError):
            FastSim(load_workload("compress", "tiny"), turbo_threshold=0)
