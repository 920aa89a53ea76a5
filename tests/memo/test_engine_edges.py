"""Edge-case tests for the fast-forwarding engine."""

from dataclasses import replace

import pytest

from repro.branch import AlwaysTakenPredictor, NotTakenPredictor
from repro.errors import MemoizationError, SimulationError
from repro.isa import assemble
from repro.memo.actions import EndNode, RetireNode, RollbackNode
from repro.memo.engine import run_signature
from repro.memo.pcache import PActionCache
from repro.memo.persist import load_pcache
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.sim.world import World
from repro.uarch.interactions import Retire, Rollback
from repro.uarch.params import ProcessorParams
from repro.workloads.suite import load_workload
from tests.memo.fixtures import CUT_EVERY_ACTION_FSPC

TINY = "main: mov 3, %l0\nloop: subcc %l0, 1, %l0\nbne loop\nout %l0\nhalt"
OTHER = "main: mov 5, %l1\nout %l1\nhalt"


class TestGuards:
    def test_max_cycles_enforced_in_detailed_mode(self):
        exe = assemble("main: mov 200, %l0\nloop: subcc %l0, 1, %l0\n"
                       "bne loop\nhalt")
        with pytest.raises(SimulationError, match="exceeded"):
            FastSim(exe).run(max_cycles=20)

    def test_max_cycles_enforced_during_replay(self):
        exe = assemble(TINY)
        warm = FastSim(exe, predictor=AlwaysTakenPredictor())
        warm.run()
        with pytest.raises(SimulationError, match="exceeded"):
            FastSim(assemble(TINY), predictor=AlwaysTakenPredictor(),
                    pcache=warm.pcache).run(max_cycles=3)

    def test_cross_program_cache_reuse_rejected(self):
        first = FastSim(assemble(TINY))
        first.run()
        with pytest.raises(MemoizationError, match="different program"):
            FastSim(assemble(OTHER), pcache=first.pcache).run()

    def test_cross_params_cache_reuse_rejected(self):
        first = FastSim(assemble(TINY), params=ProcessorParams.r10k())
        first.run()
        with pytest.raises(MemoizationError, match="different program"):
            FastSim(assemble(TINY), params=ProcessorParams.narrow(),
                    pcache=first.pcache).run()

    def test_same_program_reuse_allowed(self):
        first = FastSim(assemble(TINY))
        first.run()
        result = FastSim(assemble(TINY), pcache=first.pcache).run()
        assert result.instructions > 0


class TestDegeneratePrograms:
    def test_single_halt(self):
        exe = assemble("main: halt")
        slow = SlowSim(exe).run()
        fast = FastSim(assemble("main: halt")).run()
        assert fast.timing_equal(slow)
        assert fast.instructions == 1

    def test_straight_line_no_branches(self):
        src = "main:\n" + "\n".join(
            f"add %g0, {i}, %l{i % 8}" for i in range(20)
        ) + "\nhalt"
        slow = SlowSim(assemble(src)).run()
        fast = FastSim(assemble(src)).run()
        assert fast.timing_equal(slow)

    def test_immediate_indirect_jump(self):
        src = ("main: set target, %l0\njmpl [%l0], %g0\nnop\n"
               "target: out %l0\nhalt")
        slow = SlowSim(assemble(src)).run()
        fast = FastSim(assemble(src)).run()
        assert fast.timing_equal(slow)

    def test_branch_as_first_instruction(self):
        src = "main: ba go\nnop\ngo: halt"
        fast = FastSim(assemble(src)).run()
        slow = SlowSim(assemble(src)).run()
        assert fast.timing_equal(slow)

    def test_tight_self_loop_with_exit(self):
        src = ("main: mov 50, %l0\nspin: subcc %l0, 1, %l0\nbne spin\n"
               "halt")
        fast = FastSim(assemble(src)).run()
        slow = SlowSim(assemble(src)).run()
        assert fast.timing_equal(slow)


class TestResyncPaths:
    """Force each fall-back flavour and verify exactness."""

    PHASED = """
main:
    set buf, %l0
    mov 40, %l1
warm:                       ! phase 1: loads hit a warm line
    ld [%l0], %l2
    subcc %l1, 1, %l1
    bne warm
    mov 40, %l1
cold:                       ! phase 2: same code shape, new lines
    ld [%l0 + %l1], %l2
    add %l1, 32, %l1
    cmp %l1, 1000
    bl cold
    out %l2
    halt
    .data
buf: .space 1024
"""

    def test_load_latency_divergence(self):
        """Phase 2 revisits configurations with different cache
        outcomes, forcing divergence at load-issue edges."""
        slow = SlowSim(assemble(self.PHASED)).run()
        fast = FastSim(assemble(self.PHASED)).run()
        assert fast.timing_equal(slow)
        assert fast.memo.replay_episodes >= 2  # fell back at least once

    def test_control_divergence_via_predictor_warmup(self):
        """The bimodal predictor changes its mind as it trains, so a
        revisited configuration sees a new control outcome."""
        src = """
main:
    mov 30, %l6
outer:
    mov 3, %l0
inner:
    subcc %l0, 1, %l0
    bne inner
    subcc %l6, 1, %l6
    bne outer
    halt
"""
        slow = SlowSim(assemble(src)).run()
        fast = FastSim(assemble(src)).run()
        assert fast.timing_equal(slow)

    def test_fallback_at_chainless_config(self):
        """A config allocated just before a flush has no chain; replay
        reaching it must resync cleanly."""
        from repro.memo.policies import FlushOnFullPolicy

        exe = assemble(self.PHASED)
        slow = SlowSim(exe).run()
        fast = FastSim(assemble(self.PHASED),
                       policy=FlushOnFullPolicy(2048)).run()
        assert fast.timing_equal(slow)

    def test_fallback_at_pruned_terminal_configuration(self):
        """The terminal configuration (drained, halted) with its EndNode
        pruned: the restored simulator finishes at once, and the ending
        is recorded again for the next run. Today's recorder does not
        cut that configuration (the halting cycle only retires), so the
        cache comes from a file the earlier recorder wrote."""
        exe = load_workload("compress", "tiny")
        slow = SlowSim(exe).run()
        pcache = load_pcache(CUT_EVERY_ACTION_FSPC)
        terminal = [entry for entry in pcache.index.values()
                    if isinstance(entry.next, EndNode)]
        assert len(terminal) == 1
        terminal[0].next = None
        warm = FastSim(exe, pcache=pcache).run(
            max_cycles=20 * slow.cycles)
        assert warm.timing_equal(slow)
        assert warm.memo.detailed_cycles == 1
        assert isinstance(terminal[0].next, EndNode)


class TestSharedCacheTiming:
    def test_third_run_no_slower_than_second(self):
        exe_src = TINY
        policy_runs = []
        cache = None
        for _ in range(3):
            sim = FastSim(assemble(exe_src),
                          predictor=NotTakenPredictor(), pcache=cache)
            result = sim.run()
            cache = sim.pcache
            policy_runs.append(result)
        assert policy_runs[1].memo.detailed_instructions == 0
        assert policy_runs[2].memo.detailed_instructions == 0
        assert policy_runs[1].timing_equal(policy_runs[2])

    def test_cache_object_exposed(self):
        sim = FastSim(assemble(TINY))
        sim.run()
        assert isinstance(sim.pcache, PActionCache)
        assert len(sim.pcache) > 0


class TestReplayHandsOverTheRecordedRequest:
    def test_interpreted_replay_passes_the_nodes_own_request(
            self, monkeypatch):
        """A retire / rollback node keeps the frozen request it was
        recorded from and replay hands the world that very object —
        nothing is rebuilt per visit."""
        exe = load_workload("go", "tiny")
        cold = FastSim(exe, turbo=False)
        reference = cold.run()
        kept = {id(node.request): node
                for node in cold.pcache.reachable_nodes()
                if isinstance(node, (RetireNode, RollbackNode))}
        seen = {"retire": [], "rollback": []}
        for method in seen:
            def spy(world, request, method=method,
                    real=getattr(World, method)):
                seen[method].append(request)
                real(world, request)
            monkeypatch.setattr(World, method, spy)

        warm = FastSim(exe, turbo=False, pcache=cold.pcache).run()

        assert warm.memo.detailed_instructions == 0
        assert warm.timing_equal(reference)
        assert seen["retire"] and seen["rollback"]
        for method, node_type, request_type in (
                ("retire", RetireNode, Retire),
                ("rollback", RollbackNode, Rollback)):
            for request in seen[method]:
                assert type(request) is request_type
                assert type(kept[id(request)]) is node_type
                assert kept[id(request)].request is request



def test_run_signature_binds_memory_and_bht_size():
    """Conservative on purpose: the cache and predictor replies are
    checked as outcome edges, yet both are hashed with the pipeline."""
    exe, base = assemble(TINY), ProcessorParams.r10k()
    half_l1 = replace(base.memory, l1=replace(base.memory.l1, size_bytes=8192))
    signature = run_signature(exe, base)
    assert run_signature(exe, ProcessorParams.r10k()) == signature
    assert run_signature(exe, replace(base, bht_entries=128)) != signature
    assert run_signature(exe, replace(base, memory=half_l1)) != signature
