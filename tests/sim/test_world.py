"""Tests for the world adapter (queue cursors, frontend lookahead)."""

import pytest

from repro.branch import AlwaysTakenPredictor
from repro.errors import SimulationError
from repro.isa import assemble
from repro.sim.world import World
from repro.uarch.detailed import DetailedSimulator
from repro.uarch.interactions import (
    CYCLE_BOUNDARY,
    FINISHED,
    GetControl,
    IssueLoad,
    IssueStore,
    PollLoad,
    Retire,
    Rollback,
)

PROGRAM = """
main:
    set buf, %l0
    mov 4, %l1
loop:
    ld [%l0], %l2
    st %l2, [%l0 + 16]
    subcc %l1, 1, %l1
    bne loop
    halt
    .data
buf: .word 42
    .space 28
"""


def make_world():
    return World(assemble(PROGRAM), predictor=AlwaysTakenPredictor())


class TestFrontendLookahead:
    def test_primed_one_event_ahead(self):
        world = make_world()
        assert len(world.frontend.queues.controls) == 1

    def test_get_control_keeps_one_ahead(self):
        world = make_world()
        record = world.get_control()
        assert record is not None
        assert len(world.frontend.queues.controls) == world.cf_fetched + 1

    def test_loads_available_before_issue(self):
        world = make_world()
        # The frontend has executed past the first branch, so the first
        # iteration's load/store records exist.
        assert len(world.frontend.queues.loads) >= 1
        assert len(world.frontend.queues.stores) >= 1


class TestQueueCursors:
    def test_issue_load_uses_ordinal(self):
        world = make_world()
        interval = world.issue_load(0)
        assert interval >= 1

    def test_poll_before_issue_raises(self):
        world = make_world()
        with pytest.raises(SimulationError, match="never issued"):
            world.poll_load(0)

    def test_poll_after_issue(self):
        world = make_world()
        world.issue_load(0)
        reply = world.poll_load(0)
        assert reply >= 0

    def test_retire_advances_bases(self):
        world = make_world()
        world.retire(Retire(count=4, loads=1, stores=1, controls=1,
                            branches=1))
        assert world.lq_base == 1
        assert world.sq_base == 1
        assert world.cf_base == 1
        assert world.stats.retired_instructions == 4

    def test_issue_store_uses_base(self):
        world = make_world()
        interval = world.issue_store(0)
        assert interval >= 1

    def test_advance_cycles(self):
        world = make_world()
        world.advance_cycles(7)
        assert world.cycle == 7
        assert world.stats.cycles == 7


class TestRollbackPlumbing:
    def test_rollback_requires_mispredicted_record(self):
        world = make_world()
        # Record 0 is correctly predicted taken under AlwaysTaken.
        with pytest.raises(SimulationError):
            world.rollback(Rollback(control_ordinal=0, squashed_loads=0,
                                    squashed_stores=0, squashed_controls=0))

    def test_rollback_cancels_squashed_load_tokens(self):
        from repro.branch import NotTakenPredictor

        world = World(assemble(PROGRAM), predictor=NotTakenPredictor())
        # Under not-taken prediction the first loop branch mispredicts;
        # the frontend ran down the fall-through (wrong) path.
        record = world.frontend.queues.controls[0]
        assert record.mispredicted
        world.get_control()
        before = world.stats.mispredictions
        world.rollback(Rollback(control_ordinal=0, squashed_loads=0,
                                squashed_stores=0, squashed_controls=0))
        assert world.stats.mispredictions == before + 1
        assert world.cf_fetched == 1
        # Frontend is again one event ahead, now on the correct path.
        assert len(world.frontend.queues.controls) == 2


class TestProgramOutput:
    def test_output_proxy(self):
        world = make_world()
        assert world.program_output == world.frontend.state.output


#: Each kind's world call, as the chains World.answer replaced made it.
DIRECT = {
    GetControl: lambda world, request: world.get_control(),
    IssueLoad: lambda world, request: world.issue_load(request.ordinal),
    PollLoad: lambda world, request: world.poll_load(request.ordinal),
    IssueStore: lambda world, request: world.issue_store(request.ordinal),
    Retire: World.retire,
    Rollback: World.rollback,
}


def world_state(world, reply):
    return (world.cycle, world.lq_base, world.sq_base, world.cf_base,
            world.cf_fetched, world.stats.as_dict(),
            world.cache.stats.as_dict(), world.frontend.rollbacks,
            getattr(reply, "outcome_key", reply))


class TestAnswer:
    def test_every_kind_matches_its_world_call(self):
        """Two worlds in lockstep under one detailed run: one answered,
        one called directly. Every request leaves both equal."""
        answered, direct = make_world(), make_world()
        generator = DetailedSimulator(assemble(PROGRAM)).run()
        seen, reply = set(), None
        while (request := generator.send(reply)) is not FINISHED:
            reply = want = None
            if request is CYCLE_BOUNDARY:
                answered.advance_cycles(1)
                direct.advance_cycles(1)
            else:
                reply = answered.answer(request)
                want = DIRECT[type(request)](direct, request)
                seen.add(type(request))
            assert world_state(answered, reply) == world_state(direct, want)
        assert seen == set(DIRECT)

    @pytest.mark.parametrize("request_", [CYCLE_BOUNDARY, FINISHED, object()])
    def test_boundary_end_and_strangers_raise(self, request_):
        with pytest.raises(SimulationError, match="no world call answers"):
            make_world().answer(request_)
