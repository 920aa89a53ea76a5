"""Unit tests for the bQ (branch checkpoint queue)."""

import pytest

from repro.emulator.checkpoint import BQ_CAPACITY, BranchCheckpointQueue
from repro.emulator.state import ArchState
from repro.errors import SimulationError


def make_state(marker: int) -> ArchState:
    state = ArchState()
    state.regs[1] = marker
    state.pc = 0x1000 + marker
    state.output.extend(range(marker))
    return state


class TestSaveRestore:
    def test_round_trip(self):
        bq = BranchCheckpointQueue()
        state = make_state(5)
        bq.save(0, state, corrected_pc=0x2000)
        state.regs[1] = 99
        state.pc = 0xDEAD
        state.output.append(123)
        bq.restore(0, state)
        assert state.regs[1] == 5
        assert state.pc == 0x2000  # the corrected target, not the saved pc
        assert len(state.output) == 5

    def test_restore_clears_halted(self):
        bq = BranchCheckpointQueue()
        state = make_state(1)
        bq.save(3, state, corrected_pc=0x2000)
        state.halted = True
        bq.restore(3, state)
        assert state.halted is False

    def test_restore_unknown_raises(self):
        with pytest.raises(SimulationError):
            BranchCheckpointQueue().restore(7, ArchState())

    def test_restore_drops_younger(self):
        bq = BranchCheckpointQueue()
        state = make_state(1)
        bq.save(1, state, 0x100)
        bq.save(2, state, 0x200)
        bq.save(3, state, 0x300)
        bq.restore(1, state)
        assert bq.outstanding() == []

    def test_restore_keeps_older(self):
        bq = BranchCheckpointQueue()
        state = make_state(1)
        bq.save(1, state, 0x100)
        bq.save(5, state, 0x200)
        bq.restore(5, state)
        assert bq.outstanding() == [1]


class TestCapacity:
    def test_default_capacity(self):
        assert BQ_CAPACITY == 4

    def test_overflow_raises(self):
        bq = BranchCheckpointQueue(capacity=2)
        state = make_state(1)
        bq.save(0, state, 0)
        bq.save(1, state, 0)
        with pytest.raises(SimulationError, match="bQ overflow"):
            bq.save(2, state, 0)

    def test_restore_frees_slot(self):
        bq = BranchCheckpointQueue(capacity=1)
        state = make_state(1)
        bq.save(0, state, 0)
        bq.restore(0, state)
        bq.save(1, state, 0)  # must not overflow
        assert len(bq) == 1


class TestIsolation:
    def test_checkpoint_is_the_snapshot_with_the_corrected_pc(self):
        """``save`` builds the tuple directly; it must stay the one
        ``ArchState.snapshot_registers`` / ``restore_registers`` define."""
        bq = BranchCheckpointQueue()
        state = make_state(3)
        state.icc, state.fcc, state.instret = 9, 2, 41
        state.fregs[2] = -1.5
        bq.save(7, state, corrected_pc=0x2468)
        snapshot = state.snapshot_registers()
        assert bq._checkpoints[7] == (
            snapshot[:4] + (0x2468,) + snapshot[5:])

    def test_snapshot_not_aliased(self):
        """Mutating state after save must not corrupt the checkpoint."""
        bq = BranchCheckpointQueue()
        state = make_state(2)
        bq.save(0, state, 0x500)
        state.regs[5] = 77
        state.fregs[3] = 2.5
        bq.restore(0, state)
        assert state.regs[5] == 0
        assert state.fregs[3] == 0.0
