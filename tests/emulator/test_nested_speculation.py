"""Stress tests for nested speculation — the hardest frontend scenarios.

The pipeline can have up to four unresolved conditional branches, some
of them mispredicted, resolving in arbitrary orders — including
wrong-path branches whose own "misprediction" triggers a nested
rollback that a later, older rollback then supersedes. These tests
drive those orders explicitly and through full simulation.
"""

import pytest

from repro.branch import BimodalPredictor, NotTakenPredictor
from repro.emulator.checkpoint import BranchCheckpointQueue
from repro.emulator.frontend import SpeculativeFrontend
from repro.emulator.functional import run_program
from repro.emulator.queues import ControlKind
from repro.isa import assemble
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim

# Four data-dependent branches back to back, then state-summing code —
# under not-taken prediction every taken branch mispredicts, nesting
# speculation to the limit.
DENSE_BRANCHES = """
main:
    mov 12, %i1
    clr %i3
outer:
    and %i1, 1, %l0
    tst %l0
    be b1_nt
    add %i3, 1, %i3
b1_nt:
    and %i1, 2, %l0
    tst %l0
    be b2_nt
    add %i3, 2, %i3
b2_nt:
    and %i1, 3, %l0
    cmp %l0, 2
    bg b3_nt
    add %i3, 4, %i3
b3_nt:
    and %i1, 7, %l0
    cmp %l0, 3
    bl b4_nt
    add %i3, 8, %i3
b4_nt:
    subcc %i1, 1, %i1
    bne outer
    out %i3
    halt
"""

# A wrong path that itself stores, calls, and halts.
TOXIC_WRONG_PATH = """
main:
    set buf, %l0
    mov 8, %l1
loop:
    subcc %l1, 1, %l1
    bne loop
    ! fall-through (wrong path under always-taken until the exit)
    mov 1, %l2
    st %l2, [%l0]
    call poison
    ld [%l0], %l3
    out %l3
    halt
poison:
    st %l1, [%l0 + 4]
    ret
    .data
buf: .word 0, 0
"""


class TestDenseBranchNesting:
    def test_frontend_handles_full_nesting(self):
        exe = assemble(DENSE_BRANCHES)
        frontend = SpeculativeFrontend(exe, NotTakenPredictor(),
                                       bq_capacity=5)
        outstanding = []
        for _ in range(50_000):
            record = frontend.run_one_event()
            index = len(frontend.queues.controls) - 1
            if record.mispredicted:
                outstanding.append(index)
            # Roll back oldest-first once nesting reaches the limit,
            # or at a (possibly wrong-path) halt.
            if len(outstanding) >= 4 or (
                record.kind is ControlKind.HALT and outstanding
            ):
                frontend.rollback_to(outstanding[0])
                outstanding.clear()
                continue
            if record.kind is ControlKind.HALT:
                break
        reference = run_program(assemble(DENSE_BRANCHES))
        assert frontend.state.output == reference.output

    @pytest.mark.parametrize("predictor_cls",
                             [NotTakenPredictor, BimodalPredictor])
    def test_full_simulation_exact(self, predictor_cls):
        slow = SlowSim(assemble(DENSE_BRANCHES),
                       predictor=predictor_cls()).run()
        fast = FastSim(assemble(DENSE_BRANCHES),
                       predictor=predictor_cls()).run()
        assert fast.timing_equal(slow)
        reference = run_program(assemble(DENSE_BRANCHES))
        assert fast.output == reference.output

    def test_speculation_never_exceeds_pipeline_limit(self, monkeypatch):
        """The bQ high-water mark stays within limit+1 (the frontend
        runs one event ahead of fetch)."""
        occupancy = []
        save = BranchCheckpointQueue.save

        def tracking_save(bq, *args):
            save(bq, *args)
            occupancy.append(len(bq))

        monkeypatch.setattr(BranchCheckpointQueue, "save", tracking_save)
        exe = assemble(DENSE_BRANCHES)
        sim = SlowSim(exe, predictor=NotTakenPredictor())
        sim.run()
        assert 1 < max(occupancy) <= 5


class TestToxicWrongPaths:
    """Wrong paths that store, call, and halt must leave no residue."""

    def test_wrong_path_side_effects_fully_undone(self):
        exe = assemble(TOXIC_WRONG_PATH)
        from repro.branch import AlwaysTakenPredictor

        slow = SlowSim(exe, predictor=AlwaysTakenPredictor()).run()
        reference = run_program(assemble(TOXIC_WRONG_PATH))
        assert slow.output == reference.output == [1]
        assert slow.instructions == reference.instret

    def test_memoized_version_identical(self):
        from repro.branch import AlwaysTakenPredictor

        slow = SlowSim(assemble(TOXIC_WRONG_PATH),
                       predictor=AlwaysTakenPredictor()).run()
        fast = FastSim(assemble(TOXIC_WRONG_PATH),
                       predictor=AlwaysTakenPredictor()).run()
        assert fast.timing_equal(slow)

    def test_wrong_path_halt_does_not_end_simulation(self):
        """A halt fetched down a wrong path must be squashed, not
        terminate the run."""
        from repro.branch import AlwaysTakenPredictor

        exe = assemble(TOXIC_WRONG_PATH)
        result = SlowSim(exe, predictor=AlwaysTakenPredictor()).run()
        # The loop body is 2 instructions x 8 iterations; a premature
        # halt would retire far fewer instructions.
        assert result.instructions >= 20
