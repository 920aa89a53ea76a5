"""The ``bQ`` — register checkpoints for speculative direct execution.

FastSim saves all register values (integer, floating point, and control
registers) into the ``bQ`` when — and only when — a conditional branch
is *mispredicted*: correctly predicted branches never roll back, so no
state is saved for them (paper §3.2). The bQ holds up to four
outstanding checkpoints, matching the processor model's limit of four
unresolved speculative branches.

Checkpoints are keyed by the control-record index of the mispredicted
branch. Restoring checkpoint *c* also discards every younger
checkpoint, because a rollback squashes everything after the branch.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SimulationError
from repro.emulator.state import ArchState

#: The processor model speculates through at most this many branches.
BQ_CAPACITY = 4


class BranchCheckpointQueue:
    """Register checkpoints for outstanding mispredicted branches."""

    def __init__(self, capacity: int = BQ_CAPACITY):
        self.capacity = capacity
        self._checkpoints: Dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self._checkpoints)

    def save(self, control_index: int, state: ArchState,
             corrected_pc: int) -> None:
        """Checkpoint *state* with the PC forced to the corrected target
        so a restore resumes on the right path (``state.pc`` itself is
        not read). The tuple is what :meth:`ArchState.restore_registers`
        takes, built directly: one copy of each register file."""
        checkpoints = self._checkpoints
        if len(checkpoints) >= self.capacity:
            raise SimulationError(
                f"bQ overflow: more than {self.capacity} outstanding "
                "mispredicted branches"
            )
        checkpoints[control_index] = (
            state.regs[:], state.fregs[:], state.icc, state.fcc,
            corrected_pc, len(state.output), state.instret,
        )

    def restore(self, control_index: int, state: ArchState) -> None:
        """Restore checkpoint *control_index* and drop younger ones."""
        checkpoints = self._checkpoints
        try:
            snapshot = checkpoints.pop(control_index)
        except KeyError:
            raise SimulationError(
                f"no bQ checkpoint for control record {control_index}"
            ) from None
        state.restore_registers(snapshot)
        state.halted = False  # a wrong path may have executed halt
        if checkpoints:
            for index in [i for i in checkpoints if i > control_index]:
                del checkpoints[index]

    def outstanding(self) -> List[int]:
        """Control-record indices with live checkpoints, oldest first."""
        return sorted(self._checkpoints)
