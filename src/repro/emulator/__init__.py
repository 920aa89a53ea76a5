"""Functional execution substrate — this reproduction's "direct execution".

* :class:`Memory` / :class:`ArchState` — machine state
* :class:`Interpreter` / :func:`run_program` — plain functional execution
* :class:`SpeculativeFrontend` — runs ahead of the timing model down
  predicted paths with checkpoint/rollback, recording the ``lQ``/``sQ``/
  control-flow queues that drive the μ-architecture simulator
"""

from repro.emulator.checkpoint import BQ_CAPACITY, BranchCheckpointQueue
from repro.emulator.frontend import SpeculativeFrontend
from repro.emulator.functional import Interpreter, run_program
from repro.emulator.memory import Memory
from repro.emulator.queues import ControlKind, ControlRecord, RecordQueues
from repro.emulator.state import ArchState

__all__ = [
    "ArchState",
    "Memory",
    "Interpreter",
    "run_program",
    "SpeculativeFrontend",
    "BranchCheckpointQueue",
    "BQ_CAPACITY",
    "ControlKind",
    "ControlRecord",
    "RecordQueues",
]
