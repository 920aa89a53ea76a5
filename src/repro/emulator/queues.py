"""The frontend's recording queues: ``lQ``, ``sQ``, and the control-flow queue.

FastSim's instrumentation records, during (speculative) direct
execution:

* ``lQ`` — the effective address of every load, for the cache simulator;
* ``sQ`` — the effective address of every store **plus the pre-store
  memory value**, doubling as the rollback log for mispredicted paths;
* one control-flow record per conditional branch / indirect jump /
  program halt, telling the μ-architecture simulator which way direct
  execution went and whether the branch predictor agreed.

Entries are indexed by their append position. The μ-architecture
simulator addresses entries by index (fetch assigns the k-th load
fetched to ``lQ[k]`` — sound because fetch follows exactly the path the
frontend executed). A misprediction rollback truncates all three queues
back to the lengths recorded in the mispredicted branch's control
record, after restoring pre-store values in reverse order.
"""

from __future__ import annotations

import enum
from typing import List


class ControlKind(enum.IntEnum):
    """What kind of control event a record describes."""

    COND = 0  #: conditional branch (predicted; may be mispredicted)
    INDIRECT = 1  #: indirect jump — target recorded, never speculated past
    HALT = 2  #: program executed ``halt``


class ControlRecord:
    """One control-flow event recorded by the frontend.

    ``taken`` is the branch's outcome *as evaluated on the path the
    frontend was executing* (which may itself be a wrong path).
    ``lq_len``/``sq_len`` snapshot the queue lengths at the event, which
    is what rollback truncates to.

    ``outcome_key`` is the hashable key describing this record for
    p-action cache edges: two records with equal keys cause identical
    subsequent simulator behaviour from the same configuration, because
    the fetch path is a function of (kind, predicted direction,
    misprediction flag, indirect target) plus static code. It is filled
    once, at construction — a generated event function passes it
    (a branch's from a decode-time constant the records share), every
    other constructor leaves it to the formula below.

    A plain ``__slots__`` class, not a frozen dataclass (which pays one
    ``object.__setattr__`` per field): one is allocated per control
    event on the frontend's hottest path. Treat instances as immutable.
    """

    __slots__ = ("kind", "pc", "taken", "predicted_taken", "target",
                 "lq_len", "sq_len", "outcome_key")

    def __init__(self, kind: ControlKind, pc: int, taken: bool = False,
                 predicted_taken: bool = False, target: int = 0,
                 lq_len: int = 0, sq_len: int = 0, outcome_key=None):
        self.kind = kind
        self.pc = pc
        self.taken = taken
        self.predicted_taken = predicted_taken
        #: actual destination (indirect jumps; corrected path)
        self.target = target
        self.lq_len = lq_len
        self.sq_len = sq_len
        if outcome_key is None:
            if kind is ControlKind.COND:
                outcome_key = (int(kind), pc, taken, predicted_taken)
            elif kind is ControlKind.INDIRECT:
                outcome_key = (int(kind), pc, target)
            else:
                outcome_key = (int(kind), pc)
        self.outcome_key = outcome_key

    @classmethod
    def from_key(cls, key) -> "ControlRecord":
        """A record of outcome key *key*: equal to every such record in
        all the detailed simulator reads (the queue lengths, which only
        the world reads, are 0) — how a resync re-feeds a control."""
        kind = ControlKind(key[0])
        if kind is ControlKind.COND:
            return cls(kind, key[1], key[2], key[3], outcome_key=key)
        if kind is ControlKind.INDIRECT:
            return cls(kind, key[1], True, target=key[2], outcome_key=key)
        return cls(kind, key[1], outcome_key=key)

    def __repr__(self) -> str:
        return (f"ControlRecord(kind={self.kind!r}, pc={self.pc:#x}, "
                f"taken={self.taken}, "
                f"predicted_taken={self.predicted_taken}, "
                f"target={self.target:#x}, lq_len={self.lq_len}, "
                f"sq_len={self.sq_len})")

    @property
    def mispredicted(self) -> bool:
        """True when the predictor disagreed with the evaluated outcome."""
        return self.kind is ControlKind.COND and (
            self.taken != self.predicted_taken
        )


class RecordQueues:
    """The frontend queues: append-only, truncated on rollback.

    ``lQ`` and ``sQ`` are flat parallel lists indexed by append
    position, not record objects: ``loads[i]`` is the effective address
    of the i-th load (its width is a static fact of the instruction);
    the i-th store is ``stores[i]`` (address), ``store_widths[i]`` and
    ``store_olds[i]`` (the pre-store ``bytes``, the rollback log) —
    three lists that always have the same length.
    """

    __slots__ = ("loads", "stores", "store_widths", "store_olds",
                 "controls")

    def __init__(self) -> None:
        self.loads: List[int] = []
        self.stores: List[int] = []
        self.store_widths: List[int] = []
        self.store_olds: List[bytes] = []
        self.controls: List[ControlRecord] = []

    def log_access(self, instr, interpreter) -> None:
        """Append the entry for *instr*, which *interpreter* just
        stepped, if it was a load or a store."""
        if instr.is_load:
            self.loads.append(interpreter.last_mem_addr)
        elif instr.is_store:
            self.stores.append(interpreter.last_mem_addr)
            self.store_widths.append(interpreter.last_mem_width)
            self.store_olds.append(interpreter.last_store_old)

    def truncate(self, control_len: int, lq_len: int, sq_len: int) -> None:
        """Discard wrong-path entries after a misprediction rollback."""
        del self.controls[control_len:]
        del self.loads[lq_len:]
        del self.stores[sq_len:]
        del self.store_widths[sq_len:]
        del self.store_olds[sq_len:]
