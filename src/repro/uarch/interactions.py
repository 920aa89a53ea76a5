"""The interaction protocol between the detailed simulator and its world.

The detailed μ-architecture simulator is a Python generator: it
``yield``\\ s :class:`Request` objects whenever it needs to interact
with anything outside the iQ — the cache simulator, the
direct-execution frontend, or the statistics counters — and receives
the outcome via ``send()``. This is precisely the set of events that
FastSim's p-action cache records (paper §4.2: *"actions stored in the
p-action cache represent the ways in which FastSim's µ-architecture
simulator interacts with direct-execution or cache simulation, or
update counters"*).

Requests reference frontend queue entries by **ordinal** — the
instruction's position among loads (stores, control instructions) in
the current iQ, counted from the oldest in-flight instruction. The
world converts ordinals to absolute queue indices using cursors that
advance deterministically with the action stream (retires and
rollbacks), which keeps recorded actions position-independent so a
memoized chain replays correctly at any point in the program.

Outcome-bearing requests (:class:`GetControl`, :class:`IssueLoad`,
:class:`PollLoad`, :class:`IssueStore`) become multi-way edges in the
p-action cache; the others are deterministic and replay blindly.
"""

from __future__ import annotations

from dataclasses import dataclass


class Request:
    """Base class for interaction requests."""

    __slots__ = ()

    #: True when the world's reply distinguishes p-action cache edges.
    has_outcome = False


@dataclass(frozen=True)
class GetControl(Request):
    """Consume the next control-flow record (running the frontend if
    needed so it stays one event ahead of fetch).

    Outcome: the :class:`~repro.emulator.queues.ControlRecord`; the
    p-action edge key is ``record.outcome_key``.
    """

    __slots__ = ()
    has_outcome = True


@dataclass(frozen=True)
class IssueLoad(Request):
    """Issue the load with iQ load-ordinal *ordinal* to the cache
    simulator. Outcome: the interval (cycles) before data could arrive.
    """

    __slots__ = ("ordinal",)
    ordinal: int
    has_outcome = True


@dataclass(frozen=True)
class PollLoad(Request):
    """Re-poll a previously issued load. Outcome: 0 when the data is
    ready, else a further interval to wait."""

    __slots__ = ("ordinal",)
    ordinal: int
    has_outcome = True


@dataclass(frozen=True)
class IssueStore(Request):
    """Issue the store with iQ store-ordinal *ordinal*. Outcome: the
    interval until the store buffer accepts it."""

    __slots__ = ("ordinal",)
    ordinal: int
    has_outcome = True


@dataclass(frozen=True)
class Rollback(Request):
    """A mispredicted branch resolved: roll direct execution back.

    *control_ordinal* identifies the branch among the iQ's
    control-consuming instructions; *squashed_loads* /
    *squashed_stores* / *squashed_controls* count the younger entries
    being squashed (the world drops their queue entries and cache
    tokens). Deterministic — no outcome.
    """

    __slots__ = ("control_ordinal", "squashed_loads", "squashed_stores",
                 "squashed_controls")
    control_ordinal: int
    squashed_loads: int
    squashed_stores: int
    squashed_controls: int


@dataclass(frozen=True)
class Retire(Request):
    """Retire *count* instructions from the head of the iQ.

    The per-kind counts advance the world's queue-base cursors and the
    retired-instruction statistics. Deterministic — no outcome.
    """

    __slots__ = ("count", "loads", "stores", "controls", "branches")
    count: int
    loads: int
    stores: int
    controls: int
    branches: int


@dataclass(frozen=True)
class CycleBoundary(Request):
    """End of one simulated cycle. Not an action itself: the recorder
    counts boundaries to produce AdvanceCycles actions and to decide
    where configurations are snapshotted."""

    __slots__ = ()


@dataclass(frozen=True)
class Finished(Request):
    """The halt instruction retired and the pipeline drained."""

    __slots__ = ()


#: Requests without fields carry no per-yield data, so the detailed
#: simulator yields these shared instances.
GET_CONTROL = GetControl()
CYCLE_BOUNDARY = CycleBoundary()
FINISHED = Finished()
