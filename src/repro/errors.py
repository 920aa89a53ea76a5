"""Exception hierarchy for the FastSim reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers embedding the simulator can catch one type. Subsystems raise the
more specific subclasses below::

    ReproError
    ├── AssemblerError          malformed assembly source
    ├── EncodingError           instruction (de)coding failure
    ├── EmulationError          functional-execution fault
    │   └── MemoryFault         misaligned / out-of-segment access
    ├── SimulationError         timing simulator inconsistency
    ├── ConfigCodecError        μ-arch configuration (de)code failure
    ├── MemoizationError        p-action cache structural violation
    │   ├── PCacheCorruptError  persisted cache failed integrity checks
    │   └── SegStoreCorruptError  segment archive failed integrity checks
    ├── CorruptRecordError      CRC-framed file damage, with offset and
    │                           record (also a base of the two above)
    ├── CampaignError           campaign orchestration failure
    │   └── PoisonedJobError    job quarantined after crashing workers
    └── WorkloadError           invalid workload parameters

:class:`PCacheCorruptError` is the *only* exception the persistence
layer (:mod:`repro.memo.persist`) lets escape for damaged input: raw
``struct.error`` / ``EOFError`` / decoder exceptions are wrapped so
callers can distinguish "this file is rotten" from "this code is
broken" (see docs/robustness.md).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class AssemblerError(ReproError):
    """Raised for malformed assembly source (syntax, ranges, labels)."""

    def __init__(self, message: str, line: int = 0, source: str = "<asm>"):
        self.line = line
        self.source = source
        if line:
            message = f"{source}:{line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded or decoded."""


class EmulationError(ReproError):
    """Raised for faults during functional execution (bad memory, traps)."""


class MemoryFault(EmulationError):
    """Raised on misaligned or out-of-segment memory access."""

    def __init__(self, address: int, message: str = "memory fault"):
        self.address = address
        super().__init__(f"{message} at 0x{address:08x}")


class SimulationError(ReproError):
    """Raised when a timing simulator reaches an inconsistent state."""


class ConfigCodecError(ReproError):
    """Raised when a microarchitecture configuration fails to (de)code."""


class MemoizationError(ReproError):
    """Raised for p-action cache structural violations."""


class CorruptRecordError(ReproError):
    """A CRC-framed file (:mod:`repro.framing`) failed its integrity
    checks — truncation, bit rot, bad checksums, unknown tags.

    ``offset`` is the byte offset where the damage was found (or -1
    when unknown) and ``record`` the zero-based record index (or -1 for
    header/trailer damage); both are appended to the message.
    """

    def __init__(self, message: str, offset: int = -1, record: int = -1):
        self.offset = offset
        self.record = record
        where = []
        if record >= 0:
            where.append(f"record {record}")
        if offset >= 0:
            where.append(f"offset {offset}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class PCacheCorruptError(CorruptRecordError, MemoizationError):
    """A persisted p-action cache failed its integrity checks.

    The only exception :mod:`repro.memo.persist` lets escape for
    damaged input; ``record`` is the node-record index.
    """


class SegStoreCorruptError(CorruptRecordError, MemoizationError):
    """A persisted compiled-segment archive failed its integrity checks.

    Raised by :mod:`repro.memo.segstore`. Unlike a corrupt p-action
    cache, a corrupt segment archive is *never* fatal to a run: the
    caller counts it as a miss and segments recompile from the
    (independently checked) graph, so output cannot be affected.
    """


class CampaignError(ReproError):
    """Raised for campaign orchestration failures (journal/resume)."""


class CampaignUsageError(CampaignError, ValueError):
    """The campaign was refused before any job ran: an option value out
    of range, or a ``resume`` file that is not this campaign's journal.
    The CLI reports it as a usage error (one ``error:`` line, exit 2).
    """


class PoisonedJobError(CampaignError):
    """A job was quarantined after crashing its workers repeatedly.

    The campaign engine isolates a job whose attempts keep killing
    worker processes (``crashes >= poison_threshold``) instead of
    burning the whole campaign's retry budget on it. The merged
    :class:`~repro.campaign.jobs.JobResult` carries
    ``status="poisoned"`` and this error's message; sibling jobs are
    unaffected (see docs/robustness.md).
    """

    def __init__(self, job_key: str, crashes: int, last_failure: str = ""):
        self.job_key = job_key
        self.crashes = crashes
        self.last_failure = last_failure
        message = (f"job {job_key!r} crashed {crashes} worker(s); "
                   f"quarantined as poison")
        if last_failure:
            message = f"{message} (last failure: {last_failure})"
        super().__init__(message)


class WorkloadError(ReproError):
    """Raised when a workload generator receives invalid parameters."""
