"""Campaign job model — declarative units of simulation work.

A :class:`Job` names one measurement: workload × simulator × scale,
optionally under non-default :class:`ProcessorParams` (labelled by
``variant``) or a bounded-cache :class:`PolicySpec`. Jobs are frozen,
picklable, and carry a deterministic string :attr:`Job.key` so merged
campaign output can be keyed and ordered independently of completion
order.

A :class:`JobResult` is what comes back: the simulation's
:class:`~repro.sim.results.SimulationResult` (or a :class:`NativeRun`
for functional-execution timing jobs), retry/wall-time metrics, and a
:meth:`JobResult.canonical` view that contains **only**
host-independent fields — the payload the bit-identical invariant is
asserted over (host seconds, retry counts, and memoization hit rates
legitimately differ between runs and live in
:meth:`JobResult.metrics_record` instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.memo.policies import ReplacementPolicy, make_policy
from repro.obs.schema import JOB_METRICS_SCHEMA, SCHEMA_KEY
from repro.options import HostOptions
from repro.sim.results import SimulationResult
from repro.uarch.params import ProcessorParams

#: Simulator names a job may request. ``native`` times plain
#: functional execution (the paper's "original program" row).
SIMULATORS = ("fast", "slow", "baseline", "native")

_POLICY_KINDS = ("flush", "copying-gc", "generational-gc")


@dataclass
class NativeRun:
    """Plain functional execution — the 'original program' row."""

    seconds: float
    instructions: int
    output: List[int]


@dataclass(frozen=True)
class PolicySpec:
    """Declarative replacement policy: picklable, key-stable.

    Campaign jobs cross process boundaries, so they carry the *recipe*
    for a policy rather than a stateful policy object; the worker
    builds the instance and reports its statistics (collections,
    survival rates) back through ``JobResult.metrics``.
    """

    kind: str  #: "flush" | "copying-gc" | "generational-gc"
    limit_bytes: int

    def __post_init__(self) -> None:
        if self.kind not in _POLICY_KINDS:
            raise ValueError(
                f"unknown policy kind {self.kind!r}; "
                f"choose from {sorted(_POLICY_KINDS)}"
            )
        if self.limit_bytes <= 0:
            raise ValueError("policy limit must be positive")

    @property
    def token(self) -> str:
        """Key fragment, e.g. ``flush@4096``."""
        return f"{self.kind}@{self.limit_bytes}"

    def build(self) -> ReplacementPolicy:
        """Instantiate the policy for one run."""
        return make_policy(self.kind, self.limit_bytes)


@dataclass(frozen=True)
class Job:
    """One schedulable measurement in a campaign."""

    workload: str
    simulator: str = "fast"
    scale: str = "test"
    params: Optional[ProcessorParams] = None
    policy: Optional[PolicySpec] = None
    #: Label distinguishing jobs that differ only in ``params``
    #: (architecture sweeps); part of the key.
    variant: str = ""
    #: Executor registered in :mod:`repro.campaign.worker`. The default
    #: runs a simulator; tests register fault-injecting kinds.
    kind: str = "simulate"
    #: Host-side speed and audit knobs (``fast`` jobs only). Never read
    #: by :attr:`key`, :meth:`JobResult.canonical` or ``run_signature``:
    #: none of them may change canonical results, so two jobs that
    #: differ only here are the same measurement.
    host: HostOptions = HostOptions()

    def __post_init__(self) -> None:
        if self.kind == "simulate" and self.simulator not in SIMULATORS:
            raise ValueError(
                f"unknown simulator {self.simulator!r}; "
                f"choose from {SIMULATORS}"
            )

    @property
    def key(self) -> str:
        """Deterministic identity used for merging and caching results.

        ``params`` is deliberately not folded into the key — jobs with
        non-default parameters must carry a distinguishing ``variant``
        label (campaign construction enforces key uniqueness).
        """
        parts = [self.workload, self.simulator, self.scale]
        if self.variant:
            parts.append(self.variant)
        if self.policy is not None:
            parts.append(self.policy.token)
        return ":".join(parts)


@dataclass
class JobResult:
    """Outcome of one job, including retry and timing metrics."""

    job: Job
    status: str  #: "ok" | "failed" | "poisoned"
    attempts: int = 1
    #: Wall-clock seconds of the successful attempt's execution.
    host_seconds: float = 0.0
    result: Optional[SimulationResult] = None
    native: Optional[NativeRun] = None
    error: Optional[str] = None
    #: Kind-specific extras (policy collections, survival rates, …).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Lane label of the worker that produced the final attempt
    #: (``fork-<pid>`` / ``spawn-<pid>`` / ``queue-<i>``) — host-side
    #: identity for metrics and traces, never canonical.
    worker: Optional[str] = None
    #: In-transit worker telemetry blob
    #: (``repro.obs/worker-telemetry/v1``, see :mod:`repro.obs.worker`).
    #: Set by observed workers, popped off by the engine at collect
    #: time and merged into the campaign observer — it never reaches
    #: :meth:`canonical` or :meth:`metrics_record`, and stays None
    #: (costing nothing on the wire) when observability is off.
    telemetry: Optional[Dict[str, object]] = None

    @property
    def key(self) -> str:
        return self.job.key

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def canonical(self) -> Dict[str, object]:
        """Host-independent payload — identical across worker counts,
        warm/cold caches, and retries (the bit-identical invariant)."""
        record: Dict[str, object] = {"key": self.key, "status": self.status}
        if self.result is not None:
            data = self.result.as_dict()
            data.pop("host_seconds", None)
            record["result"] = data
        if self.native is not None:
            record["native"] = {
                "instructions": self.native.instructions,
                "output": list(self.native.output),
            }
        if self.error is not None:
            record["error"] = self.error
        return record

    def metrics_record(self) -> Dict[str, object]:
        """Full per-job JSON-lines record (host timing included).

        Records are schema-versioned (``repro.obs/…`` conventions, see
        docs/campaign.md § "Per-job metrics schema") and validatable
        with ``python -m repro.obs``.
        """
        record: Dict[str, object] = {
            SCHEMA_KEY: JOB_METRICS_SCHEMA,
            "key": self.key,
            "workload": self.job.workload,
            "simulator": self.job.simulator,
            "scale": self.job.scale,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.attempts - 1,
            "host_seconds": self.host_seconds,
        }
        if self.job.variant:
            record["variant"] = self.job.variant
        if self.job.policy is not None:
            record["policy"] = self.job.policy.token
        if self.worker is not None:
            record["worker"] = self.worker
        if self.result is not None:
            record["cycles"] = self.result.cycles
            record["instructions"] = self.result.instructions
            record["memo"] = self.result.memo.as_dict()
        if self.native is not None:
            record["instructions"] = self.native.instructions
            record["native_seconds"] = self.native.seconds
        if self.error is not None:
            record["error"] = self.error
        for name in sorted(self.metrics):
            record[name] = self.metrics[name]
        return record
