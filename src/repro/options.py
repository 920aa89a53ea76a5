"""Host-side knobs — one value from the API/CLI down to ``FastSim``.

The paper's contract is that fast-forwarding changes host time and
nothing else. Every knob that only trades host time (or adds host-side
checking) therefore lives here, in one frozen, picklable value that
``Job.key``, ``JobResult.canonical()`` and ``run_signature`` never
read: a :class:`~repro.campaign.jobs.Job` carries it as its ``host``
field, ``repro.api`` takes it as ``host=``, the CLI generates its
flags from :func:`dataclasses.fields` (help text from the field
metadata), and the single consumer is
``FastSim(..., **host.fastsim_kwargs())``. All knobs apply to ``fast``
runs only and are bit-identical to their defaults (docs/performance.md,
docs/robustness.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional


def _knob(default, text: str):
    return field(default=default, metadata={"help": text})


@dataclass(frozen=True)
class HostOptions:
    """Speed tiers and online auditing for one ``fast`` run."""

    turbo: bool = _knob(
        True, "compile hot replay chains to flat segments")
    turbo_threshold: Optional[int] = _knob(
        None, "traversals before a chain is compiled (default 8; see "
              "docs/performance.md)")
    threaded_frontend: bool = _knob(
        True, "run generated-code blocks in the speculative frontend")
    l1_filter: bool = _knob(
        True, "use the direct-mapped L1 filter in the memory hierarchy")
    audit_every: Optional[int] = _knob(
        None, "audit every Nth replay episode against detailed "
              "re-execution (deterministically sampled; episode 0 is "
              "audited at every rate, so a persisted-warm run, often one "
              "episode, is audited whole; see docs/robustness.md)")

    def __post_init__(self) -> None:
        if self.turbo_threshold is not None and self.turbo_threshold < 1:
            raise ValueError("turbo threshold must be >= 1")
        if self.audit_every is not None and self.audit_every < 1:
            raise ValueError("audit_every must be >= 1")

    def fastsim_kwargs(self) -> Dict[str, object]:
        """The keywords :class:`~repro.sim.fastsim.FastSim` takes: one
        per field."""
        return {knob.name: getattr(self, knob.name)
                for knob in fields(self)}
