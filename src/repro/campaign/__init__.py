"""Parallel campaign execution with warm-start p-action caches.

The paper's evaluation shape — the same workload suite, under several
simulators, run many times — is embarrassingly parallel and highly
cache-reusable. This package turns that shape into a first-class
object:

* :class:`Job` / :class:`PolicySpec` — declarative work units;
* :class:`Campaign` — an ordered, unique-keyed set of jobs;
* :class:`CampaignRunner` — pool execution over the pluggable
  :class:`ExecutorBackend` it was built with (``fork`` /
  ``subprocess`` / ``queue``) with per-job timeout, bounded retry +
  backoff, and crash isolation on the process-based backends;
* :class:`CampaignResult` — deterministically merged results
  (byte-identical across worker counts, backends, and cache
  temperatures) plus JSON-lines metrics;
* :class:`CacheStore` — the shared on-disk p-action cache directory,
  content-addressed by binding signature, so repeated campaigns start
  warm on every backend;
* :class:`ProgressSink` — one progress protocol (text / JSON-lines /
  silent);
* :class:`CampaignJournal` / :func:`read_journal` /
  :func:`verify_resume` — the durable crash journal
  (``repro.campaign/journal/v1``) behind
  ``CampaignRunner(journal=... / resume=...)``: a killed run resumes
  with completed jobs skipped and the merged payload byte-identical
  to an uninterrupted run (see docs/robustness.md).

:func:`repro.api.run_campaign` is the front door: it builds the
:class:`Campaign` and the :class:`CampaignRunner` and runs one on the
other. See ``docs/campaign.md`` for the engine's semantics and the
cache directory layout, and ``docs/distributed.md`` for the backend
capability matrix.
"""

from repro.campaign.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    ExecutorBackend,
    make_backend,
    validate_backend,
)
from repro.campaign.cachedir import (
    CacheStore,
    StoreSpec,
    make_store,
)
from repro.campaign.engine import (
    Campaign,
    CampaignResult,
    CampaignRunner,
)
from repro.campaign.jobs import (
    Job,
    JobResult,
    NativeRun,
    PolicySpec,
    SIMULATORS,
)
from repro.campaign.progress import (
    JsonlSink,
    NullSink,
    ProgressSink,
    TextSink,
    make_sink,
)
from repro.campaign.supervise import (
    CampaignJournal,
    JournalReplay,
    heartbeat_interval,
    read_journal,
    retry_delay,
    verify_resume,
)
from repro.campaign.worker import execute_job, register_job_kind

__all__ = [
    "SIMULATORS",
    "Job",
    "JobResult",
    "NativeRun",
    "PolicySpec",
    "Campaign",
    "CampaignResult",
    "CampaignRunner",
    "CacheStore",
    "StoreSpec",
    "make_store",
    "CampaignJournal",
    "JournalReplay",
    "read_journal",
    "verify_resume",
    "retry_delay",
    "heartbeat_interval",
    "ExecutorBackend",
    "make_backend",
    "validate_backend",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "ProgressSink",
    "TextSink",
    "JsonlSink",
    "NullSink",
    "make_sink",
    "execute_job",
    "register_job_kind",
]
