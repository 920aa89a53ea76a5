"""Campaign engine tests: determinism, crash isolation, retry/timeout.

The fault-injection tests register extra job kinds in this (parent)
process; the engine's ``fork`` start method makes them visible inside
worker subprocesses without any pickling of callables.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.api import run_campaign
from repro.campaign import (
    Campaign,
    CampaignRunner,
    Job,
    JobResult,
    read_journal,
    register_job_kind,
)
from repro.campaign.progress import ProgressSink

JOBS = tuple(
    Job(workload, simulator, "tiny")
    for workload in ("compress", "go")
    for simulator in ("fast", "slow")
)


class TestDeterministicMerge:
    def test_workers_do_not_change_canonical_output(self):
        """The headline invariant: workers=0, 1, and 4 merge
        byte-identically."""
        documents = []
        for workers in (0, 1, 4):
            outcome = run_campaign(jobs=JOBS, workers=workers,
                                   name="det")
            documents.append(outcome.canonical_json())
        assert documents[0] == documents[1] == documents[2]

    def test_results_in_campaign_order(self):
        outcome = run_campaign(jobs=JOBS, workers=4, name="order")
        assert [r.key for r in outcome.results] == [j.key for j in JOBS]

    def test_lookup_and_status(self):
        outcome = run_campaign(jobs=JOBS[:2], workers=2, name="lookup")
        assert "compress:fast:tiny" in outcome
        assert outcome["compress:fast:tiny"].ok
        assert outcome.ok and outcome.failed == []
        assert len(outcome) == 2

    def test_metrics_jsonl_one_line_per_job(self):
        outcome = run_campaign(jobs=JOBS[:2], workers=2, name="metrics")
        lines = outcome.metrics_jsonl().splitlines()
        # One record per job plus the closing campaign-metrics record.
        assert len(lines) == 3
        for line in lines[:2]:
            record = json.loads(line)
            assert record["status"] == "ok"
            assert record["host_seconds"] > 0
            assert record["retries"] == 0
        closing = json.loads(lines[-1])
        assert closing["schema"] == "repro.campaign/campaign-metrics/v1"
        assert closing["jobs"] == 2 and closing["failed"] == 0

    def test_metrics_jsonl_schema_versioned_and_valid(self):
        """Satellite: per-job metric records carry the v3 schema stamp,
        the stream closes with a campaign-metrics record, and the whole
        stream validates under `python -m repro.obs` (docs/campaign.md)."""
        from repro.obs.schema import (
            CAMPAIGN_METRICS_SCHEMA,
            JOB_METRICS_SCHEMA,
            SCHEMA_KEY,
            validate_lines,
        )

        outcome = run_campaign(jobs=JOBS[:2], workers=0, name="schema")
        lines = outcome.metrics_jsonl().splitlines()
        assert validate_lines(lines) == []
        for line in lines[:-1]:
            record = json.loads(line)
            assert record[SCHEMA_KEY] == JOB_METRICS_SCHEMA
            assert record["cycles"] > 0
        closing = json.loads(lines[-1])
        assert closing[SCHEMA_KEY] == CAMPAIGN_METRICS_SCHEMA
        assert closing["name"] == "schema"


def _crash_once(job, store, obs=None):
    marker = os.path.join(job.workload, "crashed-once")
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("x")
        os._exit(7)
    return JobResult(job=job, status="ok", metrics={"attempt2": True})


def _always_crash(job, store, obs=None):
    os._exit(9)


def _sleep_forever(job, store, obs=None):
    import time

    time.sleep(60)


def _raise_value_error(job, store, obs=None):
    raise ValueError("deterministic boom")


register_job_kind("test-crash-once", _crash_once)
register_job_kind("test-always-crash", _always_crash)
register_job_kind("test-sleep", _sleep_forever)
register_job_kind("test-raise", _raise_value_error)


class TestFaultTolerance:
    def test_crash_is_retried_and_recovers(self, tmp_path, quick_retries):
        # job.workload carries the scratch directory for the marker.
        job = Job(workload=str(tmp_path), kind="test-crash-once")
        runner = CampaignRunner(workers=2, retries=2)
        outcome = runner.run(Campaign(jobs=(job,), name="crash"))
        assert outcome.ok
        assert outcome.results[0].attempts == 2
        assert outcome.results[0].metrics["attempt2"] is True

    def test_crash_budget_exhausted_fails_run_survives(self, quick_retries):
        jobs = (
            Job(workload="doomed", kind="test-always-crash"),
            Job("compress", "fast", "tiny"),
        )
        runner = CampaignRunner(workers=2, retries=1)
        outcome = runner.run(Campaign(jobs=jobs, name="budget"))
        doomed = outcome["doomed:fast:test"]
        assert not doomed.ok
        assert doomed.attempts == 2  # 1 try + 1 retry
        # Depending on timing the crash is noticed as a pipe EOF or as
        # a dead process; both are infrastructure failures.
        assert "worker" in doomed.error
        # Crash isolation: the healthy job still completed.
        assert outcome["compress:fast:tiny"].ok
        assert not outcome.ok and len(outcome.failed) == 1

    def test_timeout_kills_and_reports(self, quick_retries):
        job = Job(workload="sleepy", kind="test-sleep")
        runner = CampaignRunner(workers=1, timeout=0.3, retries=1)
        outcome = runner.run(Campaign(jobs=(job,), name="timeout"))
        assert not outcome.ok
        assert outcome.results[0].attempts == 2
        assert "timed out after 0.3s" in outcome.results[0].error

    def test_exception_is_deterministic_failure_no_retry(
            self, quick_retries):
        job = Job(workload="raiser", kind="test-raise")
        runner = CampaignRunner(workers=1, retries=3)
        outcome = runner.run(Campaign(jobs=(job,), name="raise"))
        assert not outcome.ok
        assert outcome.results[0].attempts == 1
        assert "ValueError: deterministic boom" in outcome.results[0].error

    def test_unknown_kind_fails_cleanly(self):
        outcome = run_campaign(
            jobs=[Job(workload="x", kind="no-such-kind")],
            workers=0, name="unknown")
        assert not outcome.ok
        assert "unknown job kind" in outcome.results[0].error


class TestRunnerValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(workers=-1)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(retries=-1)


_JOB_THREADS = []


def _record_thread(job, store, obs=None):
    _JOB_THREADS.append(threading.current_thread())
    return JobResult(job=job, status="ok")


register_job_kind("test-record-thread", _record_thread)


class _InterruptingSink(ProgressSink):
    """Records event kinds; sends this process one SIGINT on the
    *nth* ``job-start`` (``nth=0``: never)."""

    def __init__(self, nth):
        self.nth = nth
        self.kinds = []

    def emit(self, kind, **fields):
        self.kinds.append(kind)
        if kind == "job-start" and self.kinds.count(kind) == self.nth:
            os.kill(os.getpid(), signal.SIGINT)


def _open_files():
    fd_dir = "/proc/self/fd"
    return {os.path.realpath(os.path.join(fd_dir, fd))
            for fd in os.listdir(fd_dir)}


class TestBlockingCaller:
    def test_serial_jobs_run_on_the_callers_thread(self):
        del _JOB_THREADS[:]
        threads_before = threading.active_count()
        outcome = run_campaign(
            jobs=[Job(workload=f"t{i}", kind="test-record-thread")
                  for i in range(3)],
            workers=0, name="inline")
        assert outcome.ok
        assert _JOB_THREADS == [threading.current_thread()] * 3
        assert threading.active_count() == threads_before

    def _assert_stopped(self, sink):
        assert multiprocessing.active_children() == []
        assert not [thread.name for thread in threading.enumerate()
                    if thread.name.startswith("campaign-")]
        seen = len(sink.kinds)
        time.sleep(1.0)
        assert len(sink.kinds) == seen, sink.kinds[seen:]

    def test_interrupt_stops_the_campaign(self):
        """Ctrl-C during ``run_campaign`` reaches the engine: the
        in-flight worker is torn down and nothing runs on behind the
        ``KeyboardInterrupt`` the caller sees."""
        sink = _InterruptingSink(nth=1)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(jobs=JOBS, workers=1, progress=sink,
                         name="interrupt")
        self._assert_stopped(sink)
        assert "campaign-end" not in sink.kinds

    def test_interrupted_journal_is_closed_and_resumes(self, tmp_path):
        journal = str(tmp_path / "c.journal")
        sink = _InterruptingSink(nth=2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(jobs=JOBS, workers=1, progress=sink,
                         journal=journal, name="interrupt")
        self._assert_stopped(sink)
        assert journal not in _open_files()
        replay = read_journal(journal)
        assert replay.terminal is None
        assert replay.torn_records == 0
        assert replay.completed == 1
        resumed_sink = _InterruptingSink(nth=0)
        resumed = run_campaign(jobs=JOBS, workers=1, resume=journal,
                               progress=resumed_sink, name="interrupt")
        assert resumed_sink.kinds.count("job-resumed") == 1
        clean = run_campaign(jobs=JOBS, workers=0, name="interrupt")
        assert resumed.canonical_json() == clean.canonical_json()
        assert read_journal(journal).terminal == "campaign-end"
