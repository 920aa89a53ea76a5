"""Crash-safe campaign tests: the durable journal, resume skipping,
kill→resume byte-identity on every backend, hang detection, poison
quarantine, cooperative queue deadlines, seeded retry jitter — and the
one supervised-worker mechanism under ``fork`` and ``subprocess``: the
reap ladder as one table, the stop primitive, the worker harness.

The tentpole assertion is the resume drill matrix: a SIGKILL'd
journaled engine, resumed from its journal, merges bytes identical to
an uninterrupted cold run — per backend, with the journal's skip count
asserted exactly.
"""

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.api import run_campaign
from repro.campaign import (
    Campaign,
    CampaignJournal,
    CampaignRunner,
    Job,
    JobResult,
    read_journal,
    register_job_kind,
    retry_delay,
    verify_resume,
)
from repro.campaign import engine
from repro.campaign.backends import (
    Attempt,
    BackendContext,
    make_backend,
)
from repro.campaign.cachedir import StoreSpec
from repro.campaign.progress import NullSink, ProgressSink
from repro.campaign.supervise import (
    Heartbeat,
    JournalReplay,
    heartbeat_interval,
)
from repro.campaign.worker import serve_attempt
from repro.errors import CampaignError, PoisonedJobError
from repro.guard.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    clear_plan,
    install_plan,
)
from repro.obs import validate_record

JOBS = tuple(
    Job(workload, "fast", "tiny")
    for workload in ("compress", "li", "go")
)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    yield
    clear_plan()


def _crash_always(job, store, obs=None):
    os._exit(CRASH_EXIT_CODE)


def _nap_supervised(job, store, obs=None):
    time.sleep(float(job.scale))
    return JobResult(job=job, status="ok")


def _nap_deaf_to_sigterm(job, store, obs=None):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    return _nap_supervised(job, store)


def _raise_base_exception(job, store, obs=None):
    raise {"SystemExit": SystemExit,
           "KeyboardInterrupt": KeyboardInterrupt}[job.scale]("stop")


register_job_kind("test-crash-always", _crash_always)
register_job_kind("test-nap-supervised", _nap_supervised)
register_job_kind("test-nap-deaf-to-sigterm", _nap_deaf_to_sigterm)
register_job_kind("test-raise-base-exception", _raise_base_exception)

#: The two backends that are one supervised-child mechanism.
PROCESS_BACKENDS = ("fork", "subprocess")


class _RecordingSink(ProgressSink):
    """Collects event kinds in emission order."""

    def __init__(self):
        self.kinds = []

    def emit(self, kind, **fields):
        self.kinds.append(kind)


class TestJournal:
    def test_roundtrip_schema_stamped_records(self, tmp_path):
        path = str(tmp_path / "c.journal")
        with CampaignJournal(path) as journal:
            journal.append("campaign-open", name="j", backend="fork",
                           jobs=["a:fast:tiny"])
            journal.append("attempt", key="a:fast:tiny", attempt=1)
        replay = read_journal(path)
        assert [r["kind"] for r in replay.records] == [
            "campaign-open", "attempt"]
        assert [r["seq"] for r in replay.records] == [0, 1]
        assert replay.torn_records == 0
        for record in replay.records:
            assert validate_record(record) == []

    def test_reopen_continues_sequence(self, tmp_path):
        path = str(tmp_path / "c.journal")
        with CampaignJournal(path) as journal:
            journal.append("campaign-open", name="j", backend="fork",
                           jobs=[])
        with CampaignJournal(path) as journal:
            assert journal.records_written == 1
            record = journal.append("campaign-end", name="j", failed=0)
        assert record["seq"] == 1
        assert read_journal(path).terminal == "campaign-end"

    def test_reader_still_accepts_cancelled_records(self, tmp_path):
        """No engine writes ``campaign-cancelled`` or a ``cancelled``
        outcome and neither is in the vocabulary, but journals already
        on disk may hold them: the reader passes over a kind it does
        not know, and the job that never ran is not skippable."""
        path = str(tmp_path / "c.journal")
        never_ran = JobResult(job=JOBS[0], status="cancelled",
                              error="cancelled before completion")
        with CampaignJournal(path) as journal:
            journal.append("campaign-open", name="j", backend="fork",
                           jobs=[JOBS[0].key])
            journal.append("outcome", key=never_ran.key,
                           status=never_ran.status, attempts=1,
                           result=never_ran)
            journal.append("campaign-cancelled", name="j", failed=1)
        replay = read_journal(path)
        assert len(replay.records) == 3 and replay.torn_records == 0
        assert replay.terminal is None
        assert replay.completed == 0

    # Torn tails and damaged frames: tests/test_framing.py, with the
    # other two users of the container.

    def test_non_journal_file_rejected(self, tmp_path):
        path = str(tmp_path / "not-a-journal")
        with open(path, "wb") as stream:
            stream.write(b"definitely not FSCJ framed data")
        with pytest.raises(CampaignError, match="not a campaign journal"):
            read_journal(path)


class TestVerifyResume:
    def test_wrong_campaign_name_rejected(self, tmp_path):
        replay = JournalReplay(path="j", name="other", job_keys=["a"])
        with pytest.raises(CampaignError, match="not 'mine'"):
            verify_resume(replay, "mine", ["a"])

    def test_job_set_mismatch_names_the_difference(self):
        replay = JournalReplay(path="j", name="mine",
                               job_keys=["a", "b"])
        with pytest.raises(CampaignError, match="missing.*c"):
            verify_resume(replay, "mine", ["a", "c"])

    def test_empty_journal_passes(self):
        """Crash before the open record landed: resume is a fresh run."""
        verify_resume(JournalReplay(path="j"), "mine", ["a"])


class TestResume:
    def test_resume_skips_completed_and_matches_bytes(self, tmp_path):
        journal = str(tmp_path / "c.journal")
        campaign = Campaign(jobs=JOBS, name="resume")
        first = CampaignRunner(workers=0, journal=journal,
                               sink=NullSink()).run(campaign)
        assert first.ok
        sink = _RecordingSink()
        resumer = CampaignRunner(workers=0, resume=journal, sink=sink)
        second = resumer.run(campaign)
        assert resumer.resumed == len(JOBS)
        assert sink.kinds.count("job-resumed") == len(JOBS)
        assert "job-start" not in sink.kinds  # nothing re-ran
        assert second.canonical_json() == first.canonical_json()

    def test_resume_after_partial_journal(self, tmp_path):
        """A journal holding only some outcomes re-runs the rest and
        still merges the uninterrupted bytes — across backends."""
        campaign = Campaign(jobs=JOBS, name="partial")
        expected = run_campaign(jobs=JOBS, workers=0,
                                name="partial").canonical_json()
        journal = str(tmp_path / "c.journal")
        with CampaignJournal(journal) as writer:
            writer.append("campaign-open", name="partial",
                          backend="fork", jobs=[j.key for j in JOBS])
            done = CampaignRunner(workers=0, sink=NullSink()).run(
                Campaign(jobs=JOBS[:1], name="seed")).results[0]
            writer.append("outcome", key=done.key, status=done.status,
                          attempts=done.attempts, result=done)
        for backend in ("fork", "subprocess", "queue"):
            # A resumed run keeps journaling into the same file, so
            # give each backend its own copy of the partial journal.
            copy = str(tmp_path / f"{backend}.journal")
            with open(journal, "rb") as src, open(copy, "wb") as dst:
                dst.write(src.read())
            resumer = CampaignRunner(workers=2, backend=backend,
                                     resume=copy, sink=NullSink())
            outcome = resumer.run(campaign)
            assert resumer.resumed == 1, backend
            assert outcome.canonical_json() == expected, backend
            # ...and the copy is now itself a complete journal.
            assert read_journal(copy).completed == len(JOBS)

    def test_journal_resume_disagreement_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="same file"):
            CampaignRunner(journal=str(tmp_path / "a"),
                           resume=str(tmp_path / "b"))

    def test_foreign_journal_rejected(self, tmp_path):
        journal = str(tmp_path / "c.journal")
        CampaignRunner(workers=0, journal=journal, sink=NullSink()).run(
            Campaign(jobs=JOBS[:1], name="first"))
        with pytest.raises(CampaignError, match="journal"):
            CampaignRunner(workers=0, resume=journal,
                           sink=NullSink()).run(
                Campaign(jobs=JOBS, name="second"))


class TestResumeDrill:
    @pytest.mark.parametrize("backend", ("fork", "subprocess", "queue"))
    def test_kill_resume_byte_identical(self, tmp_path, backend):
        """SIGKILL the journaled engine after exactly one durable
        outcome; the resumed run must skip exactly that job and merge
        bytes identical to a clean cold run."""
        from repro.guard.chaos import run_resume_drill

        report = run_resume_drill(
            workloads=["compress", "li", "go"], scale="tiny",
            workers=2, backend=backend, kill_after=1,
            work_dir=str(tmp_path))
        assert report.killed, report.exit_code
        assert report.resumed == 1
        assert report.identical
        assert report.ok

    def test_kill_after_bounds_validated(self):
        from repro.guard.chaos import run_resume_drill

        with pytest.raises(ValueError):
            run_resume_drill(workloads=["compress"], kill_after=1)


class TestPoisonQuarantine:
    def test_repeated_crasher_is_quarantined(self, tmp_path,
                                             quick_retries, monkeypatch):
        """A job that crashes its worker on every attempt must be
        isolated as ``poisoned`` at the threshold — without burning
        the full retry budget or harming its siblings."""
        poison = Job(workload="bomb", kind="test-crash-always")
        good = JOBS[0]
        monkeypatch.setattr(engine, "POISON_THRESHOLD", 2)
        runner = CampaignRunner(workers=2, retries=5, backend="fork",
                                sink=NullSink())
        outcome = runner.run(Campaign(jobs=(poison, good),
                                      name="poison"))
        bad, sibling = outcome.results
        assert bad.status == "poisoned"
        assert bad.attempts == 2  # threshold, not the retry budget
        assert "quarantined as poison" in bad.error
        assert sibling.ok

    def test_poisoned_error_type_is_informative(self):
        error = PoisonedJobError("k", 3, "worker crashed (exit code 86)")
        assert "k" in str(error) and "3" in str(error)

    def test_deterministic_failures_are_not_poison(self):
        """Only infrastructure crashes count toward quarantine; a job
        failing deterministically keeps the plain failed status."""
        outcome = run_campaign(
            jobs=(Job(workload="ghost", kind="test-does-not-exist"),),
            workers=1, backend="queue", name="notpoison")
        assert outcome.results[0].status == "failed"


def _hang_detected_and_retried(tmp_path, backend, hang_after):
    """An injected hang (worker stops heartbeating, sleeps far past
    the budget) must be detected as *hung* — not timed out — the
    worker replaced, and the retry succeed."""
    job = JOBS[0]
    install_plan(FaultPlan(hang_job=job.key, hang_seconds=30.0,
                           scratch=str(tmp_path)))
    runner = CampaignRunner(workers=1, retries=2, backend=backend, hang_after=hang_after,
                            sink=NullSink())
    outcome = runner.run(Campaign(jobs=(job,), name="hang"))
    clear_plan()
    assert outcome.ok
    assert outcome.results[0].attempts == 2
    assert runner.backend_metrics["hangs"] == 1
    clean = run_campaign(jobs=(job,), workers=0, name="hang")
    assert outcome.canonical_json() == clean.canonical_json()


def _slow_job_is_not_a_hang(backend, job, hang_after):
    """A heartbeating slow job outlives the hang budget."""
    runner = CampaignRunner(workers=1, backend=backend,
                            hang_after=hang_after, sink=NullSink())
    outcome = runner.run(Campaign(jobs=(job,), name="slow"))
    assert outcome.ok
    assert runner.backend_metrics["hangs"] == 0
    return outcome.results[0]


class TestHangDetection:
    # One drill, backend as an input. The two fork cases keep the ids
    # they have always had; a spawned worker's budget also has to cover
    # its interpreter start-up, hence the longer one there (the chaos
    # drill's 1.5 s).
    def test_fork_worker_hang_detected_and_retried(self, tmp_path,
                                                   quick_retries):
        _hang_detected_and_retried(tmp_path, "fork", hang_after=0.6)

    def test_subprocess_worker_hang_detected_and_retried(
            self, tmp_path, quick_retries):
        _hang_detected_and_retried(tmp_path, "subprocess", hang_after=1.5)

    def test_heartbeat_interval_scales_with_budget(self):
        assert heartbeat_interval(None) is None
        assert heartbeat_interval(4.0) == 1.0
        assert heartbeat_interval(40.0) == 1.0  # capped
        assert heartbeat_interval(0.04) == 0.02  # floored

    def test_slow_job_is_not_a_hang(self):
        _slow_job_is_not_a_hang(
            "fork", Job(workload="slow", kind="test-nap-supervised",
                        scale="0.8"), hang_after=0.3)

    def test_slow_job_is_not_a_hang_under_subprocess(self):
        # A spawned worker cannot see test-registered kinds, so the
        # slow job is a real simulation (about 2 s on the reference
        # host against a 1 s budget).
        result = _slow_job_is_not_a_hang(
            "subprocess", Job("tomcatv", "baseline", "train"),
            hang_after=1.0)
        if result.host_seconds <= 1.0:
            pytest.skip("host too fast: the job fit inside the budget")


def _drive(backend, attempt):
    """What the engine does for one attempt: submit, wait, reap."""
    backend.submit(attempt)
    give_up = time.monotonic() + 60.0
    while time.monotonic() < give_up:
        backend.wait(0.05)
        outcomes = backend.reap(time.monotonic())
        if outcomes:
            return outcomes[0]
    raise AssertionError(f"no outcome for {attempt.job.key} in 60 s")


class _BrokenConnection:
    """A receive end on which a result never arrives whole."""

    def __init__(self, error):
        self.error = error

    def poll(self):
        return True

    def recv(self):
        raise self.error

    def close(self):
        pass


class TestReapLadder:
    """The ladder is one table: every failure kind is the same
    ``(failure_kind, message, counter)`` on both process backends —
    the test that fails if a second ladder ever comes back."""

    LADDER = {
        # kind: (FaultPlan injection, timeout, hang_after, message, counter)
        "crash": ("crash_job", None, None,
                  f"worker crashed (exit code {CRASH_EXIT_CODE})",
                  "crashes"),
        "timeout": ("hang_job", 1.5, None,
                    "timed out after 1.5s", "timeouts"),
        "hang": ("hang_job", None, 1.5,
                 "worker hung (no heartbeat for 1.5s)", "hangs"),
    }

    @pytest.mark.parametrize("backend", PROCESS_BACKENDS)
    @pytest.mark.parametrize("kind", sorted(LADDER))
    def test_same_triple_on_both_backends(self, tmp_path, backend, kind):
        injection, timeout, hang_after, message, counter = self.LADDER[kind]
        job = JOBS[0]
        install_plan(FaultPlan(scratch=str(tmp_path), hang_seconds=30.0,
                               **{injection: job.key}))
        executor = make_backend(backend)
        executor.start(BackendContext(workers=1, timeout=timeout,
                                      hang_after=hang_after))
        try:
            deadline = (time.monotonic() + timeout
                        if timeout is not None else None)
            outcome = _drive(executor, Attempt(
                index=0, job=job, attempt=1, deadline=deadline))
            assert (outcome.failure_kind, outcome.failure) == (
                kind, message)
            assert outcome.result is None
            counters = executor.metrics()
            assert [(name, counters[name])
                    for name in ("crashes", "timeouts", "hangs")
                    if counters[name]] == [(counter, 1)]
            # The injection was once-only: the same backend runs the
            # retry to a result.
            retry = _drive(executor, Attempt(index=0, job=job, attempt=2))
            assert retry.failure is None and retry.result.ok
        finally:
            executor.shutdown()

    @pytest.mark.parametrize("backend", PROCESS_BACKENDS)
    @pytest.mark.parametrize("error", (
        EOFError(), OSError("broken pipe"),
        pickle.UnpicklingError("truncated")), ids=lambda e: type(e).__name__)
    def test_result_that_does_not_arrive_whole_is_one_crash(
            self, backend, error):
        """EOF, an OS error and an undecodable pickle while receiving
        are all one retried ``crash`` — never an exception out of
        ``reap`` — and the worker is SIGKILLed and reaped."""
        from repro.campaign.backends.process import _Slot

        executor = make_backend(backend)
        executor.start(BackendContext(workers=1))
        sleeper = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(30,))
        sleeper.start()
        attempt = Attempt(index=0, job=JOBS[0], attempt=1)
        executor._slots.append(_Slot(sleeper, _BrokenConnection(error),
                                     attempt=attempt))
        (outcome,) = executor.reap(time.monotonic())
        assert outcome.attempt is attempt and outcome.result is None
        assert outcome.failure_kind == "crash"
        assert outcome.failure == (
            f"worker crashed (exit code {-signal.SIGKILL})")
        assert executor.metrics()["crashes"] == 1
        assert executor.active() == 0 and not sleeper.is_alive()
        assert executor.reap(time.monotonic()) == []

    def test_deadline_holds_against_a_child_deaf_to_sigterm(self):
        """The stop primitive is SIGKILL: a job that ignores SIGTERM
        and sleeps 8 s is back as timed out well inside 3 s."""
        job = Job(workload="deaf", kind="test-nap-deaf-to-sigterm",
                  scale="8")
        started = time.monotonic()
        outcome = run_campaign(jobs=(job,), workers=1, timeout=0.5,
                               retries=0, backend="fork", name="deaf")
        elapsed = time.monotonic() - started
        assert outcome.results[0].status == "failed"
        assert outcome.results[0].error == "timed out after 0.5s"
        assert elapsed < 3.0, elapsed


class TestWorkerHarness:
    """``serve_attempt`` over an in-process pipe, called the way the
    forked child and the stdio worker's loop both call it."""

    @staticmethod
    def _serve(job, heartbeat=None):
        receiver, sender = multiprocessing.Pipe(duplex=False)
        serve_attempt(sender, "test", job=job, store_spec=StoreSpec(),
                      heartbeat=heartbeat)
        time.sleep(0.1)  # a beat after the result would land by now
        messages = []
        while receiver.poll():
            messages.append(receiver.recv())
        return messages

    @pytest.mark.parametrize("name", ("SystemExit", "KeyboardInterrupt"))
    def test_base_exception_still_sends_one_failed_result(self, name):
        job = Job(workload="boom", kind="test-raise-base-exception",
                  scale=name)
        (result,) = self._serve(job)
        assert result.status == "failed" and result.job == job
        assert result.error == f"worker error: {name}: stop"

    def test_heartbeats_come_first_and_stop_before_the_result(self):
        job = Job(workload="slow", kind="test-nap-supervised",
                  scale="0.3")
        *beats, result = self._serve(job, heartbeat=0.02)
        assert beats and all(isinstance(b, Heartbeat) for b in beats)
        assert result.ok

    def test_injected_hang_silences_the_heartbeats(self, monkeypatch):
        from repro.guard import faults

        monkeypatch.setattr(faults, "_HANG_ACTIVE", True)
        job = Job(workload="slow", kind="test-nap-supervised",
                  scale="0.3")
        (result,) = self._serve(job, heartbeat=0.02)
        assert result.ok


class TestRetryJitter:
    def test_deterministic_across_calls(self):
        assert retry_delay(0.5, "a:fast:tiny", 2) == retry_delay(
            0.5, "a:fast:tiny", 2)

    def test_spreads_distinct_jobs(self):
        delays = {retry_delay(0.5, f"job-{i}", 1) for i in range(16)}
        assert len(delays) == 16

    def test_bounded_exponential_envelope(self):
        for attempt in (1, 2, 3):
            base = 0.25 * 2 ** (attempt - 1)
            delay = retry_delay(0.25, "k", attempt)
            assert base <= delay < 1.5 * base
