"""``HostOptions`` — host knobs change host time and nothing else.

Everything here iterates ``dataclasses.fields(HostOptions)``, so a
knob added tomorrow is covered the day it is added: it must stay out of
``Job.key``, the run signature, the canonical document and the ``.fspc``
bytes; it must reach ``FastSim``; and it must have a CLI flag.
"""

import base64
import dataclasses
import inspect
import os
import pickle

import pytest

from repro.api import run_campaign
from repro.campaign import Job, worker
from repro.cli import _host_from_args, build_parser, main
from repro.errors import CampaignUsageError
from repro.options import HostOptions
from repro.sim.fastsim import FastSim

KNOBS = dataclasses.fields(HostOptions)
KNOB_IDS = [knob.name for knob in KNOBS]
WORKLOADS = ("compress", "mgrid")


def _variant(knob) -> HostOptions:
    """Defaults, except a valid non-default value for *knob*."""
    if isinstance(knob.default, bool):
        value = not knob.default
    else:
        value = (knob.default or 0) + 2
    return dataclasses.replace(HostOptions(), **{knob.name: value})


def _run(host, cache_dir):
    """(job keys, canonical document, {file name: bytes} of the .fspc
    files) for the two workloads under *host*. The file name is the
    run signature in hex."""
    jobs = [Job(name, "fast", "tiny", host=host) for name in WORKLOADS]
    outcome = run_campaign(jobs=jobs, workers=0, cache_dir=str(cache_dir),
                           progress="silent")
    assert outcome.ok
    files = {}
    for name in sorted(os.listdir(cache_dir)):
        if name.endswith(".fspc"):
            with open(os.path.join(cache_dir, name), "rb") as stream:
                files[name] = stream.read()
    assert len(files) == len(WORKLOADS)
    return [job.key for job in jobs], outcome.canonical_json(), files


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    return _run(HostOptions(), tmp_path_factory.mktemp("default"))


class TestNeverAKeyOrAFile:
    @pytest.mark.parametrize("knob", KNOBS, ids=KNOB_IDS)
    def test_knob_changes_no_key_signature_payload_or_pcache(
            self, knob, default_run, tmp_path):
        assert _run(_variant(knob), tmp_path) == default_run

    def test_jobs_differing_only_in_host_are_one_measurement(self):
        plain = Job("compress", "fast", "tiny")
        for knob in KNOBS:
            assert Job("compress", "fast", "tiny",
                       host=_variant(knob)).key == plain.key


class TestOneConsumer:
    def test_keywords_are_fastsim_parameters(self):
        accepted = set(inspect.signature(FastSim.__init__).parameters)
        assert set(HostOptions().fastsim_kwargs()) <= accepted

    @pytest.mark.parametrize("knob", KNOBS, ids=KNOB_IDS)
    def test_every_knob_reaches_fastsim(self, knob):
        assert (_variant(knob).fastsim_kwargs()
                != HostOptions().fastsim_kwargs())

    def test_threshold_is_its_own_keyword(self):
        kwargs = HostOptions(turbo=False,
                             turbo_threshold=3).fastsim_kwargs()
        assert kwargs["turbo"] is False
        assert kwargs["turbo_threshold"] == 3

    def test_frozen_and_picklable(self):
        host = HostOptions(audit_every=4, l1_filter=False)
        assert pickle.loads(pickle.dumps(host)) == host
        with pytest.raises(dataclasses.FrozenInstanceError):
            host.turbo = False


class TestCliFlags:
    @staticmethod
    def _parse(command, flags):
        argv = {"run": ["run", "compress"], "campaign": ["campaign"]}
        return _host_from_args(
            build_parser().parse_args(argv[command] + flags))

    @pytest.mark.parametrize("command", ["run", "campaign"])
    @pytest.mark.parametrize("knob", KNOBS, ids=KNOB_IDS)
    def test_generated_flag_round_trips(self, knob, command):
        wanted = _variant(knob)
        flag = knob.name.replace("_", "-")
        if isinstance(knob.default, bool):
            flags = [f"--no-{flag}"]
        else:
            flags = [f"--{flag}", str(getattr(wanted, knob.name))]
        assert self._parse(command, flags) == wanted

    @pytest.mark.parametrize("command", ["run", "campaign"])
    def test_no_flags_is_the_default(self, command):
        assert self._parse(command, []) == HostOptions()

    def test_guard_is_audit_every_one(self):
        assert self._parse("run", ["--guard"]).audit_every == 1
        assert self._parse(
            "run", ["--guard", "--audit-every", "3"]).audit_every == 3

    def test_positive_turbo_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "compress", "--turbo"])


class TestCampaignOverride:
    CUSTOM = HostOptions(turbo=False, audit_every=2)

    def _jobs(self):
        return [Job("compress", "fast", "tiny", host=self.CUSTOM),
                Job("compress", "slow", "tiny")]

    def test_host_none_leaves_each_jobs_own_value(self):
        outcome = run_campaign(jobs=self._jobs(), workers=0, host=None,
                               progress="silent")
        assert [r.job.host for r in outcome.results] == [
            self.CUSTOM, HostOptions()]
        assert outcome.results[0].metrics["audits"] > 0

    def test_host_replaces_the_fast_jobs_value_only(self):
        imposed = HostOptions(l1_filter=False)
        outcome = run_campaign(jobs=self._jobs(), workers=0,
                               host=imposed, progress="silent")
        assert [r.job.host for r in outcome.results] == [
            imposed, HostOptions()]
        assert "audits" not in outcome.results[0].metrics


#: ``Job("compress", "fast", "tiny", host=HostOptions(turbo_threshold=0))``
#: pickled (protocol 2) by the commit before ``HostOptions`` validated
#: its values and before ``Job`` lost its always-None ``backend`` field.
_OLD_JOB_PICKLE = base64.b64decode(
    "gAJjcmVwcm8uY2FtcGFpZ24uam9icwpKb2IKcQApgXEBfXECKFgIAAAAd29y"
    "a2xvYWRxA1gIAAAAY29tcHJlc3NxBFgJAAAAc2ltdWxhdG9ycQVYBAAAAGZh"
    "c3RxBlgFAAAAc2NhbGVxB1gEAAAAdGlueXEIWAYAAABwYXJhbXNxCU5YBgAA"
    "AHBvbGljeXEKTlgHAAAAdmFyaWFudHELWAAAAABxDFgEAAAAa2luZHENWAgA"
    "AABzaW11bGF0ZXEOWAQAAABob3N0cQ9jcmVwcm8ub3B0aW9ucwpIb3N0T3B0"
    "aW9ucwpxECmBcRF9cRIoWAUAAAB0dXJib3ETiFgPAAAAdHVyYm9fdGhyZXNo"
    "b2xkcRRLAFgRAAAAdGhyZWFkZWRfZnJvbnRlbmRxFYhYCQAAAGwxX2ZpbHRl"
    "cnEWiFgLAAAAYXVkaXRfZXZlcnlxF05YCgAAAGF1ZGl0X3NlZWRxGEsAdWJY"
    "BwAAAGJhY2tlbmRxGU51Yi4="
)


class TestValidation:
    @pytest.mark.parametrize("field", ["turbo_threshold", "audit_every"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_values_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=">= 1"):
            HostOptions(**{field: value})

    def test_journaled_jobs_from_older_runs_still_load(self):
        """Unpickling runs no ``__post_init__``: a journal written
        before the checks existed replays, stray field and all."""
        job = pickle.loads(_OLD_JOB_PICKLE)
        assert job == dataclasses.replace(
            Job("compress", "fast", "tiny"), host=job.host)
        assert job.key == "compress:fast:tiny"
        assert job.host.turbo_threshold == 0

    @pytest.mark.parametrize("flags", [
        ["--workers", "-1"],
        ["--retries", "-1"],
        ["--hang-after", "0"],
        ["--journal", "a.journal", "--resume", "b.journal"],
        ["--turbo-threshold", "0"],
        ["--audit-every", "0"],
    ], ids=lambda flags: flags[0])
    def test_bad_campaign_value_is_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["campaign", "--scale", "tiny", "--workloads",
                  "compress", "--simulators", "fast", "--quiet"] + flags)
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert "FAILED" not in captured.out

    def test_bad_run_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["run", "compress", "--scale", "tiny",
                  "--turbo-threshold", "0"])
        assert caught.value.code == 2
        assert "turbo threshold must be >= 1" in capsys.readouterr().err


class TestResumeRefusal:
    """A ``--resume`` file that is not this campaign's journal is found
    before any job runs and reported like a bad option value; what goes
    wrong *while* jobs run is never turned into a usage error."""

    CAMPAIGN = ["campaign", "--scale", "tiny", "--simulators", "fast",
                "--workers", "0", "--quiet"]

    def _journal(self, tmp_path, *flags):
        path = str(tmp_path / "campaign.journal")
        assert main(self.CAMPAIGN + ["--journal", path, *flags]) == 0
        return path

    def _refused(self, capsys, path, *flags):
        with pytest.raises(SystemExit) as caught:
            main(self.CAMPAIGN + ["--resume", path, *flags])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "FAILED" not in captured.out
        return captured.err

    def test_file_that_is_no_journal(self, tmp_path, capsys):
        path = tmp_path / "garbage"
        path.write_bytes(b"garbage")
        err = self._refused(capsys, str(path), "--workloads", "compress")
        assert "error:" in err and "not a campaign journal" in err

    def test_journal_of_another_campaign(self, tmp_path, capsys):
        path = self._journal(tmp_path, "--workloads", "compress")
        err = self._refused(capsys, path, "--workloads", "go")
        assert "does not match campaign" in err
        assert "go:fast:tiny" in err

    def test_job_order_changed(self, tmp_path, capsys):
        path = self._journal(tmp_path, "--workloads", "compress,go")
        err = self._refused(capsys, path, "--workloads", "go,compress")
        assert "job order changed" in err

    def test_refusal_is_typed_for_library_callers(self, tmp_path):
        path = tmp_path / "garbage"
        path.write_bytes(b"garbage")
        with pytest.raises(CampaignUsageError, match="not a campaign"):
            run_campaign(["compress"], ("fast",), scale="tiny",
                         workers=0, resume=str(path))
        with pytest.raises(CampaignUsageError, match="workers"):
            run_campaign(["compress"], ("fast",), scale="tiny",
                         workers=-1)

    def test_value_error_inside_a_job_is_a_failed_job(self, monkeypatch,
                                                      capsys):
        """Serial campaigns run job code on the calling thread: its
        ``ValueError`` is that job's failure (exit 1), not exit 2."""
        def broken(job, store, obs=None):
            raise ValueError("boom inside the job")

        monkeypatch.setitem(worker._JOB_KINDS, "simulate", broken)
        assert main(self.CAMPAIGN + ["--workloads", "compress"]) == 1
        captured = capsys.readouterr()
        assert "FAILED: ValueError: boom inside the job" in captured.out
        assert "error:" not in captured.err
