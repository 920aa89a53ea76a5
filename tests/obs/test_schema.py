"""Tests for the JSON-lines schemas, validator, and CLI validator."""

import json

from repro.campaign.jobs import Job, JobResult
from repro.obs.__main__ import main as obs_main
from repro.obs.schema import (
    JOB_METRICS_SCHEMA,
    METRIC_SCHEMA,
    SCHEMA_KEY,
    TRACE_SCHEMA,
    stamp,
    validate_file,
    validate_lines,
    validate_record,
)


class TestStamp:
    def test_adds_schema_field_without_mutating(self):
        record = {"kind": "counter", "name": "c"}
        stamped = stamp(METRIC_SCHEMA, record)
        assert stamped[SCHEMA_KEY] == METRIC_SCHEMA
        assert SCHEMA_KEY not in record  # original untouched


class TestValidateRecord:
    def test_valid_metric(self):
        record = stamp(METRIC_SCHEMA,
                       {"kind": "gauge", "name": "x", "value": 1})
        assert validate_record(record) == []

    def test_valid_trace_event(self):
        record = stamp(TRACE_SCHEMA, {"name": "s", "ph": "X", "ts": 1.0,
                                      "cat": "memo", "clock": "host"})
        assert validate_record(record) == []

    def test_missing_schema(self):
        assert validate_record({"name": "x"}) == [
            "missing or non-string 'schema' field"]

    def test_unknown_schema(self):
        problems = validate_record({SCHEMA_KEY: "bogus/v9"})
        assert problems and "unknown schema" in problems[0]

    def test_non_object(self):
        problems = validate_record([1, 2])
        assert problems and "not an object" in problems[0]

    def test_missing_required_field(self):
        record = stamp(TRACE_SCHEMA, {"name": "s", "ph": "X", "ts": 1.0,
                                      "cat": "memo"})
        problems = validate_record(record)
        assert any("'clock'" in problem for problem in problems)

    def test_wrong_type(self):
        record = stamp(METRIC_SCHEMA, {"kind": "counter", "name": 7})
        problems = validate_record(record)
        assert any("expected str" in problem for problem in problems)

    def test_enum_violation(self):
        record = stamp(TRACE_SCHEMA, {"name": "s", "ph": "Z", "ts": 1.0,
                                      "cat": "memo", "clock": "host"})
        problems = validate_record(record)
        assert any("'ph'" in problem for problem in problems)


class TestValidateLines:
    def test_blank_lines_skipped(self):
        line = json.dumps(stamp(METRIC_SCHEMA,
                                {"kind": "counter", "name": "c"}))
        assert validate_lines(["", line, "  "]) == []

    def test_bad_json_reported_with_line_number(self):
        problems = validate_lines(["{not json"])
        assert problems and problems[0].startswith("line 1: not JSON")


class TestJobMetricsSchema:
    def make_record(self):
        job = Job("compress", "fast", "tiny")
        result = JobResult(job=job, status="ok", host_seconds=0.25)
        return result.metrics_record()

    def test_job_record_is_stamped_and_valid(self):
        record = self.make_record()
        assert record[SCHEMA_KEY] == JOB_METRICS_SCHEMA
        assert validate_record(record) == []

    def test_failed_status_valid(self):
        job = Job("compress", "fast", "tiny")
        result = JobResult(job=job, status="failed", error="boom")
        assert validate_record(result.metrics_record()) == []

    def test_v3_accepts_worker_label(self):
        job = Job("compress", "fast", "tiny")
        result = JobResult(job=job, status="poisoned",
                           error="quarantined", worker="fork-42")
        record = result.metrics_record()
        assert record["worker"] == "fork-42"
        assert validate_record(record) == []
        # The vocabulary is what an engine can write: "cancelled" went
        # with cooperative cancel, the v2 stamp with its last writer.
        assert validate_record(dict(record, status="cancelled"))
        assert validate_record(dict(
            record, schema="repro.campaign/job-metrics/v2"))


class TestNewCampaignSchemas:
    def test_worker_telemetry_record(self):
        from repro.obs.schema import WORKER_TELEMETRY_SCHEMA

        record = stamp(WORKER_TELEMETRY_SCHEMA, {
            "job_key": "compress:fast:tiny", "attempt": 1,
            "worker": "fork-7", "metrics": {}, "events": [],
            "spans_dropped": 0,
        })
        assert validate_record(record) == []
        broken = dict(record)
        del broken["worker"]
        assert validate_record(broken)

    def test_campaign_metrics_record(self):
        from repro.obs.schema import CAMPAIGN_METRICS_SCHEMA

        record = stamp(CAMPAIGN_METRICS_SCHEMA, {
            "name": "demo", "jobs": 2, "failed": 0,
            "wall_seconds": 0.5, "workers": 2,
            "backend": {"backend": "fork"},
        })
        assert validate_record(record) == []
        assert validate_record(dict(record, jobs="two"))


class TestChromeTraceValidation:
    def document(self):
        return {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "ts": 0, "args": {"name": "fastsim host"}},
            {"name": "campaign.run", "ph": "X", "pid": 1, "tid": 1,
             "ts": 0.0, "dur": 12.5, "cat": "campaign"},
        ]}

    def test_valid_document(self):
        from repro.obs.schema import validate_chrome_trace

        assert validate_chrome_trace(self.document()) == []

    def test_problems_reported(self):
        from repro.obs.schema import validate_chrome_trace

        document = self.document()
        document["traceEvents"][1].pop("dur")       # X without dur
        document["traceEvents"].append({"name": "x", "ph": "?",
                                        "pid": 1, "tid": 1, "ts": 0})
        problems = validate_chrome_trace(document)
        assert len(problems) == 2
        assert validate_chrome_trace({"traceEvents": "nope"})

    def test_validate_file_detects_chrome_documents(self, tmp_path):
        path = tmp_path / "x.trace.json"
        path.write_text(json.dumps(self.document()))
        assert validate_file(str(path)) == []


class TestCliValidator:
    def write(self, tmp_path, name, lines):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_valid_file_exit_zero(self, tmp_path, capsys):
        line = json.dumps(stamp(METRIC_SCHEMA,
                                {"kind": "counter", "name": "c"}))
        path = self.write(tmp_path, "ok.jsonl", [line])
        assert obs_main([path]) == 0
        assert validate_file(path) == []

    def test_invalid_file_exit_one(self, tmp_path, capsys):
        path = self.write(tmp_path, "bad.jsonl", ['{"schema": "nope"}'])
        assert obs_main([path]) == 1
        problems = validate_file(path)
        assert problems and path in problems[0]

    def test_missing_file_exit_two(self, tmp_path):
        assert obs_main([str(tmp_path / "absent.jsonl")]) == 2
