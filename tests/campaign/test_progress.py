"""ProgressSink tests — one protocol for text and JSON-lines
progress."""

import io
import json

import pytest

from repro.campaign import (
    Job,
    JsonlSink,
    NullSink,
    TextSink,
    make_sink,
)
from repro.api import run_campaign
from repro.campaign.progress import ObsSink, TeeSink
from repro.obs.core import NULL_OBS, make_observer


class TestSinks:
    def test_text_renders_key_and_fields(self):
        stream = io.StringIO()
        TextSink(stream).emit("job-ok", key="a:fast:tiny", cycles=10)
        assert stream.getvalue() == "job-ok a:fast:tiny (cycles=10)\n"

    def test_text_log_passthrough(self):
        stream = io.StringIO()
        TextSink(stream).log("hello")
        assert stream.getvalue() == "hello\n"

    def test_jsonl_emits_valid_records(self):
        stream = io.StringIO()
        JsonlSink(stream).emit("job-start", key="a:fast:tiny", attempt=1)
        record = json.loads(stream.getvalue())
        assert record == {"event": "job-start", "key": "a:fast:tiny",
                          "attempt": 1}

    def test_null_sink_drops_everything(self):
        NullSink().emit("job-ok", key="x")  # must not raise

    def test_make_sink_modes(self):
        assert isinstance(make_sink("text"), TextSink)
        assert isinstance(make_sink("jsonl"), JsonlSink)
        assert isinstance(make_sink("silent"), NullSink)
        with pytest.raises(ValueError):
            make_sink("telepathy")


class TestObsSink:
    def test_events_mirrored_into_observer(self):
        obs = make_observer()
        sink = ObsSink(obs)
        sink.emit("job-start", key="a:fast:tiny", attempt=1)
        sink.emit("job-ok", key="a:fast:tiny", seconds=0.125, cycles=941)
        names = [event.name for event in obs.trace_events()]
        assert names == ["job-start", "job-ok"]
        assert obs.registry.counters["campaign.jobs_ok"].value == 1
        histogram = obs.registry.histograms["campaign.job_ms"]
        assert histogram.count == 1 and histogram.total == 125

    def test_failure_and_retry_counters(self):
        obs = make_observer()
        sink = ObsSink(obs)
        sink.emit("job-retry", key="k", attempt=2)
        sink.emit("job-failed", key="k", error="boom")
        counters = obs.registry.counters
        assert counters["campaign.retries"].value == 1
        assert counters["campaign.jobs_failed"].value == 1

    def test_name_field_does_not_collide(self):
        """campaign-start carries name=...; the hook's own first
        parameter is positional-only so this must pass through."""
        obs = make_observer()
        ObsSink(obs).emit("campaign-start", name="suite", jobs=4)
        [event] = obs.trace_events()
        assert event.args == {"jobs": 4, "name": "suite"}

    def test_disabled_observer_short_circuits(self):
        ObsSink(NULL_OBS).emit("job-ok", key="k", seconds=1.0)  # no raise

    def test_none_fields_dropped(self):
        obs = make_observer()
        ObsSink(obs).emit("job-ok", key="k", error=None)
        [event] = obs.trace_events()
        assert event.args == {"key": "k"}


class TestTeeSink:
    def test_fans_out_in_order(self):
        stream_a, stream_b = io.StringIO(), io.StringIO()
        tee = TeeSink(JsonlSink(stream_a), JsonlSink(stream_b))
        tee.emit("job-ok", key="k")
        assert stream_a.getvalue() == stream_b.getvalue() != ""

    def test_none_sinks_filtered(self):
        stream = io.StringIO()
        tee = TeeSink(None, TextSink(stream), None)
        tee.log("hello")
        assert stream.getvalue() == "hello\n"
        assert len(tee.sinks) == 1


class TestEngineEvents:
    def test_campaign_event_stream(self):
        stream = io.StringIO()
        run_campaign(jobs=[Job("compress", "fast", "tiny")], workers=1,
                     progress=JsonlSink(stream), name="events")
        events = [json.loads(line)
                  for line in stream.getvalue().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds == ["campaign-start", "job-start", "job-ok",
                         "campaign-end"]
        assert events[0]["workers"] == 1
        assert events[2]["cycles"] > 0
        assert events[2]["key"] == "compress:fast:tiny"
        assert events[3]["failed"] == 0

