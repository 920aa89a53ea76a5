"""The `repro obs report` dashboard: loading and rendering."""

import json

from repro.obs.report import load, main, render
from repro.obs.schema import (
    CAMPAIGN_METRICS_SCHEMA,
    JOB_METRICS_SCHEMA,
    METRIC_SCHEMA,
    SCHEMA_KEY,
    stamp,
)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def sample_records():
    return [
        stamp(JOB_METRICS_SCHEMA, {
            "key": "compress:fast:tiny", "workload": "compress",
            "simulator": "fast", "scale": "tiny", "status": "ok",
            "attempts": 1, "retries": 0, "host_seconds": 0.5,
            "worker": "fork-11",
        }),
        stamp(JOB_METRICS_SCHEMA, {
            "key": "go:fast:tiny", "workload": "go",
            "simulator": "fast", "scale": "tiny", "status": "failed",
            "attempts": 3, "retries": 2, "host_seconds": 0.25,
            "worker": "fork-12",
        }),
        stamp(METRIC_SCHEMA, {"kind": "counter",
                              "name": "turbo.segments_compiled",
                              "value": 4}),
        stamp(METRIC_SCHEMA, {
            "kind": "series", "name": "memo.hit_ratio@compress:fast:tiny",
            "dropped": 0, "samples": [[256, 0.25], [512, 0.75]],
        }),
        stamp(CAMPAIGN_METRICS_SCHEMA, {
            "name": "demo", "jobs": 2, "failed": 1, "wall_seconds": 1.0,
            "workers": 2,
            "backend": {"backend": "fork", "forks": 2, "crashes": 1},
        }),
    ]


class TestLoad:
    def test_mixed_jsonl_stream(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        write_jsonl(path, sample_records())
        data = load([path])
        assert len(data.jobs) == 2
        assert len(data.campaigns) == 1
        assert data.counters["turbo.segments_compiled"] == 4
        assert data.series_last["memo.hit_ratio@compress:fast:tiny"] == 0.75

    def test_chrome_trace_lanes(self, tmp_path):
        path = str(tmp_path / "x.trace.json")
        document = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 3, "tid": 0,
             "ts": 0, "args": {"name": "fastsim worker fork-11"}},
            {"name": "worker.job", "ph": "X", "pid": 3, "tid": 1,
             "ts": 0, "dur": 1500.0, "cat": "campaign"},
            {"name": "campaign.run", "ph": "X", "pid": 1, "tid": 1,
             "ts": 0, "dur": 2000.0, "cat": "campaign"},
        ]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        data = load([path])
        assert data.lanes == {"fork-11": (1, 1500.0)}


class TestRender:
    def test_dashboard_sections(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        write_jsonl(path, sample_records())
        text = render(load([path]))
        assert "campaign demo: 2 jobs, 1 failed, 2 workers" in text
        assert "fork-11" in text and "fork-12" in text
        assert "hit ratio compress:fast:tiny" in text
        assert "75.0%" in text
        assert "turbo.segments_compiled" in text
        assert "retries" in text and "crashes" in text

    def test_empty_input_degrades_gracefully(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        write_jsonl(path, [])
        text = render(load([path]))
        assert "no campaign-metrics record" in text
        assert "no recognised telemetry" in text


class TestMain:
    def test_usage_error_without_files(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, capsys):
        assert main(["/nonexistent/metrics.jsonl"]) == 2

    def test_renders_to_stdout(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.jsonl")
        write_jsonl(path, sample_records())
        assert main([path]) == 0
        assert "campaign demo" in capsys.readouterr().out
