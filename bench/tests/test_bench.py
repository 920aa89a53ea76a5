"""Self-tests of the benchmark (``python -m pytest bench/tests -q``).

Not collected by tier-1, whose ``testpaths`` is ``tests``. Everything
runs at ``--smoke`` (tiny) scale.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(1, str(ROOT / "src"))

from bench import compare  # noqa: E402

RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, check=True):
    done = subprocess.run(RUN + list(args), capture_output=True, text=True,
                          cwd=ROOT, timeout=170)
    if check:
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    run_bench("--workload", "all", "--repeats", "1", "--smoke",
              "--out", str(out))
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "traced.json"
    run_bench("--workload", "all", "--traced", "--seconds", "1", "--smoke",
              "--out", str(out))
    return json.loads(out.read_text())


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all((ROOT / path).is_dir() for path in SPEC["paths"])


def test_smoke_record_names_exactly_the_benchmark(smoke_record):
    compare.validate(smoke_record, SPEC)
    assert set(smoke_record["workloads"]) == {
        w["name"] for w in SPEC["workloads"]}
    for workload in smoke_record["workloads"].values():
        assert workload["failed"] == 0 and workload["failed_frac"] == 0
        assert all(cell["value"] > 0
                   for cell in workload["metrics"].values())


def test_traced_record_has_every_layer_metric(traced_record):
    compare.validate(traced_record, SPEC)
    assert set(traced_record["workloads"]) == {
        w["name"] for w in SPEC["workloads"]}
    for name, workload in traced_record["workloads"].items():
        assert workload["failed"] == 0, workload["failures"]
        layers = {m: cell["value"] for m, cell in workload["layers"].items()}
        # Self times partition the root span.
        total = sum(layers[row] for row in traced_record["self_time_rows"])
        assert total == pytest.approx(layers["trace.root_s"], rel=0.01), name
        aggregate = workload["trace"]["aggregate"]
        assert sum(entry["self_s"] for entry in aggregate.values()) == (
            pytest.approx(aggregate["sweep"]["total_s"], rel=0.01))
    fast_warm = traced_record["workloads"]["fast-warm"]["layers"]
    assert fast_warm["ablate.interpreted.slowdown"]["value"] > 0
    assert fast_warm["memo.segstore.installed"]["value"] > 0
    small = traced_record["workloads"]["campaign-small-jobs"]["layers"]
    assert small["ablate.backend.queue.jobs_per_s"]["value"] > 0
    assert small["campaign.journal.bytes"]["value"] > 0


def test_tracer_is_transparent_and_restores():
    import repro.api as api
    from repro.emulator.frontend import SpeculativeFrontend

    from bench.trace import Tracer
    from bench.workloads import result_digest

    original = SpeculativeFrontend.__dict__["run_one_event"]
    plain = api.simulate("compress", engine="fast", scale="tiny")
    tracer = Tracer()
    with tracer.installed(), tracer.span("sweep"):
        traced = api.simulate("compress", engine="fast", scale="tiny",
                              obs=tracer.observer)
    assert result_digest(traced) == result_digest(plain)
    assert SpeculativeFrontend.__dict__["run_one_event"] is original
    assert tracer.calls("emulator.frontend") > 0
    assert tracer.calls("uarch.detailed") > 0
    assert tracer.self_s("memo.replay") > 0
    assert sum(entry[2] for entry in tracer.agg.values()) == (
        pytest.approx(tracer.total_s("sweep"), rel=0.01))


def test_corrupted_expected_row_fails_the_run(tmp_path):
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    expected["programs"]["go"]["tiny"]["digest"] = "0" * 16
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    done = run_bench("--workload", "fast-cold", "--repeats", "1", "--smoke",
                     "--expected", str(corrupted), check=False)
    assert done.returncode != 0
    line = last_json(done)
    assert line["correct"] is False and line["failed"] > 0


def test_compare_verdicts(smoke_record, tmp_path):
    rows = compare.compare(smoke_record, smoke_record, SPEC)
    assert {row[-1] for row in rows} == {"ok"}

    slower = copy.deepcopy(smoke_record)
    cell = slower["workloads"]["fast-warm"]["metrics"]["sim_kips"]
    cell["value"] *= 0.5
    rows = compare.compare(smoke_record, slower, SPEC)
    assert ["fast-warm", "sim_kips", "regressed"] in [
        [row[0], row[1], row[-1]] for row in rows]

    slower["workloads"]["fast-warm"]["host"]["noise_ratio"] = 1.3
    rows = compare.compare(smoke_record, slower, SPEC)
    assert ["fast-warm", "sim_kips", "unresolved"] in [
        [row[0], row[1], row[-1]] for row in rows]

    base, new = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(smoke_record))
    slower["workloads"]["fast-warm"]["host"]["noise_ratio"] = 1.0
    new.write_text(json.dumps(slower))
    assert compare.main([str(base), str(new)]) == 1
    assert compare.main([str(base), str(base)]) == 0
