"""The repo's one benchmark runner (record schema ``repro.bench/v1``).

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S]
        [--repeats R] [--trace 0|1] [--smoke] [--out FILE]
    python3 bench/run.py --regen-expected

Prints every metric by name with its unit, checks the simulated
statistics of every run against ``expected.json`` (and generated
programs against a reference run), and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. Metric, unit and
workload names come from ``BENCHMARK.json`` — the runner emits exactly
those. See README.md for what each number means.

Timing rule: the simulators are deterministic and interference only
adds time, so an item's headline time is the minimum over R
interleaved sweeps (A B C … A B C …); medians and IQRs are kept beside
it. ``--seconds`` sets R by time budget, ``--repeats`` fixes it.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = float(os.environ.pop("REPRO_BENCH_T0", 0) or time.perf_counter())

if os.environ.get("PYTHONHASHSEED") != "0":
    # One fixed hash seed, so set/dict iteration order — and with it
    # host time — is the same in every run and every worker.
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, PYTHONHASHSEED="0",
                   REPRO_BENCH_T0=repr(_T0)))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The script's own directory must not shadow stdlib modules (trace).
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench.compare import SCHEMA, load_spec  # noqa: E402

#: Set-up (the program's import, then the workload's own set-up) runs
#: several times per untraced run and setup_s reports the minimum, the
#: same rule as for items: at least SETUP_REPEATS times, and on while
#: the repeats have cost less than SETUP_BUDGET_S, up to SETUP_MOST.
#: The repeats run between sweeps, so they see the same stretch of
#: host time as the items. With one sample at the start, a host that
#: was 1.3x slower for a few minutes moved setup_s by 36 % between two
#: sets of ten runs.
SETUP_REPEATS = 3
SETUP_MOST = 8
SETUP_BUDGET_S = 3.0


def calibrate() -> float:
    """A fixed pure-Python kernel, milliseconds, min of 5: tells a
    slow host from a slow simulator."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        acc, table = 0, {}
        for i in range(60000):
            acc = (acc * 31 + i) & 0xFFFF
            table[i & 255] = acc
        best = min(best, time.perf_counter() - started)
    return best * 1e3


class QuietHost:
    """Starts a sweep only while the host runs at its usual speed.

    This sandbox slows by 1.5-2x for 10-30 s about once a minute (a
    noisy neighbour, not preemption: CPU time moves with wall time). A
    sweep started inside such a burst measures the neighbour, so the
    runner waits it out — bounded, outside the timed window, reported
    as ``host.wait_s``. "Usual" is the best probe of this process or,
    when a burst swallows the whole process, the median of the best
    probes of the last runs in this checkout (``.bench_tmp/``). A burst
    that begins mid-sweep is left to the minimum over sweeps.
    """

    THRESHOLD = 1.25
    BUDGET_S = 15.0
    HISTORY = 16

    def __init__(self, state: Path) -> None:
        self.state = state
        try:
            self.history = json.loads(state.read_text())[-self.HISTORY:]
        except (OSError, ValueError):
            self.history = []
        self.usual_ms = (statistics.median(self.history) if self.history
                         else float("inf"))
        self.best_ms = float("inf")
        self.waited_s = 0.0

    def wait(self) -> None:
        started = time.perf_counter()
        while True:
            probe = calibrate()
            self.best_ms = min(self.best_ms, probe)
            usual = min(self.best_ms, self.usual_ms)
            waited = self.waited_s + time.perf_counter() - started
            if probe <= self.THRESHOLD * usual or waited >= self.BUDGET_S:
                break
            time.sleep(0.5)
        self.waited_s += time.perf_counter() - started

    def save(self) -> None:
        scratch = self.state.with_suffix(f".{os.getpid()}")
        scratch.write_text(json.dumps(self.history + [self.best_ms]))
        os.replace(scratch, self.state)


def cpu_seconds() -> float:
    """User + system time of this process and its waited-for workers."""
    return sum(os.times()[:4])


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(peak, children) / 1024.0


def spread(samples: List[float]) -> Dict[str, float]:
    quartiles = (statistics.quantiles(samples, n=4)
                 if len(samples) > 1 else [samples[0]] * 3)
    return {"min_s": min(samples),
            "median_s": statistics.median(samples),
            "iqr_s": quartiles[2] - quartiles[0]}


def sweeps(workload, rng: random.Random, host: QuietHost, seconds: float,
           repeats: Optional[int], tracer=None,
           between=None) -> Dict[str, dict]:
    """Interleaved closed-loop sweeps over the workload's units.

    Returns per-unit ``{"samples_s", "cpu_s", "outcome", "attempted",
    "failures", "in_headline"}``. With *repeats* None, sweeps continue
    until the next one would overrun *seconds* of measuring (at least
    two, so every item has a spread).
    """
    from bench.workloads import Outcome

    units = list(workload.units)
    items = {unit.name: {"samples_s": [], "cpu_s": [], "outcome": None,
                         "attempted": 0, "failures": [],
                         "in_headline": unit.in_headline}
             for unit in units}
    measured = longest = 0.0
    done = 0
    while True:
        rng.shuffle(units)
        host.wait()
        sweep_started = time.perf_counter()
        for unit in units:
            item = items[unit.name]
            gc.collect()
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span(f"item.{unit.name}"):
                        raw = unit.run()
                else:
                    raw = unit.run()
                wall = time.perf_counter() - t0
                cpu = cpu_seconds() - cpu0
                outcome = unit.check(raw)
            except Exception as exc:  # a failed operation, not a crash
                outcome = Outcome(0, 0, "", 1,
                                  [f"{unit.name}: {type(exc).__name__}: "
                                   f"{exc}"])
            else:
                item["samples_s"].append(wall)
                item["cpu_s"].append(cpu)
                previous = item["outcome"]
                if previous is not None and previous.digest != outcome.digest:
                    outcome.failures.append(
                        f"{unit.name}: digest changed between repetitions")
                item["outcome"] = outcome
            item["attempted"] += outcome.attempted
            item["failures"] += outcome.failures
        done += 1
        sweep_s = time.perf_counter() - sweep_started
        measured += sweep_s
        longest = max(longest, sweep_s)
        if between is not None:
            between()  # outside the measuring window
        if repeats is not None:
            if done >= repeats:
                break
        elif done >= 2 and measured + longest > seconds:
            break
    return items


def headline(items: Dict[str, dict]) -> Dict[str, float]:
    """Σ work / Σ per-item minimum, over the headline items that
    passed: no speed is reported for an item whose simulated results
    are wrong."""
    good = [item for item in items.values()
            if item["in_headline"] and item["samples_s"]
            and not item["failures"]]
    floor = sum(min(item["samples_s"]) for item in good)
    typical = sum(statistics.median(item["samples_s"]) for item in good)
    if not floor:
        return {"sim_kips": 0.0, "jobs_per_s": 0.0, "noise_ratio": 0.0}
    return {
        "sim_kips": sum(i["outcome"].instructions for i in good)
        / floor / 1e3,
        "jobs_per_s": sum(i["outcome"].jobs for i in good) / floor,
        "noise_ratio": typical / floor,
    }


def items_record(items: Dict[str, dict]) -> Dict[str, dict]:
    record = {}
    for name, item in sorted(items.items()):
        outcome = item["outcome"]
        entry = {"ok": not item["failures"], "samples_s": item["samples_s"],
                 "cpu_s": item["cpu_s"], "in_headline": item["in_headline"]}
        if item["samples_s"]:
            entry.update(spread(item["samples_s"]))
        if outcome is not None:
            entry.update(instructions=outcome.instructions,
                         jobs=outcome.jobs, digest=outcome.digest)
        record[name] = entry
    return record


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a repository


def scratch_dir() -> Path:
    """Everything the benchmark writes stays inside the checkout."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    return scratch


class SetupClock:
    """Times the program's import and the workload's set-up, first at
    the start of the run and then again between sweeps."""

    def __init__(self, once: bool) -> None:
        self.once = once
        started = time.perf_counter()
        import bench.workloads as workloads
        self.import_samples = [time.perf_counter() - started]
        self.setup_samples: List[float] = []
        #: Failed set-up checks of the repeats (the first workload
        #: keeps its own).
        self.failures: List[str] = []
        self.workloads = workloads

    def setup(self, name: str, ctx):
        """A freshly set-up workload; the set-up is timed."""
        self.name, self.ctx = name, ctx
        workload = self.workloads.WORKLOADS[name](ctx)
        started = time.perf_counter()
        workload.setup()
        self.setup_samples.append(time.perf_counter() - started)
        return workload

    def short(self) -> bool:
        return not self.once and min(
            len(self.import_samples), len(self.setup_samples)) < SETUP_REPEATS

    def again(self) -> None:
        """One more import, in a fresh interpreter so this process
        stays as a user's would be, and one more set-up, of a fresh
        workload object so the units being measured stay as they are."""
        if self.once:
            return
        if len(self.import_samples) < SETUP_REPEATS:
            # Importing this file first preloads the same standard
            # library, so every sample times the same work.
            probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                     "import bench.run; t = time.perf_counter(); "
                     "import bench.workloads; "
                     "print(time.perf_counter() - t)")
            self.import_samples.append(float(subprocess.run(
                [sys.executable, "-c", probe, str(ROOT)],
                capture_output=True, text=True, check=True).stdout))
        count = len(self.setup_samples)
        if count < SETUP_MOST and (count < SETUP_REPEATS or
                                   sum(self.setup_samples) < SETUP_BUDGET_S):
            self.failures += self.setup(self.name, self.ctx).failures


def run_workload(args, spec) -> Dict[str, object]:
    """One workload, one process: the record of that workload."""
    started_s = time.perf_counter() - _T0
    clock = SetupClock(once=bool(args.trace or args.smoke))
    workloads = clock.workloads
    with open(args.expected) as stream:
        expected = json.load(stream)
    tmp = Path(tempfile.mkdtemp(dir=scratch_dir()))
    try:
        ctx = workloads.Context(
            seed=args.seed, smoke=args.smoke, tmp=tmp, expected=expected,
            workers=min(os.cpu_count() or 1, 2))
        workload = clock.setup(args.workload, ctx)
        rng = random.Random(args.seed)
        quiet = QuietHost(scratch_dir() / "host_calib.json")
        cpu0 = cpu_seconds()
        if args.trace:
            deadline = time.perf_counter() + args.seconds
            items = sweeps(workload, rng, quiet, args.seconds, 1)
            layers, spans = traced_pass(workload, ctx, rng, quiet, items,
                                        deadline)
        else:
            items = sweeps(workload, rng, quiet, args.seconds, args.repeats,
                           between=clock.again)
            while clock.short():
                clock.again()
            layers, spans = None, None
        quiet.save()
        head = headline(items)
        host = {"calib_ms": quiet.best_ms, "wait_s": quiet.waited_s,
                "noise_ratio": head["noise_ratio"],
                "cpu_s": cpu_seconds() - cpu0}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = workload.failures + clock.failures
    outside = len(failures)
    for item in items.values():
        failures += item["failures"]
    attempted = sum(item["attempted"] for item in items.values()) + outside
    metrics = {
        "sim_kips": head["sim_kips"],
        "jobs_per_s": head["jobs_per_s"],
        "setup_s": (started_s + min(clock.import_samples)
                    + min(clock.setup_samples)),
        "peak_rss_mb": peak_rss_mb(),
    }
    record = {
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == args.workload),
        "repeats": max(len(i["samples_s"]) for i in items.values()),
        "setup": {"started_s": started_s,
                  "import_samples_s": clock.import_samples,
                  "samples_s": clock.setup_samples},
        "items": items_record(items),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in spec["end_to_end"]},
        "failed_frac": len(failures) / max(attempted, 1),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "host": host,
    }
    if layers is not None:
        layers.update({f"host.{key}": value
                       for key, value in host.items()})
        for name, item in items.items():
            if item["samples_s"] and f"item.{name}.s" not in layers:
                layers[f"item.{name}.s"] = min(item["samples_s"])
        unknown = sorted(set(layers) - {m["name"] for m in spec["per_layer"]})
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
        # A row that does not apply to this workload reads 0.
        record["layers"] = {
            m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in spec["per_layer"]}
        record["trace"] = spans
    return record


def traced_pass(workload, ctx, rng, host: QuietHost,
                untraced: Dict[str, dict], deadline: float):
    """One traced sweep plus the workload's own per-layer rows.

    Campaign workers are separate processes, so the traced sweep of a
    campaign workload runs serially (``workers=0``); its campaign.*
    rows come from the untraced unit's public result fields.
    """
    from bench.trace import Tracer, layer_metrics
    from bench.workloads import campaign_metrics, simulation_results

    tracer = Tracer()
    workers = ctx.workers
    is_campaign = workload.campaign
    ctx.tracer = tracer
    if is_campaign:
        ctx.workers = 0
    try:
        with tracer.installed(), tracer.span("sweep"):
            traced = sweeps(workload, rng, host, 0.0, 1, tracer)
    finally:
        ctx.tracer, ctx.workers = None, workers

    def outcomes(items):
        return [item["outcome"] for item in items.values()
                if item["outcome"] is not None]

    results = simulation_results(outcomes(traced))
    layers = layer_metrics(tracer, results)
    if is_campaign:
        # The serial pass pays no fork or IPC, so only the simulators'
        # own host time is comparable between the two sweeps.
        layers.update(campaign_metrics(outcomes(untraced), workers))
        base = layers["campaign.sim_busy_s"]
        traced_s = sum(result.host_seconds for result in results)
    else:
        base = sum(sum(item["samples_s"]) for item in untraced.values())
        traced_s = layers["trace.root_s"]
    layers["trace.overhead_frac"] = traced_s / base - 1.0 if base else 0.0
    for item in traced.values():
        workload.failures += item["failures"]
    layers.update(workload.extras(deadline, untraced))
    return layers, tracer.as_record()


def print_metrics(name: str, record: Dict[str, object]) -> None:
    rows = dict(record["metrics"])
    rows.update(record.get("layers", {}))
    print(f"== {name}: {record['repeats']} sweeps, "
          f"{record['failed']}/{record['attempted']} failed, "
          f"host.noise_ratio {record['host']['noise_ratio']:.3f}")
    for metric, cell in rows.items():
        print(f"{metric:40s} {cell['value']:14.6g} {cell['unit']}")
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}")


def final_line(record: Dict[str, object], traced: bool) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["layers" if traced else "metrics"],
    })


def write_record(args, workloads: Dict[str, dict]) -> None:
    """The ``repro.bench/v1`` record: one compact JSON document."""
    from bench.trace import SELF_TIME_ROWS

    record = {
        "schema": SCHEMA,
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine(),
                 "system": platform.system()},
        "git_rev": git_rev(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "traced": bool(args.trace),
        "self_time_rows": list(SELF_TIME_ROWS),
        "workloads": workloads,
    }
    with open(args.out, "w") as stream:
        json.dump(record, stream, sort_keys=True, separators=(",", ":"))
        stream.write("\n")


def run_all(args, spec) -> int:
    """Each workload in a process of its own (peak RSS is per process,
    and one workload's warmed-up interpreter must not help the next)."""
    workloads = {}
    status = 0
    for entry in spec["workloads"]:
        handle, path = tempfile.mkstemp(dir=scratch_dir(), suffix=".json")
        os.close(handle)
        command = [sys.executable, str(BENCH / "run.py"),
                   "--workload", entry["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--expected", args.expected, "--out", path]
        if args.repeats is not None:
            command += ["--repeats", str(args.repeats)]
        if args.smoke:
            command.append("--smoke")
        try:
            child = subprocess.run(command)
            status = max(status, child.returncode)
            with open(path) as stream:
                workloads.update(json.load(stream)["workloads"])
        finally:
            os.unlink(path)
    if args.out:
        write_record(args, workloads)
    key = "layers" if args.trace else "metrics"
    print(json.dumps({
        "correct": all(w["failed"] == 0 for w in workloads.values()),
        "attempted": sum(w["attempted"] for w in workloads.values()),
        "failed": sum(w["failed"] for w in workloads.values()),
        "metrics": {f"{name}/{metric}": cell
                    for name, w in workloads.items()
                    for metric, cell in w[key].items()},
    }))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles item order and generates gen0..3")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="timed window; sets the number of sweeps")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fixed number of sweeps (overrides --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced sweep, per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, for the self-tests")
    parser.add_argument("--out", help="write the repro.bench/v1 record")
    parser.add_argument("--expected", default=str(BENCH / "expected.json"),
                        help="golden simulated statistics")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite expected.json from SlowSim runs")
    args = parser.parse_args(argv)

    if args.regen_expected:
        from bench.workloads import regen_expected

        regen_expected(args.expected)
        return 0
    if args.workload == "all":
        return run_all(args, spec)
    record = run_workload(args, spec)
    if args.out:
        write_record(args, {args.workload: record})
    print_metrics(args.workload, record)
    print(final_line(record, bool(args.trace)))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
