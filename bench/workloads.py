"""The six benchmark workloads (names are fixed by ``BENCHMARK.json``).

A workload is a set-up step plus a list of :class:`Unit` objects. The
runner times ``unit.run()`` — one public-API call, closed loop — and
hands the return value to ``unit.check()`` outside the timed region.
Everything goes through public entry points: ``repro.api.simulate`` /
``run_campaign``, ``FastSim`` / ``SlowSim``, ``repro.memo.persist`` /
``segstore`` and ``repro.workloads``.

Item lists are sized so that one sweep takes 1.5–3 s on the 2-core
reference box: the driver allows ~25 s per run including set-up, and
the 15 s timed window has to hold enough interleaved sweeps for a
minimum to mean something (see README.md § Sizing).
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro.api as api
from repro.campaign.cachedir import CacheStore
from repro.campaign.jobs import Job, PolicySpec
from repro.isa.assembler import assemble
from repro.memo import segstore
from repro.memo.engine import run_signature
from repro.memo.persist import read_pcache
from repro.obs import make_observer
from repro.sim.fastsim import FastSim
from repro.uarch.params import ProcessorParams
from repro.workloads.fuzz import random_program
from repro.workloads.suite import SCALES, WORKLOAD_ORDER, load_workload

#: Three integer + three floating-point programs spanning the suite's
#: slowest (perl, tomcatv) and fastest (fpppp) replay.
SUBSET6 = ("go", "compress", "perl", "mgrid", "tomcatv", "fpppp")
#: Every other suite program, in paper order.
GRID9 = tuple(WORKLOAD_ORDER[::2])
#: Figure 7 flushes at a fraction of the natural p-cache size.
BOUNDED_FRACTION = 0.35
#: FastSim options per ablation row (``segstore`` / ``observed`` are
#: resolved per run: an archive and an observer are single-use).
ABLATIONS: Dict[str, Dict[str, object]] = {
    "base": {},
    "interpreted": {"turbo": False, "threaded_frontend": False,
                    "l1_filter": False, "segstore": False},
    "no_turbo": {"turbo": False, "segstore": False},
    "no_threaded_frontend": {"threaded_frontend": False},
    "no_l1_filter": {"l1_filter": False},
    "no_segstore": {"segstore": False},
    "obs": {"observed": True},
    "audit": {"audit_every": 50},
}


# -- canonical digests ---------------------------------------------------

def result_row(result) -> Dict[str, object]:
    """The simulated statistics of one run, host time excluded."""
    output = json.dumps(list(result.output)).encode()
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "sim_stats": result.sim_stats.as_dict(),
        "cache_stats": result.cache_stats.as_dict(),
        "output_sha256": hashlib.sha256(output).hexdigest(),
    }


def row_digest(row: Dict[str, object]) -> str:
    return hashlib.sha256(
        json.dumps(row, sort_keys=True).encode()
    ).hexdigest()[:16]


def result_digest(result) -> str:
    return row_digest(result_row(result))


def bounded_limit(natural_peak_bytes: int) -> int:
    return max(int(BOUNDED_FRACTION * natural_peak_bytes), 512)


def geomean(values: List[float]) -> float:
    return statistics.geometric_mean(values) if values else 0.0


# -- context, units ------------------------------------------------------

@dataclass
class Context:
    """What a run hands every workload."""

    seed: int
    smoke: bool
    tmp: Path  #: scratch directory inside the checkout
    expected: Dict[str, object]  #: parsed expected.json
    workers: int
    tracer: Optional[object] = None  #: bench.trace.Tracer when traced

    def scale(self, full: str) -> str:
        return "tiny" if self.smoke else full

    def golden(self, program: str, scale: str) -> str:
        return self.expected["programs"][program][scale]["digest"]

    def mkdtemp(self) -> str:
        return tempfile.mkdtemp(dir=self.tmp)

    @property
    def obs(self):
        """The tracer's observer on a traced sweep, else None."""
        return None if self.tracer is None else self.tracer.observer

    def simulate(self, item, **kwargs):
        return api.simulate(item, obs=self.obs, **kwargs)


@dataclass
class Outcome:
    """What one timed unit did, as established by its check."""

    instructions: int
    jobs: int
    digest: str
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Raw results kept for per-layer counters (traced runs).
    results: List[object] = field(default_factory=list)


@dataclass
class Unit:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    #: False for generated programs: run, timed and checked, but kept
    #: out of the headline sums (their cost per instruction varies up
    #: to 10x with the seed, which would make the headline a property
    #: of the seed, not of the code).
    in_headline: bool = True


def _item_outcome(name: str, result, want: str) -> Outcome:
    got = result_digest(result)
    failures = [] if got == want else [
        f"{name}: digest {got} != expected {want}"]
    return Outcome(result.instructions, 1, got, 1, failures, [result])


class Workload:
    """Base: ``setup()`` is repeatable and rebuilds ``self.units``."""

    name = ""
    #: Campaign workloads trace a serial pass (workers are processes).
    campaign = False
    #: Iterations of each generated program: held-out inputs for the
    #: correctness checks, kept to a few percent of a sweep.
    gen_iterations = 100

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.units: List[Unit] = []
        #: Failed checks outside the timed units (set-up, extras).
        self.failures: List[str] = []
        #: Untimed facts for per-layer anchors (traced runs).
        self.notes: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def generated(self) -> List[Tuple[str, object]]:
        """``gen0..gen3``: the simulator sees only the Executable."""
        iterations = 20 if self.ctx.smoke else self.gen_iterations
        return [
            (f"gen{i}", assemble(
                random_program(4 * self.ctx.seed + i,
                               iterations=iterations),
                name=f"gen{i}"))
            for i in range(4)
        ]

    def extras(self, deadline: float,
               untraced: Dict[str, dict]) -> Dict[str, float]:
        """Per-layer rows only this workload can measure (traced run).

        *untraced* is the untraced sweep's per-unit record; extra
        repetitions may run until *deadline*.
        """
        return {}


def _plain_fastsim_digest(executable) -> str:
    """Reference for generated programs: FastSim with every host-side
    speed tier off, on an empty p-cache."""
    return result_digest(FastSim(
        executable, turbo=False, threaded_frontend=False,
        l1_filter=False).run())


# -- in-process workloads ------------------------------------------------

class FastCold(Workload):
    name = "fast-cold"

    def setup(self) -> None:
        ctx = self.ctx
        scale = ctx.scale("test")
        self.units = [
            self._unit(name, name, scale, ctx.golden(name, scale))
            for name in WORKLOAD_ORDER
        ] + [
            self._unit(name, exe, scale, _plain_fastsim_digest(exe))
            for name, exe in self.generated()
        ]

    def _unit(self, name, item, scale, want) -> Unit:
        ctx = self.ctx

        def check(result) -> Outcome:
            if name in WORKLOAD_ORDER:
                self.notes["detailed_fraction_max"] = max(
                    self.notes.get("detailed_fraction_max", 0.0),
                    result.memo.detailed_fraction)
            return _item_outcome(name, result, want)

        return Unit(
            name,
            lambda: ctx.simulate(item, engine="fast", scale=scale),
            check,
            in_headline=name in WORKLOAD_ORDER,
        )

    def extras(self, deadline, untraced) -> Dict[str, float]:
        return {"paper.table4.detailed_fraction_max":
                self.notes.get("detailed_fraction_max", 0.0)}


class FastWarm(Workload):
    name = "fast-warm"

    def setup(self) -> None:
        ctx = self.ctx
        scale = ctx.scale("train")
        self.scale = scale
        self.cache_dir = ctx.mkdtemp()
        self.generated_items = self.generated()
        # Two passes reach the store's fixpoint: the first writes
        # .fspc and the segments compiled while recording, the second
        # adds the segments that only get hot on a warm graph; a third
        # changes no byte. Suite programs fill through a campaign so
        # both cores share the cold pass.
        for _ in range(2):
            filled = api.run_campaign(
                workloads=SUBSET6, simulators=("fast",), scale=scale,
                workers=ctx.workers, cache_dir=self.cache_dir)
            self.failures += [
                f"fill {job.key}: {job.error}" for job in filled.failed]
            for _, exe in self.generated_items:
                api.simulate(exe, engine="fast", cache_dir=self.cache_dir)
        self.units = [
            self._unit(name, name, ctx.golden(name, scale))
            for name in SUBSET6
        ] + [
            self._unit(name, exe, _plain_fastsim_digest(exe))
            for name, exe in self.generated_items
        ]

    def _unit(self, name, item, want) -> Unit:
        ctx = self.ctx
        return Unit(
            name,
            lambda: ctx.simulate(item, engine="fast", scale=self.scale,
                                 cache_dir=self.cache_dir),
            lambda result: _item_outcome(name, result, want),
            in_headline=name in WORKLOAD_ORDER,
        )

    def extras(self, deadline, untraced) -> Dict[str, float]:
        """Ablation rows: each optional layer off, one at a time.

        Timed like benchmarks/bench_replay_hot_loop.py: ``FastSim.run``
        over a fresh deserialisation of the fill bytes, construction
        outside the window, configurations interleaved, minimum kept.
        """
        store = CacheStore(self.cache_dir)
        inputs = []
        for name in SUBSET6[::2]:
            exe = load_workload(name, self.scale)
            signature = run_signature(exe, ProcessorParams.r10k())
            inputs.append((name, exe, store.read_bytes(signature),
                           store.read_bytes(signature, ".fsseg")))
        best: Dict[Tuple[str, str], float] = {}
        digests: Dict[str, set] = {name: set() for name, *_ in inputs}
        while True:
            for config, recipe in ABLATIONS.items():
                for name, exe, pcache_bytes, segment_bytes in inputs:
                    options = dict(recipe)
                    segments = (segstore.loads(segment_bytes)
                                if options.pop("segstore", True) else None)
                    if options.pop("observed", False):
                        options["obs"] = make_observer()
                    sim = FastSim(
                        exe, pcache=read_pcache(io.BytesIO(pcache_bytes)),
                        segstore=segments, **options)
                    gc.collect()
                    started = time.perf_counter()
                    result = sim.run()
                    elapsed = time.perf_counter() - started
                    key = (config, name)
                    best[key] = min(best.get(key, elapsed), elapsed)
                    digests[name].add(result_digest(result))
            if time.perf_counter() >= deadline:
                break
        self.failures += [
            f"ablation {name}: digests differ between configurations"
            for name, seen in digests.items() if len(seen) != 1]

        def total(config: str) -> float:
            return sum(best[config, name] for name, *_ in inputs)

        rows = {f"ablate.{config}.slowdown": total(config) / total("base")
                for config in ABLATIONS
                if config not in ("base", "obs", "audit")}
        rows["obs.overhead_frac"] = total("obs") / total("base") - 1.0
        rows["guard.audit.overhead_frac"] = (
            total("audit") / total("base") - 1.0)
        return rows


class SlowDetailed(Workload):
    name = "slow-detailed"
    gen_iterations = 40  # SlowSim is ~10x slower per instruction
    programs = ("go", "fpppp")

    def setup(self) -> None:
        ctx = self.ctx
        scale = ctx.scale("test")
        items = [(name, name) for name in self.programs] + self.generated()
        self.units = []
        for name, item in items:
            # The FastSim run is the oracle the other way round: the
            # detailed result must be timing_equal to the memoized one.
            fast = api.simulate(item, engine="fast", scale=scale)
            self.notes[f"fast_s.{name}"] = fast.host_seconds
            want = (ctx.golden(name, scale) if name in WORKLOAD_ORDER
                    else result_digest(fast))
            self.units.append(self._unit(name, item, scale, fast, want))

    def _unit(self, name, item, scale, fast, want) -> Unit:
        ctx = self.ctx

        def check(result) -> Outcome:
            outcome = _item_outcome(name, result, want)
            if not fast.timing_equal(result):
                outcome.failures.append(
                    f"{name}: FastSim is not timing_equal to SlowSim")
            return outcome

        return Unit(
            name,
            lambda: ctx.simulate(item, engine="slow", scale=scale),
            check,
            in_headline=name in WORKLOAD_ORDER,
        )

    def extras(self, deadline, untraced) -> Dict[str, float]:
        """Table 2's ratio: SlowSim over cold FastSim host time."""
        return {"paper.table2.memo_speedup_geomean": geomean([
            item["outcome"].results[0].host_seconds
            / self.notes[f"fast_s.{name}"]
            for name, item in untraced.items()
            if item["outcome"] is not None])}


class RecordBounded(Workload):
    name = "record-bounded"
    programs = ("gcc", "compress", "tomcatv")

    def setup(self) -> None:
        ctx = self.ctx
        scale = ctx.scale("test")
        peaks = ctx.expected["natural_peak_cache_bytes"]
        self.units = [
            self._unit(name, name, scale, peaks[name][scale],
                       ctx.golden(name, scale))
            for name in self.programs
        ]
        for name, exe in self.generated():
            # No golden row: SlowSim is the reference, and an
            # unbounded FastSim run probes the natural p-cache size.
            probe = api.simulate(exe, engine="fast")
            slow = api.simulate(exe, engine="slow")
            if not probe.timing_equal(slow):
                self.failures.append(
                    f"{name}: unbounded FastSim != SlowSim")
            self.notes[f"unbounded_s.{name}"] = probe.host_seconds
            self.units.append(self._unit(
                name, exe, scale, probe.memo.peak_cache_bytes,
                result_digest(slow)))

    def _unit(self, name, item, scale, natural_peak, want) -> Unit:
        ctx = self.ctx
        policy = PolicySpec("flush", bounded_limit(natural_peak))

        def check(result) -> Outcome:
            outcome = _item_outcome(name, result, want)
            if result.memo.evictions == 0:
                outcome.failures.append(
                    f"{name}: p-cache never flushed at {policy.token}")
            return outcome

        return Unit(
            name,
            lambda: ctx.simulate(item, engine="fast", scale=scale,
                                 policy=policy),
            check,
            in_headline=name in WORKLOAD_ORDER,
        )

    def extras(self, deadline, untraced) -> Dict[str, float]:
        """Figure 7's ratio: bounded over unbounded host time."""
        ratios = []
        for name, item in untraced.items():
            if item["outcome"] is None:
                continue
            bounded = item["outcome"].results[0].host_seconds
            unbounded = self.notes.get(f"unbounded_s.{name}")
            if unbounded is None:
                unbounded = api.simulate(
                    name, engine="fast",
                    scale=self.ctx.scale("test")).host_seconds
            ratios.append(bounded / unbounded)
        return {"paper.fig7.bounded_over_unbounded_geomean":
                geomean(ratios)}


# -- campaign workloads --------------------------------------------------

def _campaign_outcome(ctx: Context, campaigns, scale: str) -> Outcome:
    """Every job must be ok and match its golden row, and the unit's
    campaigns (cold, warm) must merge to the same canonical document."""
    failures: List[str] = []
    instructions = jobs = 0
    documents = [campaign.canonical_json() for campaign in campaigns]
    if len(set(documents)) != 1:
        failures.append("warm canonical_json differs from cold")
    for campaign in campaigns:
        for job in campaign.results:
            jobs += 1
            if not job.ok:
                failures.append(f"{job.key}: {job.status}: {job.error}")
                continue
            instructions += job.result.instructions
            # Golden rows are for the default processor only.
            if job.job.params is None:
                got = result_digest(job.result)
                want = ctx.golden(job.job.workload, scale)
                if got != want:
                    failures.append(
                        f"{job.key}: digest {got} != expected {want}")
    digest = hashlib.sha256(documents[0].encode()).hexdigest()[:16]
    return Outcome(instructions, jobs, digest, jobs + 1, failures,
                   list(campaigns))


class CampaignGrid(Workload):
    name = "campaign-grid"
    campaign = True

    def setup(self) -> None:
        ctx = self.ctx
        scale = ctx.scale("train")

        def run():
            cache_dir = ctx.mkdtemp()
            try:
                return [
                    api.run_campaign(
                        workloads=GRID9, simulators=("fast",),
                        scale=scale, workers=ctx.workers,
                        cache_dir=cache_dir, obs=ctx.obs)
                    for _ in ("cold", "warm")
                ]
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)

        self.units = [Unit(
            "campaign", run,
            lambda campaigns: _campaign_outcome(ctx, campaigns, scale))]


class CampaignSmallJobs(Workload):
    name = "campaign-small-jobs"
    campaign = True

    def setup(self) -> None:
        ctx = self.ctx
        r10k = ProcessorParams.r10k()
        # v0 keeps params=None so its rows can be checked against the
        # golden file; the other three are the design-space sweep.
        variants = (None, ProcessorParams.narrow(),
                    replace(r10k, iq_capacity=16),
                    replace(r10k, bht_entries=128))
        programs = WORKLOAD_ORDER[:6] if ctx.smoke else WORKLOAD_ORDER
        self.jobs = [
            Job(workload=name, simulator="fast", scale="tiny",
                params=params, variant=f"v{index}")
            for name in programs
            for index, params in enumerate(variants)
        ]
        self.units = [Unit("campaign", self.run_unit, self.check)]

    def run_unit(self, **overrides):
        ctx = self.ctx
        work = Path(ctx.mkdtemp())
        try:
            options = dict(jobs=self.jobs, workers=ctx.workers,
                           cache_dir=str(work / "cache"), obs=ctx.obs,
                           journal=str(work / "journal"))
            options.update(overrides)
            campaign = api.run_campaign(**options)
            self.notes["journal_bytes"] = (work / "journal").stat().st_size
            return [campaign]
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def check(self, campaigns) -> Outcome:
        return _campaign_outcome(self.ctx, campaigns, "tiny")

    def extras(self, deadline, untraced) -> Dict[str, float]:
        """The same unit on the other two executor backends."""
        fork = untraced["campaign"]["outcome"]
        rows = {"campaign.journal.bytes": self.notes["journal_bytes"]}
        for backend in ("subprocess", "queue"):
            started = time.perf_counter()
            campaigns = self.run_unit(backend=backend)
            elapsed = time.perf_counter() - started
            outcome = self.check(campaigns)
            self.failures += outcome.failures
            if fork is not None and outcome.digest != fork.digest:
                self.failures.append(
                    f"backend {backend}: canonical_json differs from fork")
            rows[f"ablate.backend.{backend}.jobs_per_s"] = (
                outcome.jobs / elapsed)
        return rows


def simulation_results(outcomes: List[Outcome]) -> List[object]:
    """The SimulationResults behind *outcomes*, campaigns flattened."""
    results = []
    for outcome in outcomes:
        for raw in outcome.results:
            if hasattr(raw, "results"):  # a CampaignResult
                results += [job.result for job in raw.results
                            if job.result is not None]
            else:
                results.append(raw)
    return results


def campaign_metrics(outcomes: List[Outcome],
                     workers: int) -> Dict[str, float]:
    """campaign.* rows from the public fields of the result objects."""
    campaigns = [c for outcome in outcomes for c in outcome.results]
    jobs = [job for campaign in campaigns for job in campaign.results]
    makespan = sum(c.wall_seconds for c in campaigns)
    job_busy = sum(job.host_seconds for job in jobs)
    sim_busy = sum(job.result.host_seconds for job in jobs
                   if job.result is not None)
    last = campaigns[-1].results
    started = time.perf_counter()
    for campaign in campaigns:
        campaign.canonical_json()
    merge_s = time.perf_counter() - started
    return {
        "campaign.cold_makespan_s": campaigns[0].wall_seconds,
        "campaign.warm_makespan_s": (campaigns[1].wall_seconds
                                     if len(campaigns) > 1 else 0.0),
        "campaign.job_busy_s": job_busy,
        "campaign.sim_busy_s": sim_busy,
        "campaign.job_overhead_s": job_busy - sim_busy,
        "campaign.dispatch_overhead_s": makespan - job_busy / workers,
        "campaign.parallel_efficiency": job_busy / (workers * makespan),
        "campaign.sim_share": sim_busy / (workers * makespan),
        "campaign.warm_hit_ratio": sum(
            bool(job.metrics.get("warm_start")) for job in last
        ) / len(last),
        "campaign.retries": sum(job.attempts - 1 for job in jobs),
        "campaign.merge_s": merge_s,
    }


def regen_expected(path: str) -> None:
    """Rewrite the golden file. SlowSim is the reference model — no
    memo code is on its path; the natural p-cache sizes come from an
    unbounded FastSim run that must agree with it."""
    programs: Dict[str, dict] = {}
    peaks: Dict[str, dict] = {}
    for name in WORKLOAD_ORDER:
        programs[name], peaks[name] = {}, {}
        for scale in SCALES:
            slow = api.simulate(name, engine="slow", scale=scale)
            fast = api.simulate(name, engine="fast", scale=scale)
            if not fast.timing_equal(slow):
                raise SystemExit(f"{name}@{scale}: FastSim != SlowSim")
            row = result_row(slow)
            row["digest"] = row_digest(row)
            programs[name][scale] = row
            peaks[name][scale] = fast.memo.peak_cache_bytes
            print(f"{name}@{scale}: {row['cycles']} cycles", flush=True)
    with open(path, "w") as stream:
        json.dump({"schema": "repro.bench/expected/v1",
                   "reference": "SlowSim",
                   "programs": programs,
                   "natural_peak_cache_bytes": peaks},
                  stream, indent=1, sort_keys=True)
        stream.write("\n")


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (FastCold, FastWarm, SlowDetailed, RecordBounded,
                CampaignGrid, CampaignSmallJobs)
}
