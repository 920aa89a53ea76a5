"""The zero-overhead-when-off contract: obs on vs off changes NOTHING.

Telemetry must be a pure read of the simulation — enabling it may not
shift a single cycle, reorder an output word, or perturb canonical
campaign documents. These tests run the same work with observability
enabled and disabled and require byte-identical results.
"""

import pytest

from repro.campaign import Campaign, CampaignRunner, Job
from repro.isa import assemble
from repro.obs.chrome import chrome_trace
from repro.obs.core import make_observer
from repro.obs.schema import validate_chrome_trace
from repro.options import HostOptions
from repro.sim.baseline import IntegratedSimulator
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.uarch.params import ProcessorParams

PROGRAM = """
main:
    set buf, %l0
    mov 30, %l6
outer:
    mov 24, %l1
    clr %l3
fill:
    st %l3, [%l0 + %l3]
    add %l3, 4, %l3
    subcc %l1, 1, %l1
    bne fill
    mov 24, %l1
    clr %l3
    clr %l4
sum:
    ld [%l0 + %l3], %l5
    add %l4, %l5, %l4
    add %l3, 4, %l3
    subcc %l1, 1, %l1
    bne sum
    subcc %l6, 1, %l6
    bne outer
    out %l4
    halt
    .data
buf: .space 128
"""


def canonical(result):
    data = result.as_dict()
    data.pop("host_seconds", None)
    return data


class TestSimulatoridentity:
    def test_fastsim_obs_on_equals_obs_off(self):
        """The mandated check: FastSim both ways, timing_equal."""
        exe = assemble(PROGRAM)
        off = FastSim(exe).run()
        on = FastSim(exe, obs=make_observer(sample_every=32)).run()
        assert on.timing_equal(off)
        assert on.cycles == off.cycles
        assert on.output == off.output
        assert canonical(on) == canonical(off)

    def test_slowsim_obs_on_equals_obs_off(self):
        exe = assemble(PROGRAM)
        off = SlowSim(exe).run()
        on = SlowSim(exe, obs=make_observer(sample_every=32)).run()
        assert on.timing_equal(off)
        assert canonical(on) == canonical(off)

    def test_baseline_obs_on_equals_obs_off(self):
        exe = assemble(PROGRAM)
        off = IntegratedSimulator(exe).run()
        on = IntegratedSimulator(
            exe, obs=make_observer(sample_every=32)).run()
        assert on.timing_equal(off)
        assert canonical(on) == canonical(off)

    def test_identity_holds_under_narrow_params(self):
        exe = assemble(PROGRAM)
        params = ProcessorParams.narrow()
        off = FastSim(exe, params=params).run()
        on = FastSim(exe, params=params,
                     obs=make_observer(sample_every=16)).run()
        assert on.timing_equal(off)

    def test_memo_stats_identical(self):
        """Observation must not change what gets memoized."""
        exe = assemble(PROGRAM)
        off = FastSim(exe).run()
        on = FastSim(exe, obs=make_observer(sample_every=32)).run()
        assert on.memo.as_dict() == off.memo.as_dict()


class TestCampaignIdentity:
    JOBS = tuple(
        Job(workload, simulator, "tiny")
        for workload in ("compress",)
        for simulator in ("fast", "slow")
    )

    def run_campaign(self, obs):
        runner = CampaignRunner(workers=0, obs=obs)
        return runner.run(Campaign(jobs=self.JOBS, name="identity"))

    def test_canonical_output_byte_identical(self):
        """The mandated check: identical canonical campaign output."""
        off = self.run_campaign(obs=None)
        on = self.run_campaign(obs=make_observer(sample_every=64))
        assert on.canonical_json() == off.canonical_json()

    def test_observed_campaign_collected_telemetry(self):
        """Identity must not be vacuous — obs really was live."""
        obs = make_observer(sample_every=64)
        outcome = self.run_campaign(obs=obs)
        assert outcome.ok
        assert obs.registry.counters["campaign.jobs_ok"].value == len(
            self.JOBS)
        names = {event.name for event in obs.trace_events()}
        assert "campaign.run" in names
        assert "campaign.job" in names


class TestDistributedIdentityMatrix:
    """The tentpole matrix: every backend × obs on/off × turbo on/off.

    Worker-shipped telemetry must never leak into canonical campaign
    output — the obs-on run of each cell must match its obs-off twin
    byte for byte — while the merged observer must hold real worker
    telemetry (blobs merged, distinct lanes) whose Chrome export is
    schema-valid.
    """

    @staticmethod
    def jobs(turbo):
        # turbo_threshold=2 makes chain compilation actually fire at
        # tiny scale, so the turbo-on cells exercise the compiled loop.
        host = HostOptions(turbo=turbo,
                           turbo_threshold=2 if turbo else None)
        return (
            Job("compress", "fast", "tiny", host=host),
            Job("compress", "slow", "tiny", host=host),
        )

    @staticmethod
    def run(jobs, backend, obs):
        runner = CampaignRunner(workers=2, obs=obs, backend=backend)
        return runner.run(Campaign(jobs=jobs, name="matrix"))

    @pytest.mark.parametrize("backend", ["fork", "subprocess", "queue"])
    @pytest.mark.parametrize("turbo", [True, False],
                             ids=["turbo", "no-turbo"])
    def test_canonical_identical_and_trace_valid(self, backend, turbo):
        jobs = self.jobs(turbo)
        off = self.run(jobs, backend, obs=None)
        obs = make_observer(sample_every=64)
        on = self.run(jobs, backend, obs=obs)

        # 1. obs-on canonical output is byte-identical to obs-off.
        assert on.canonical_json() == off.canonical_json()

        # 2. Zero overhead when off: no blob ever reached a result.
        assert all(r.telemetry is None for r in off.results)
        # Blobs are stripped before results are merged on-path too.
        assert all(r.telemetry is None for r in on.results)

        # 3. The merge really happened: one blob per job, worker lane
        # labels recorded, and the merged Chrome trace is schema-valid.
        merged = obs.registry.counters["obs.worker_blobs_merged"].value
        assert merged == len(jobs)
        workers = {r.worker for r in on.results}
        assert all(w and w.split("-")[0] in ("fork", "spawn", "queue")
                   for w in workers)
        document = chrome_trace(obs.trace_events())
        assert validate_chrome_trace(document) == []
        lanes = {e.lane for e in obs.trace_events() if e.lane is not None}
        assert lanes == workers
