"""Tests for the pipeline tracer."""

import pytest

from repro.errors import SimulationError
from repro.isa import assemble
from repro.sim.sampling import SamplingSimulator
from repro.sim.slowsim import SlowSim
from repro.uarch.detailed import DetailedSimulator
from repro.uarch.interactions import CYCLE_BOUNDARY
from repro.uarch.iq import Stage
from repro.uarch.trace import (
    CycleSnapshot,
    PipelineTracer,
    format_snapshot,
    trace_pipeline,
)
from repro.workloads import WORKLOAD_ORDER, load_workload
from tests.uarch.test_detailed_golden import CONFIGS

PROGRAM = """
main:
    mov 5, %l0
loop:
    ld [%g1], %l1
    subcc %l0, 1, %l0
    bne loop
    out %l1
    halt
"""


class TestTracePipeline:
    def test_renders_requested_cycles(self):
        cycles = trace_pipeline(assemble(PROGRAM), max_cycles=10)
        assert len(cycles) == 10
        assert cycles[0].startswith("cycle 0")

    def test_trace_runs_to_completion_when_short(self):
        exe = assemble("main: nop\nhalt")
        cycles = trace_pipeline(exe, max_cycles=1000)
        assert len(cycles) < 20  # stopped at Finished, not max_cycles

    def test_shows_instructions_and_stages(self):
        cycles = trace_pipeline(assemble(PROGRAM), max_cycles=6)
        joined = "\n".join(cycles)
        assert "subcc %l0, 1, %l0" in joined
        assert "QUEUE" in joined or "EXEC" in joined

    def test_branch_annotation(self):
        cycles = trace_pipeline(assemble(PROGRAM), max_cycles=8)
        joined = "\n".join(cycles)
        assert "pred=" in joined

    def test_empty_pipeline_render(self):
        snapshot = CycleSnapshot(cycle=3, entries=[], retired_so_far=7)
        text = format_snapshot(snapshot)
        assert "<pipeline empty>" in text
        assert "retired 7" in text


@pytest.fixture(scope="module")
def snapshots():
    """Every cycle of PROGRAM, traced to completion."""
    collected = []
    PipelineTracer(assemble(PROGRAM)).run(collected.append, max_cycles=2000)
    return collected


class TestProgrammaticObservation:
    def test_occupancy_callback(self, snapshots):
        occupancies = [snapshot.occupancy() for snapshot in snapshots]
        assert max(occupancies) > 4  # the loop fills the window
        assert occupancies[-1] <= 4  # drained at halt

    def test_stage_counting(self, snapshots):
        assert max(s.count_stage(Stage.EXEC) for s in snapshots) >= 1

    def test_snapshots_are_copies(self, snapshots):
        # Late snapshots must not alias early ones' entries.
        for snapshot in snapshots:
            for entry in snapshot.entries:
                assert entry.stage in list(Stage)
        first_with_entries = next(s for s in snapshots if s.entries)
        assert first_with_entries.entries[0].stage is Stage.FETCHED


class TestSpanSinkIntegration:
    """``trace_pipeline`` stays the thin render-to-strings wrapper; the
    observed pipeline track is ``pipeline.iq_occupancy``."""

    def test_trace_pipeline_unchanged_by_sink_feature(self):
        cycles = trace_pipeline(assemble(PROGRAM), max_cycles=5)
        assert len(cycles) == 5
        assert cycles[0].startswith("cycle 0")


class TestSharedLoop:
    """The tracer iterates ``SlowSim.cycles``: same cycles, same contract."""

    @pytest.mark.parametrize("config", ["r10k", "tight"])
    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_complete_trace_reports_slowsims_cycles(self, name, config):
        executable, params = load_workload(name, "tiny"), CONFIGS[config]
        expected = SlowSim(executable, params).run().cycles
        snapshots = []
        traced = PipelineTracer(executable, params).run(
            snapshots.append, max_cycles=10 * expected)
        assert traced == len(snapshots) == expected

    def test_a_model_that_stops_early_raises_everywhere(self, monkeypatch):
        def stops_early(simulator):
            yield CYCLE_BOUNDARY  # and returns without Finished

        monkeypatch.setattr(DetailedSimulator, "run", stops_early)
        exe = assemble(PROGRAM)
        for run in (lambda: SlowSim(exe).run(),
                    lambda: trace_pipeline(exe, max_cycles=1000),
                    lambda: SamplingSimulator(exe, period=4, window=2).run()):
            with pytest.raises(SimulationError, match="ended unexpectedly"):
                run()
