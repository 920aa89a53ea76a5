"""Whole-stack integration scenarios.

Each test exercises the full pipeline a user would run: generate or
assemble a program, simulate under multiple engines, compare against
functional execution, and feed results through the analysis layer.
"""

import pytest

from repro import assemble
from repro.analysis import table2, table4
from repro.api import run_campaign
from repro.branch import BimodalPredictor
from repro.emulator.functional import run_program
from repro.memo.dump import cache_summary
from repro.memo.policies import FlushOnFullPolicy
from repro.sim.baseline import IntegratedSimulator
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim
from repro.uarch.params import ProcessorParams
from repro.uarch.trace import trace_pipeline
from repro.workloads import load_workload


class TestEndToEndWorkload:
    """One workload through every component."""

    NAME = "li"

    @pytest.fixture(scope="class")
    def trio(self):
        fast = FastSim(load_workload(self.NAME, "tiny")).run()
        slow = SlowSim(load_workload(self.NAME, "tiny")).run()
        base = IntegratedSimulator(load_workload(self.NAME, "tiny")).run()
        return fast, slow, base

    def test_three_simulators_agree_architecturally(self, trio):
        fast, slow, base = trio
        reference = run_program(load_workload(self.NAME, "tiny"))
        for result in trio:
            assert result.output == reference.output
            assert result.instructions == reference.instret

    def test_memoized_exactness(self, trio):
        fast, slow, _ = trio
        assert fast.timing_equal(slow)

    def test_baseline_timing_close(self, trio):
        fast, _, base = trio
        assert abs(base.cycles - fast.cycles) / fast.cycles < 0.1

    def test_pcache_inspectable(self):
        exe = load_workload(self.NAME, "tiny")
        sim = FastSim(exe)
        sim.run()
        summary = cache_summary(sim.pcache)
        assert "configurations indexed" in summary

    def test_traceable(self):
        cycles = trace_pipeline(load_workload(self.NAME, "tiny"),
                                max_cycles=20)
        assert len(cycles) == 20


class TestReadmeQuickstart:
    """The README's code example must actually work as written."""

    SOURCE = """
main:
    mov 100, %l0
    clr %l1
loop:
    add %l1, %l0, %l1
    subcc %l0, 1, %l0
    bne loop
    out %l1                 ! emit 5050
    halt
"""

    def test_quickstart_snippet(self):
        fast = FastSim(assemble(self.SOURCE)).run()
        slow = SlowSim(assemble(self.SOURCE)).run()
        assert fast.timing_equal(slow)
        assert fast.output == [5050]
        # Memoization did the bulk of the work (host timings of a
        # sub-50 ms run are noise, so the claim is stated in counts).
        assert (fast.memo.replayed_instructions
                > fast.memo.detailed_instructions)


class TestAnalysisPipeline:
    def test_tables_from_shared_runner(self):
        shared = run_campaign(["perl"], ("fast", "slow"), scale="tiny",
                              include_native=True, workers=0)
        rows2 = table2(["perl"], scale="tiny", result=shared)
        rows4 = table4(["perl"], scale="tiny", result=shared)
        assert rows2[0].speedup > 0.0  # a ratio of two measured times
        assert (rows4[0].replayed_instructions
                > rows4[0].detailed_instructions)
        total = (rows4[0].detailed_instructions
                 + rows4[0].replayed_instructions)
        assert total == shared["perl:fast:tiny"].result.instructions


class TestCrossConfigurationMatrix:
    """Exactness across the (params × policy × predictor) grid."""

    SOURCE = """
main:
    set buf, %l0
    mov 25, %l1
loop:
    ld [%l0], %l2
    add %l2, %l1, %l2
    st %l2, [%l0]
    subcc %l1, 1, %l1
    bne loop
    out %l2
    halt
    .data
buf: .word 3
"""

    @pytest.mark.parametrize("params_factory",
                             [ProcessorParams.r10k, ProcessorParams.narrow],
                             ids=["r10k", "narrow"])
    @pytest.mark.parametrize("limit", [None, 2048])
    def test_grid(self, params_factory, limit):
        params = params_factory()
        policy = FlushOnFullPolicy(limit) if limit else None
        slow = SlowSim(assemble(self.SOURCE), params=params,
                       predictor=BimodalPredictor()).run()
        fast = FastSim(assemble(self.SOURCE), params=params,
                       predictor=BimodalPredictor(), policy=policy).run()
        assert fast.timing_equal(slow)
