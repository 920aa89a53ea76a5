"""Tests for the trace-sampling simulator (the accuracy-trading
alternative FastSim is positioned against)."""

import pytest

from repro.emulator.functional import run_program
from repro.errors import SimulationError
from repro.isa import assemble
from repro.sim.sampling import SamplingSimulator
from repro.sim.slowsim import SlowSim
from repro.workloads import load_workload

STEADY_LOOP = """
main:
    set buf, %l0
    mov 400, %l1
loop:
    ld [%l0], %l2
    add %l2, %l1, %l2
    st %l2, [%l0]
    subcc %l1, 1, %l1
    bne loop
    out %l2
    halt
    .data
buf: .word 1
"""


class TestArchitecturalExactness:
    """Sampling approximates *time*, never *behaviour*."""

    def test_output_exact(self):
        exe = assemble(STEADY_LOOP)
        reference = run_program(assemble(STEADY_LOOP))
        result = SamplingSimulator(exe, period=300, window=80).run()
        assert result.output == reference.output
        assert result.instructions == reference.instret

    @pytest.mark.parametrize("name", ["compress", "mgrid", "li"])
    def test_workload_output_exact(self, name):
        exe = load_workload(name, "tiny")
        reference = run_program(load_workload(name, "tiny"))
        result = SamplingSimulator(exe, period=250, window=60,
                                   warmup=15).run()
        assert result.output == reference.output
        assert result.instructions == reference.instret


class TestEstimationQuality:
    def test_steady_loop_estimates_well(self):
        """On a homogeneous program the estimate lands close."""
        exact = SlowSim(assemble(STEADY_LOOP)).run()
        result = SamplingSimulator(assemble(STEADY_LOOP),
                                   period=400, window=120, warmup=30).run()
        assert result.error_vs(exact.cycles) < 0.30

    def test_estimate_is_a_real_number(self):
        result = SamplingSimulator(assemble(STEADY_LOOP)).run()
        assert result.estimated_cycles > 0

    def test_windows_recorded(self):
        result = SamplingSimulator(assemble(STEADY_LOOP), period=300,
                                   window=80).run()
        assert len(result.windows) >= 2
        for window in result.windows:
            assert window.cycles >= 1
            assert window.instructions >= 1

    def test_measured_fraction(self):
        result = SamplingSimulator(assemble(STEADY_LOOP), period=400,
                                   window=100, warmup=0).run()
        assert 0 < result.measured_fraction < 1

    def test_sampling_not_exact_in_general(self):
        """The whole point: sampling has error where FastSim has none.

        (Not asserted as `> 0` — a lucky estimate can land exactly — but
        the estimate is a float extrapolation, not a measured count.)"""
        exact = SlowSim(assemble(STEADY_LOOP)).run()
        result = SamplingSimulator(assemble(STEADY_LOOP), period=350,
                                   window=70, warmup=20).run()
        assert isinstance(result.estimated_cycles, float)
        assert result.measured_instructions < exact.instructions


class TestWindowIsolation:
    def test_windows_do_not_inherit_outstanding_load_keys(self):
        """Each window opens a fresh world whose lQ indices restart at
        0 over the *shared* memory system. A window that stops with
        loads in flight must not leave their keys behind: a stale key
        would alias the next window's load of the same index (its poll
        would find a ready cycle from another clock domain, and a poll
        of a load never issued would no longer be an error)."""
        sim = SamplingSimulator(load_workload("swim", "tiny"),
                                period=250, window=60, warmup=15)
        memory = sim.memory_system
        reset_timing = memory.reset_timing
        left_behind = []

        def checked_reset():
            left_behind.append(memory.outstanding_loads)
            reset_timing()
            assert memory.outstanding_loads == 0
            assert len(memory.l1_mshrs) == 0 and len(memory.l2_mshrs) == 0
            assert memory.bus.next_free() == 0
            with pytest.raises(SimulationError, match="never issued"):
                memory.poll_load(0, 0)

        memory.reset_timing = checked_reset
        sim.run()
        assert len(left_behind) >= 2
        # The reset had something to clear: some window did stop with
        # loads outstanding.
        assert any(left_behind)


class TestSpeed:
    def test_sampling_faster_than_detailed(self):
        exe = load_workload("compress", "tiny")
        exact = SlowSim(exe).run()
        result = SamplingSimulator(load_workload("compress", "tiny"),
                                   period=500, window=60, warmup=10).run()
        # Less detailed simulation is where the speed comes from; host
        # timings of runs this short are noise.
        assert result.measured_instructions < exact.instructions


class TestValidation:
    def test_window_larger_than_period_rejected(self):
        with pytest.raises(ValueError):
            SamplingSimulator(assemble(STEADY_LOOP), period=100, window=200)

    def test_warmup_must_fit_window(self):
        with pytest.raises(ValueError):
            SamplingSimulator(assemble(STEADY_LOOP), period=100,
                              window=50, warmup=50)

    def test_instruction_limit(self):
        # A non-terminating loop with conditional branches (control
        # events keep the frontend's run-ahead bounded).
        exe = assemble("main: mov 1, %l0\nloop: tst %l0\nbne loop\nhalt")
        with pytest.raises(SimulationError):
            SamplingSimulator(exe, period=100, window=10).run(
                max_instructions=500
            )

    def test_instruction_limit_straight_line_loop(self):
        # An infinite loop with NO control events: the frontend budget
        # threaded through the sampling simulator must still stop it.
        exe = assemble("main: loop: add %l0, 1, %l0\nba loop")
        with pytest.raises(SimulationError):
            SamplingSimulator(exe, period=100, window=10).run(
                max_instructions=2000
            )

    def test_tiny_program_shorter_than_skip(self):
        exe = assemble("main: mov 1, %l0\nout %l0\nhalt")
        result = SamplingSimulator(exe, period=1000, window=100).run()
        assert result.output == [1]
        assert result.estimated_cycles > 0
