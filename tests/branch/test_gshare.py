"""Tests for the gshare predictor (the ablation-axis predictor)."""

import pytest
from hypothesis import given, strategies as st

from repro.branch import BimodalPredictor, GsharePredictor
from repro.isa import assemble
from repro.sim.fastsim import FastSim
from repro.sim.slowsim import SlowSim


class TestGshareBasics:
    def test_learns_constant_direction(self):
        # The history register must saturate (history_bits outcomes)
        # before the index stabilises; then two updates train the counter.
        predictor = GsharePredictor(history_bits=4)
        pc = 0x10000
        for _ in range(8):
            predictor.predict_and_update(pc, True)
        assert predictor.predict_and_update(pc, True) is True

    def test_history_separates_contexts(self):
        """The same branch with alternating outcomes is learnable by
        gshare (distinct history → distinct counters) but not by a
        bimodal counter."""
        pattern = [True, False] * 200
        gshare_miss = _mispredicts(GsharePredictor(), pattern)
        bimodal_miss = _mispredicts(BimodalPredictor(), pattern)
        assert gshare_miss < bimodal_miss
        assert gshare_miss < len(pattern) * 0.1  # pattern learned

    def test_period_four_pattern(self):
        pattern = [True, True, True, False] * 150
        gshare_miss = _mispredicts(GsharePredictor(), pattern)
        assert gshare_miss < len(pattern) * 0.15

    def test_reset(self):
        predictor = GsharePredictor()
        for _ in range(10):
            predictor.predict_and_update(0x10000, True)
        predictor.reset()
        assert predictor._history == 0
        assert predictor.predictions == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            GsharePredictor(entries=500)
        with pytest.raises(ValueError):
            GsharePredictor(history_bits=0)


def _mispredicts(predictor, outcomes, pc=0x10000):
    misses = 0
    for taken in outcomes:
        if predictor.predict_and_update(pc, taken) != taken:
            misses += 1
    return misses


class TestGshareInSimulation:
    SOURCE = """
main:
    mov 120, %l6
    clr %l7
loop:
    and %l6, 1, %l0         ! alternating branch: gshare's home turf
    tst %l0
    be even
    add %l7, 3, %l7
even:
    add %l7, 1, %l7
    subcc %l6, 1, %l6
    bne loop
    out %l7
    halt
"""

    def test_exact_under_memoization(self):
        slow = SlowSim(assemble(self.SOURCE),
                       predictor=GsharePredictor()).run()
        fast = FastSim(assemble(self.SOURCE),
                       predictor=GsharePredictor()).run()
        assert fast.timing_equal(slow)

    def test_beats_bimodal_on_alternating_branch(self):
        gshare = SlowSim(assemble(self.SOURCE),
                         predictor=GsharePredictor()).run()
        bimodal = SlowSim(assemble(self.SOURCE),
                          predictor=BimodalPredictor()).run()
        assert (gshare.sim_stats.mispredictions
                < bimodal.sim_stats.mispredictions)
        assert gshare.cycles < bimodal.cycles
        assert gshare.output == bimodal.output


@given(st.lists(st.booleans(), min_size=1, max_size=300))
def test_counters_stay_in_range(outcomes):
    predictor = GsharePredictor(entries=8, history_bits=3)
    for taken in outcomes:
        predictor.predict_and_update(0x10000, taken)
    assert all(0 <= c <= 3 for c in predictor._table)
    assert 0 <= predictor._history < 8
