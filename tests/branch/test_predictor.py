"""Tests for branch predictors."""

import pytest
from hypothesis import given, strategies as st

from repro.branch import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    NotTakenPredictor,
    StaticBTFNPredictor,
)


class TestBimodal:
    def test_warms_up_to_taken(self):
        predictor = BimodalPredictor()
        pc = 0x10000
        predictor.predict_and_update(pc, True)   # 1 -> 2
        assert predictor.predict_and_update(pc, True) is True

    def test_initial_prediction_weakly_not_taken(self):
        predictor = BimodalPredictor()
        assert predictor.predict_and_update(0x10000, True) is False

    def test_hysteresis(self):
        predictor = BimodalPredictor()
        pc = 0x10000
        for _ in range(4):
            predictor.predict_and_update(pc, True)  # saturate at 3
        # One not-taken outcome should not flip the prediction.
        predictor.predict_and_update(pc, False)  # 3 -> 2
        assert predictor.predict_and_update(pc, True) is True

    def test_loop_branch_accuracy(self):
        """A 100-iteration loop branch mispredicts only at the edges."""
        predictor = BimodalPredictor()
        pc = 0x20000
        mispredicts = 0
        for _ in range(10):  # 10 executions of a 10-iteration loop
            for i in range(10):
                taken = i != 9
                predicted = predictor.predict_and_update(pc, taken)
                mispredicts += predicted != taken
        assert mispredicts <= 12  # warm-up + one per loop exit

    def test_aliasing_uses_separate_entries(self):
        predictor = BimodalPredictor(entries=512)
        a, b = 0x10000, 0x10004  # adjacent words, different entries
        for _ in range(3):
            predictor.predict_and_update(a, True)
            predictor.predict_and_update(b, False)
        assert predictor.predict_and_update(a, True) is True
        assert predictor.predict_and_update(b, False) is False

    def test_aliased_pcs_share_entry(self):
        predictor = BimodalPredictor(entries=512)
        a = 0x10000
        b = a + 512 * 4  # same index after the 512-entry wrap
        for _ in range(3):
            predictor.predict_and_update(a, True)
        assert predictor.predict_and_update(b, False) is True  # polluted

    def test_reset(self):
        predictor = BimodalPredictor()
        for _ in range(5):
            predictor.predict_and_update(0x10000, True)
        predictor.reset()
        assert predictor.predict_and_update(0x10000, True) is False
        assert predictor.predictions == 1

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=500)

    def test_misprediction_counter(self):
        predictor = BimodalPredictor()
        predictor.predict_and_update(0x10000, True)   # predicted F, was T
        predictor.predict_and_update(0x10000, True)   # predicted T, was T
        assert predictor.predictions == 2
        assert predictor.mispredictions == 1


class TestStaticPredictors:
    def test_always_taken(self):
        predictor = AlwaysTakenPredictor()
        assert predictor.predict_and_update(0, False) is True
        assert predictor.mispredictions == 1

    def test_not_taken(self):
        predictor = NotTakenPredictor()
        assert predictor.predict_and_update(0, False) is False
        assert predictor.mispredictions == 0

    def test_btfn(self):
        targets = {0x100: 0x80, 0x200: 0x300}
        predictor = StaticBTFNPredictor(lambda pc: targets[pc])
        assert predictor.predict_and_update(0x100, True) is True  # backward
        assert predictor.predict_and_update(0x200, True) is False  # forward


@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_bimodal_counter_stays_in_range(outcomes):
    """Property: the 2-bit counter never leaves [0, 3]."""
    predictor = BimodalPredictor(entries=4)
    for taken in outcomes:
        predictor.predict_and_update(0x10000, taken)
    assert all(0 <= c <= 3 for c in predictor._table)


@given(st.lists(st.booleans(), min_size=8, max_size=300))
def test_bimodal_tracks_strong_bias(outcomes):
    """Property: after 4+ identical outcomes, prediction matches the bias."""
    predictor = BimodalPredictor(entries=4)
    for taken in outcomes:
        predictor.predict_and_update(0x10000, taken)
    if len(set(outcomes[-4:])) == 1:
        bias = outcomes[-1]
        assert predictor.predict_and_update(0x10000, bias) is bias
