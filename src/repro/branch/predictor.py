"""Branch predictors.

The paper's processor model (Table 1) uses a 2-bit, 512-entry branch
history table; :class:`BimodalPredictor` reproduces it. The static
predictors exist for ablation benchmarks (how does memoization fare as
prediction quality changes?).

The predictor is deliberately *not* part of the memoized
μ-architecture state: FastSim's predictor is consulted by the
direct-execution instrumentation, and its influence reaches the timing
model only through the recorded predicted/actual outcome of each
branch — which is exactly an outcome edge in the p-action cache.
"""

from __future__ import annotations

from typing import List

TAKEN_THRESHOLD = 2  #: 2-bit counter values 2, 3 predict taken


class BranchPredictor:
    """Interface: predict a conditional branch and train on its outcome."""

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Return the predicted direction for the branch at *pc* and
        immediately train the predictor with the evaluated direction.

        The combined operation mirrors FastSim's instrumentation, which
        consults the predictor at execution time (including on wrong
        paths) in a single step.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all history."""

    @property
    def mispredictions(self) -> int:
        return self._mispredictions

    @property
    def predictions(self) -> int:
        return self._predictions

    _mispredictions = 0
    _predictions = 0

    def _tally(self, predicted: bool, taken: bool) -> None:
        self._predictions += 1
        if predicted != taken:
            self._mispredictions += 1


class BimodalPredictor(BranchPredictor):
    """2-bit saturating-counter branch history table (paper Table 1).

    Indexed by branch PC word-address bits; 512 entries by default.
    Counters start at 1 (weakly not-taken).
    """

    def __init__(self, entries: int = 512):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"table size must be a power of two: {entries}")
        self.entries = entries
        self._table: List[int] = [1] * entries
        self._mispredictions = 0
        self._predictions = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        # One call per conditional branch: ``_index``/``_tally`` are
        # inlined here (same arithmetic as the helpers).
        table = self._table
        index = (pc >> 2) & (self.entries - 1)
        counter = table[index]
        predicted = counter >= TAKEN_THRESHOLD
        if taken:
            if counter < 3:
                table[index] = counter + 1
        else:
            if counter > 0:
                table[index] = counter - 1
        self._predictions += 1
        if predicted != taken:
            self._mispredictions += 1
        return predicted

    def reset(self) -> None:
        self._table = [1] * self.entries
        self._mispredictions = 0
        self._predictions = 0


class GsharePredictor(BranchPredictor):
    """Global-history XOR-indexed 2-bit counters (McFarling's gshare).

    Not in the paper's 1998 model — provided as an ablation axis: better
    prediction means fewer rollbacks and fewer distinct control
    outcomes, which shifts both simulation speed and p-action cache
    shape. History length defaults to 8 bits.
    """

    def __init__(self, entries: int = 512, history_bits: int = 8):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"table size must be a power of two: {entries}")
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self.entries = entries
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._table: List[int] = [1] * entries
        self._history = 0
        self._mispredictions = 0
        self._predictions = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & (self.entries - 1)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        index = self._index(pc)
        counter = self._table[index]
        predicted = counter >= TAKEN_THRESHOLD
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        else:
            if counter > 0:
                self._table[index] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) \
            & self._history_mask
        self._tally(predicted, taken)
        return predicted

    def reset(self) -> None:
        self._table = [1] * self.entries
        self._history = 0
        self._mispredictions = 0
        self._predictions = 0


class AlwaysTakenPredictor(BranchPredictor):
    """Predicts every branch taken (ablation baseline)."""

    def __init__(self) -> None:
        self._mispredictions = 0
        self._predictions = 0

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        self._tally(True, taken)
        return True

    def reset(self) -> None:
        self._mispredictions = 0
        self._predictions = 0


class NotTakenPredictor(BranchPredictor):
    """Predicts every branch not taken (ablation baseline)."""

    def __init__(self) -> None:
        self._mispredictions = 0
        self._predictions = 0

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        self._tally(False, taken)
        return False

    def reset(self) -> None:
        self._mispredictions = 0
        self._predictions = 0


class StaticBTFNPredictor(BranchPredictor):
    """Backward-taken / forward-not-taken static prediction.

    Needs the branch target to classify direction; the frontend passes
    branch PCs only, so this predictor receives the target through
    :meth:`set_target_resolver` (a callable mapping pc -> target).
    """

    def __init__(self, target_resolver=None):
        self._resolve = target_resolver
        self._mispredictions = 0
        self._predictions = 0

    def set_target_resolver(self, resolver) -> None:
        self._resolve = resolver

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        target = self._resolve(pc) if self._resolve else pc + 4
        predicted = target <= pc
        self._tally(predicted, taken)
        return predicted

    def reset(self) -> None:
        self._mispredictions = 0
        self._predictions = 0
