"""Property-based tests for the configuration codec.

Complements tests/uarch/test_config_codec.py (which round-trips states
harvested from real simulation) with hypothesis-generated states that
probe the encoding's bit-level limits — the 3-bit stage field, the
11-bit timer, the branch/mispredict bits, indirect-target records —
and with assertions that :data:`CONFIG_FIELD_MANIFEST` is exactly what
:func:`encode_config` serializes (the memo-safety lint trusts it).

:func:`reference_encode_config` is the per-field encoder
``encode_config`` was before it became one walk and one
``struct.pack``; it lives here as the oracle, not as a second path.
"""

import inspect
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigCodecError
from repro.isa import assemble
from repro.uarch.config_codec import (
    CONFIG_FIELD_MANIFEST,
    decode_config,
    encode_config,
)
from repro.uarch.iq import IQEntry, InstructionQueue, MAX_TIMER, Stage

# A program with a straight-line run, a conditional branch (both arms
# valid), and an indirect jump — every control shape the walk handles.
PROGRAM = """
main:
    clr %l0
    clr %l1
    clr %l2
    add %l0, 1, %l0
    add %l1, 2, %l1
    add %l2, 3, %l2
    add %l0, %l1, %l3
    add %l3, %l2, %l3
    cmp %l3, 9
    be over
    add %l3, 1, %l3
    add %l3, 2, %l3
over:
    add %l3, 4, %l4
    add %l4, 5, %l5
    out %l5
    halt
"""

EXE = assemble(PROGRAM)

# Addresses of the straight-line prefix (safe to start a walk at).
_STRAIGHT = [EXE.text_base + 4 * i for i in range(8)]

entry_state = st.tuples(
    st.sampled_from(list(Stage)),
    st.integers(min_value=0, max_value=MAX_TIMER),
    st.booleans(),
    st.booleans(),
)


def _mk_entry(address, state):
    stage, timer, pred_taken, mispredicted = state
    return IQEntry(EXE.instruction_at(address), stage=stage, timer=timer,
                   pred_taken=pred_taken, mispredicted=mispredicted)


def _assert_round_trip(entries, fetch_pc, stalled, halted):
    blob = encode_config(entries, fetch_pc, stalled, halted)
    decoded, d_pc, d_stalled, d_halted = decode_config(blob, EXE)
    assert decoded == entries
    assert (d_stalled, d_halted) == (stalled, halted)
    if stalled or halted:
        assert d_pc is None
    else:
        assert d_pc == fetch_pc
    # Re-encoding is the identity: the blob is a canonical form.
    assert encode_config(decoded, d_pc, d_stalled, d_halted) == blob


class TestGeneratedStatesRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=3),
        states=st.lists(entry_state, min_size=1, max_size=5),
    )
    def test_straight_line_walks(self, start, states):
        """Any per-entry state combination survives the round trip."""
        entries = [
            _mk_entry(_STRAIGHT[start + i], state)
            for i, state in enumerate(states)
            if start + i < len(_STRAIGHT)
        ]
        _assert_round_trip(
            entries, entries[-1].instr.fall_through, False, False
        )

    @settings(max_examples=60, deadline=None)
    @given(
        branch_state=entry_state,
        taken=st.booleans(),
        follow=st.integers(min_value=0, max_value=2),
        states=st.lists(entry_state, min_size=0, max_size=2),
    )
    def test_branch_bit_steers_the_walk(self, branch_state, taken,
                                        follow, states):
        """The stored branch bit reconstructs whichever arm fetch
        actually followed — the heart of the paper's compression."""
        branch = EXE.instruction_at(EXE.symbol("over") - 12)
        assert branch.is_conditional_branch
        stage, timer, _, mispredicted = branch_state
        entries = [IQEntry(branch, stage=stage, timer=timer,
                           pred_taken=taken, mispredicted=mispredicted)]
        address = branch.target if taken else branch.fall_through
        for state in states[:follow]:
            entries.append(_mk_entry(address, state))
            address = entries[-1].instr.fall_through
        _assert_round_trip(entries, address, False, False)

    @settings(max_examples=40, deadline=None)
    @given(
        state=entry_state,
        stalled=st.booleans(),
        halted=st.booleans(),
    )
    def test_flag_combinations(self, state, stalled, halted):
        entries = [_mk_entry(_STRAIGHT[0], state)]
        _assert_round_trip(
            entries,
            None if (stalled or halted) else _STRAIGHT[1],
            stalled, halted,
        )

    @settings(max_examples=40, deadline=None)
    @given(timer=st.integers(min_value=0, max_value=MAX_TIMER))
    def test_timer_boundary_values_encode(self, timer):
        """Every value the 11-bit field can hold round-trips, up to
        and including MAX_TIMER itself."""
        entries = [_mk_entry(_STRAIGHT[0], (Stage.EXEC, timer,
                                            False, False))]
        _assert_round_trip(entries, _STRAIGHT[1], False, False)

    @settings(max_examples=20, deadline=None)
    @given(excess=st.integers(min_value=1, max_value=1 << 16))
    def test_timer_overflow_rejected(self, excess):
        """Values past the 11-bit limit must raise, never truncate —
        silent wraparound would alias distinct configurations."""
        entry = _mk_entry(
            _STRAIGHT[0], (Stage.EXEC, 0, False, False)
        )
        entry.timer = MAX_TIMER + excess
        with pytest.raises(ConfigCodecError):
            encode_config([entry], _STRAIGHT[1], False, False)

    def test_stage_field_fits_three_bits(self):
        """The codec packs stage into 3 bits; the enum must fit."""
        assert max(Stage) <= 0b111
        for stage in Stage:
            entries = [_mk_entry(_STRAIGHT[0], (stage, 0, False, False))]
            _assert_round_trip(entries, _STRAIGHT[1], False, False)


def reference_encode_config(entries, fetch_pc, fetch_stalled, fetch_halted):
    """The encoder as the format table in ``config_codec`` reads: a
    header, then one ``to_bytes`` per entry, then one per target."""
    if len(entries) > 255:
        raise ConfigCodecError(f"too many iQ entries: {len(entries)}")
    flags = (1 if fetch_stalled else 0) | (2 if fetch_halted else 0)
    start = entries[0].instr.address if entries else 0
    out = bytearray(
        struct.pack(">BBII", flags, len(entries), fetch_pc or 0, start)
    )
    indirect_targets = []
    for entry in entries:
        timer = entry.timer
        if not 0 <= timer <= MAX_TIMER:
            raise ConfigCodecError(
                f"timer {timer} out of encodable range at "
                f"0x{entry.instr.address:x}"
            )
        packed = (
            (int(entry.stage) << 13)
            | ((1 if entry.pred_taken else 0) << 12)
            | ((1 if entry.mispredicted else 0) << 11)
            | timer
        )
        out += packed.to_bytes(2, "big")
        if entry.is_indirect:
            if entry.jump_target is None:
                raise ConfigCodecError(
                    f"indirect jump at 0x{entry.instr.address:x} has no "
                    "recorded target"
                )
            indirect_targets.append(entry.jump_target)
    for target in indirect_targets:
        out += target.to_bytes(4, "big")
    return bytes(out)


# Straight-line code, a conditional branch and an indirect jump: the
# encoder reads entry fields and never walks, so any mix is an input.
_MIXED = assemble("""
main:
    add %l0, 1, %l0
    cmp %l0, 9
    be main
    nop
    jmpl [%ra], %g0
    nop
    halt
""")
_ADDRESSES = [_MIXED.text_base + 4 * i for i in range(7)]

any_entry = st.builds(
    IQEntry,
    st.sampled_from(_ADDRESSES).map(_MIXED.instruction_at),
    stage=st.sampled_from(list(Stage)),
    # 0..MAX_TIMER, weighted toward the ends and one past either end.
    timer=st.one_of(st.integers(min_value=0, max_value=MAX_TIMER),
                    st.sampled_from([-1, 0, MAX_TIMER, MAX_TIMER + 1])),
    pred_taken=st.booleans(),
    mispredicted=st.booleans(),
    jump_target=st.one_of(st.none(), st.sampled_from(_ADDRESSES)),
)
#: Mostly encodable entries, so long lists get past the first check.
sound_entry = st.builds(
    IQEntry,
    st.sampled_from(_ADDRESSES).map(_MIXED.instruction_at),
    stage=st.sampled_from(list(Stage)),
    timer=st.integers(min_value=0, max_value=MAX_TIMER),
    pred_taken=st.booleans(),
    mispredicted=st.booleans(),
    jump_target=st.sampled_from(_ADDRESSES),
)


def _outcome(encoder, *args):
    try:
        return encoder(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc)


class TestOneWalkEncoderMatchesTheReference:
    """Equal bytes, or the same exception type, for any entry list."""

    def _assert_same(self, entries, fetch_pc, stalled, halted):
        want = _outcome(reference_encode_config, entries, fetch_pc,
                        stalled, halted)
        assert _outcome(encode_config, entries, fetch_pc, stalled,
                        halted) == want
        return want

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.one_of(st.lists(any_entry, max_size=12),
                          st.lists(sound_entry, max_size=40)),
        fetch_pc=st.one_of(st.none(), st.sampled_from(_ADDRESSES)),
        stalled=st.booleans(),
        halted=st.booleans(),
    )
    def test_arbitrary_entry_lists(self, entries, fetch_pc, stalled,
                                   halted):
        self._assert_same(entries, fetch_pc, stalled, halted)

    @pytest.mark.parametrize("count", [0, 1, 255, 256])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_entry_count_limits(self, count, data):
        entries = data.draw(st.lists(sound_entry, min_size=count,
                                     max_size=count))
        want = self._assert_same(entries, _ADDRESSES[0], False, False)
        assert (want is ConfigCodecError) == (count == 256)

    @pytest.mark.parametrize("stalled", [False, True])
    @pytest.mark.parametrize("halted", [False, True])
    def test_each_check_raises_for_the_same_inputs(self, stalled, halted):
        jump = _MIXED.instruction_at(_ADDRESSES[4])
        assert jump.is_indirect_jump
        plain = _MIXED.instruction_at(_ADDRESSES[0])
        cases = {
            "timer-below": [IQEntry(plain, timer=-1)],
            "timer-above": [IQEntry(plain, timer=MAX_TIMER + 1)],
            "no-target": [IQEntry(jump, stage=Stage.DONE)],
            # The walk reports whichever comes first in queue order.
            "target-then-timer": [IQEntry(jump),
                                  IQEntry(plain, timer=-1)],
        }
        for label, entries in cases.items():
            assert self._assert_same(entries, None, stalled, halted) \
                is ConfigCodecError, label
        with_target = [IQEntry(jump, stage=Stage.DONE,
                               jump_target=_ADDRESSES[6])]
        blob = self._assert_same(with_target, None, stalled, halted)
        assert blob[-4:] == _ADDRESSES[6].to_bytes(4, "big")


class TestManifestMatchesCodec:
    """CONFIG_FIELD_MANIFEST is the contract the memo-safety lint
    enforces against the simulator sources; these tests pin it to what
    the codec actually does."""

    def test_entry_manifest_is_exactly_iqentry_slots(self):
        assert CONFIG_FIELD_MANIFEST["entry"] == frozenset(
            IQEntry.__slots__
        )

    def test_queue_manifest_is_exactly_queue_slots(self):
        assert CONFIG_FIELD_MANIFEST["queue"] == frozenset(
            InstructionQueue.__slots__
        )

    def test_pipeline_manifest_matches_encode_signature(self):
        """encode_config's parameters are the pipeline group (the iQ
        passed as its entries list)."""
        parameters = set(
            inspect.signature(encode_config).parameters
        )
        expected = (
            CONFIG_FIELD_MANIFEST["pipeline"] - {"iq"}
        ) | {"entries"}
        assert parameters == expected

    def test_every_entry_field_reaches_the_encoding(self):
        """Mutating any manifest-listed entry field changes the blob —
        no listed field is dead weight, so the manifest neither over-
        nor under-claims what the key contains."""
        jmpl = assemble(
            "main: jmpl [%ra], %g0\nnop\nhalt"
        )
        base = IQEntry(jmpl.instruction_at(jmpl.entry), stage=Stage.DONE,
                       timer=3, pred_taken=False, mispredicted=False,
                       jump_target=jmpl.entry + 8)
        reference = encode_config([base], None, True, False)

        variants = {
            "instr": IQEntry(jmpl.instruction_at(jmpl.entry + 4),
                             stage=Stage.DONE, timer=3),
            "stage": IQEntry(base.instr, stage=Stage.QUEUE, timer=3,
                             jump_target=base.jump_target),
            "timer": IQEntry(base.instr, stage=Stage.DONE, timer=4,
                             jump_target=base.jump_target),
            "pred_taken": IQEntry(base.instr, stage=Stage.DONE, timer=3,
                                  pred_taken=True,
                                  jump_target=base.jump_target),
            "mispredicted": IQEntry(base.instr, stage=Stage.DONE, timer=3,
                                    mispredicted=True,
                                    jump_target=base.jump_target),
            "jump_target": IQEntry(base.instr, stage=Stage.DONE, timer=3,
                                   jump_target=jmpl.entry + 4),
        }
        assert set(variants) == set(CONFIG_FIELD_MANIFEST["entry"])
        for field, variant in variants.items():
            assert encode_config([variant], None, True, False) != \
                reference, field
