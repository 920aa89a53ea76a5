"""Configuration encoding — compressed iQ snapshots (paper §4.2).

A *configuration* is a snapshot of the iQ between cycles, the key into
the p-action cache. The paper compresses it by exploiting program
order: *"To encode the sequence of instructions in the iQ, we only save
the starting addresses (PC and nPC) of the oldest instructions in the
iQ, plus one bit per conditional branch (taken/not-taken), plus the
target address of any indirect jumps. The iQ's per instruction state
information can be compressed into 1.5 bytes per instruction."*

This codec follows the same scheme:

========  ==========================================================
bytes     contents
========  ==========================================================
0         flags (bit0: fetch stalled on a jump, bit1: fetch halted)
1         number of iQ entries
2–5       fetch PC (0 when fetch is stalled/stopped)
6–9       address of the oldest iQ entry (0 when the iQ is empty)
then      2 bytes per entry: stage(3) | branch-bit(1) | mispred(1)
          | timer(11)
then      4 bytes per indirect jump: recorded target
========  ==========================================================

(Our per-entry state is 2 bytes rather than 1.5 — Python buys no
nibble-packing discount — and the header is 10 bytes rather than 16;
the cost model used for Table 5 / Figure 7 accounting is the encoded
length of exactly these bytes.)

Decoding reverses the walk: starting at the oldest address, each next
instruction address follows statically, except that conditional
branches follow the stored branch bit and indirect jumps use the stored
target — so a configuration fully reconstructs the iQ, which is how
fast-forwarding falls back to detailed simulation at a previously
unseen outcome.
"""

from __future__ import annotations

import struct
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ConfigCodecError
from repro.isa.program import Executable
from repro.uarch.iq import IQEntry, MAX_TIMER, Stage

_HEADER = struct.Struct(">BBII")

#: Extra bytes the paper's encoding would add on top of ours, used by
#: the size-accounting model (paper header is 16 bytes).
PAPER_HEADER_BYTES = 16

#: Machine-readable manifest of exactly the state this codec captures.
#:
#: The configuration blob is the p-action cache **key**: two pipeline
#: states that encode to the same blob share one recorded action chain.
#: Any attribute of the iQ or the detailed simulator that carries state
#: between cycles but is *not* listed here would let two distinct
#: states collide on one key — the classic stale-memoization bug. The
#: ``repro.lint`` memo-safety checker cross-checks the simulator
#: sources against this manifest, and the codec test suite asserts the
#: manifest matches what :func:`encode_config` actually serializes.
#:
#: ``entry``
#:     Per-:class:`IQEntry` state, serialized per entry (``instr`` is
#:     captured by identity — the walk re-derives it from the address).
#: ``queue``
#:     :class:`~repro.uarch.iq.InstructionQueue` attributes:
#:     ``entries`` is the encoded walk itself; ``capacity`` is a bound
#:     derived from the processor parameters.
#: ``pipeline``
#:     :class:`~repro.uarch.detailed.DetailedSimulator` state in the
#:     header (``iq`` expands to the per-entry records).
#: ``signature``
#:     Attributes bound by the run signature instead of the blob
#:     (:func:`repro.memo.engine.run_signature` keys the whole cache
#:     on program text and processor parameters).
CONFIG_FIELD_MANIFEST: Dict[str, FrozenSet[str]] = {
    "entry": frozenset({
        "instr", "stage", "timer", "pred_taken", "mispredicted",
        "jump_target",
    }),
    "queue": frozenset({"entries", "capacity"}),
    "pipeline": frozenset({"iq", "fetch_pc", "fetch_stalled",
                           "fetch_halted"}),
    "signature": frozenset({"executable", "params"}),
}


def encode_config(entries: List[IQEntry], fetch_pc: Optional[int],
                  fetch_stalled: bool, fetch_halted: bool) -> bytes:
    """Encode an iQ snapshot into its compressed byte form.

    One walk over the entries and one ``struct.pack``: a first visit to
    a configuration runs this once per recorded cycle, so it makes no
    Python-level call per entry (docs/performance.md, "The record
    path"; the per-field reference is the oracle in
    ``tests/uarch/test_codec_properties.py``).
    """
    count = len(entries)
    if count > 255:
        raise ConfigCodecError(f"too many iQ entries: {count}")
    words: List[int] = []
    add_word = words.append
    targets: List[int] = []
    for entry in entries:
        timer = entry.timer
        if not 0 <= timer <= MAX_TIMER:
            raise ConfigCodecError(
                f"timer {timer} out of encodable range at "
                f"0x{entry.instr.address:x}"
            )
        add_word(
            entry.stage << 13
            | (4096 if entry.pred_taken else 0)
            | (2048 if entry.mispredicted else 0)
            | timer
        )
        if entry.instr.static.is_indirect:
            target = entry.jump_target
            if target is None:
                raise ConfigCodecError(
                    f"indirect jump at 0x{entry.instr.address:x} has no "
                    "recorded target"
                )
            targets.append(target)
    return struct.pack(
        ">BBII%dH%dI" % (count, len(targets)),
        (1 if fetch_stalled else 0) | (2 if fetch_halted else 0),
        count, fetch_pc or 0, entries[0].instr.address if entries else 0,
        *words, *targets,
    )


def decode_config(
    blob: bytes, executable: Executable
) -> Tuple[List[IQEntry], Optional[int], bool, bool]:
    """Decode a configuration back into ``(entries, fetch_pc,
    fetch_stalled, fetch_halted)``."""
    if len(blob) < _HEADER.size:
        raise ConfigCodecError("configuration too short")
    flags, count, fetch_pc_raw, start = _HEADER.unpack_from(blob)
    fetch_stalled = bool(flags & 1)
    fetch_halted = bool(flags & 2)
    offset = _HEADER.size
    if offset + 2 * count > len(blob):
        raise ConfigCodecError("truncated per-entry state")
    packed_states = struct.unpack_from(f">{count}H", blob, offset)
    offset += 2 * count

    # First pass over the packed states to know how many indirect
    # targets to read is impossible without the instructions, so decode
    # the walk and pull targets lazily.
    targets_offset = offset

    def next_target() -> int:
        nonlocal targets_offset
        if targets_offset + 4 > len(blob):
            raise ConfigCodecError("truncated indirect-jump target")
        value = int.from_bytes(blob[targets_offset:targets_offset + 4], "big")
        targets_offset += 4
        return value

    entries: List[IQEntry] = []
    address = start
    for position, packed in enumerate(packed_states):
        instr = executable.instruction_at(address)
        stage = Stage((packed >> 13) & 0x7)
        pred_taken = bool(packed & (1 << 12))
        mispredicted = bool(packed & (1 << 11))
        timer = packed & MAX_TIMER
        jump_target = next_target() if instr.is_indirect_jump else None
        entry = IQEntry(
            instr,
            stage=stage,
            timer=timer,
            pred_taken=pred_taken,
            mispredicted=mispredicted,
            jump_target=jump_target,
        )
        entries.append(entry)
        if position == len(packed_states) - 1:
            break
        next_address = entry.next_fetch_address()
        if next_address is None:
            raise ConfigCodecError(
                f"cannot walk past entry at 0x{address:x} "
                f"({entry.stage.name})"
            )
        address = next_address
    if targets_offset != len(blob):
        raise ConfigCodecError("trailing bytes in configuration")
    fetch_pc = fetch_pc_raw if fetch_pc_raw else None
    if fetch_halted or fetch_stalled:
        fetch_pc = None
    return entries, fetch_pc, fetch_stalled, fetch_halted


def config_size_bytes(blob: bytes) -> int:
    """Modelled storage cost of a configuration, for Table 5 / Figure 7.

    Uses the encoded length plus the difference between the paper's
    16-byte header and ours, so the numbers are directly comparable to
    the paper's "16 bytes plus 4 bytes per indirect jump plus 1.5 bytes
    per instruction".
    """
    return len(blob) + (PAPER_HEADER_BYTES - _HEADER.size)
