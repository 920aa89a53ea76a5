"""One container-level suite for the three CRC-framed files.

FSPC (``.fspc``), FSSG (``.fsseg``) and FSCJ (the campaign journal)
share :mod:`repro.framing`; this suite damages real files byte by byte
and holds each format's *public* reader to its contract:

* a **sealed** file (FSPC, FSSG) has no un-checked byte — every
  truncation, appended byte and bit flip makes the strict read raise
  the format's error, naming record and offset; the salvage read keeps
  exactly the frames that are still whole;
* an **open-ended** file (FSCJ) keeps every record before the damage,
  counts one torn frame, and never raises once its preamble is intact.

What a format does *with* the survivors (salvaged output is identical,
quarantine then recompile, resume skips completed jobs) is tested next
to that format. The byte goldens at the end pin the formats themselves:
they were generated at the commit before ``repro.framing`` existed.
"""

import hashlib
import io
import json
import os
import random
from typing import Callable, List, NamedTuple, Optional, Tuple

import pytest

import repro.api as api
from repro.campaign.supervise import CampaignJournal, read_journal
from repro.errors import (
    CampaignError,
    CorruptRecordError,
    PCacheCorruptError,
    SegStoreCorruptError,
)
from repro.isa import assemble
from repro.memo import segstore
from repro.memo.persist import read_pcache, write_pcache
from repro.sim.fastsim import FastSim
from repro.workloads import load_workload

BIT_FLIP_SAMPLES = 512
FUZZ_SEED = 0x5EED


class Format(NamedTuple):
    blob: bytes  #: a clean file
    sealed: bool
    error: type  #: the only exception the reader may raise
    first_frame: int  #: offset of frame 0 (the header's length)
    #: Tolerant read: the surviving records, in file order.
    survivors: Callable[[bytes], list]
    #: (record, offset) of the damage the reader reports, offset None
    #: when the format does not say; None when it reports no damage.
    damage: Callable[[bytes], Optional[Tuple[int, Optional[int]]]]


def _located(read, error):
    def damage(data):
        try:
            read(data)
        except error as exc:
            assert isinstance(exc, CorruptRecordError)
            for part in (exc.record, exc.offset):
                assert part < 0 or str(part) in str(exc)
            return exc.record, exc.offset
        return None
    return damage


#: Small on purpose — the truncation test reads every prefix twice —
#: but with every node kind: loads, stores, a loop branch, output.
LOOP = """
main:   mov 6, %l0
        clr %l1
loop:   add %l1, %l0, %l1
        st %l1, [%sp]
        ld [%sp], %l2
        subcc %l0, 1, %l0
        bne loop
        nop
        out %l1
        halt
"""


def _fspc() -> Format:
    sim = FastSim(assemble(LOOP))
    assert sim.run().output == [21]
    stream = io.BytesIO()
    write_pcache(sim.pcache, stream)
    signature = sim.pcache._bound_program

    def survivors(data):
        cache = read_pcache(io.BytesIO(data), strict=False)
        # Nodes have no identity outside the graph: count them.
        return [None] * (cache.configs_allocated + cache.actions_allocated)

    return Format(stream.getvalue(), True, PCacheCorruptError,
                  10 + 4 + 2 + len(signature) + 4, survivors,
                  _located(lambda data: read_pcache(io.BytesIO(data)),
                           PCacheCorruptError))


def _fssg() -> Format:
    sim = FastSim(load_workload("perl", "tiny"),
                  turbo_threshold=2)
    sim.run()
    blob = segstore.dumps(segstore.capture(sim.pcache))
    return Format(blob, True, SegStoreCorruptError, 10 + 4 + 4 + 4,
                  lambda data: segstore.loads(data, strict=False).records,
                  _located(segstore.loads, SegStoreCorruptError))


def _fscj(tmp_path) -> Format:
    path = str(tmp_path / "clean.journal")
    with CampaignJournal(path) as journal:
        journal.append("campaign-open", name="j", backend="fork",
                       jobs=["a:fast:tiny", "b:fast:tiny"])
        for key in ("a:fast:tiny", "b:fast:tiny"):
            journal.append("attempt", key=key, attempt=1)
        journal.append("campaign-end", name="j", failed=0)
    with open(path, "rb") as stream:
        blob = stream.read()
    damaged = str(tmp_path / "damaged.journal")

    def replay(data):
        with open(damaged, "wb") as stream:
            stream.write(data)
        return read_journal(damaged)

    def damage(data):
        try:
            found = replay(data)
        except CampaignError:
            return -1, None
        if found.torn_records:
            assert found.torn_records == 1
            return len(found.records), None
        return None

    return Format(blob, False, CampaignError, 10,
                  lambda data: replay(data).records, damage)


@pytest.fixture(scope="module", params=["FSPC", "FSSG", "FSCJ"])
def fmt(request, tmp_path_factory) -> Format:
    if request.param == "FSPC":
        return _fspc()
    if request.param == "FSSG":
        return _fssg()
    return _fscj(tmp_path_factory.mktemp("fscj"))


def _frames(fmt: Format) -> List[Tuple[int, int]]:
    """(start, end) of every frame, walked independently of the codec."""
    body_end = len(fmt.blob) - (32 if fmt.sealed else 0)
    spans, pos = [], fmt.first_frame
    while pos < body_end:
        end = pos + 8 + int.from_bytes(fmt.blob[pos:pos + 4], "big")
        spans.append((pos, end))
        pos = end
    assert pos == body_end and len(spans) >= 3
    return spans


def _flip(blob: bytes, offset: int, bit: int) -> bytes:
    damaged = bytearray(blob)
    damaged[offset] ^= 1 << bit
    return bytes(damaged)


class TestCleanFile:
    def test_reads_back_every_record_and_reports_nothing(self, fmt):
        assert len(fmt.survivors(fmt.blob)) == len(_frames(fmt))
        assert fmt.damage(fmt.blob) is None


class TestTruncation:
    def test_every_truncation_point(self, fmt):
        """Sealed: every prefix is damaged. Open-ended: a cut between
        frames is just a shorter file, any other cut one torn frame.
        Either way exactly the whole frames before the cut survive."""
        clean = fmt.survivors(fmt.blob)
        ends = [end for _, end in _frames(fmt)]
        boundaries = {0, fmt.first_frame, *ends}
        for cut in range(len(fmt.blob)):
            data = fmt.blob[:cut]
            if fmt.sealed or cut not in boundaries:
                assert fmt.damage(data) is not None, cut
            else:
                assert fmt.damage(data) is None, cut
            if cut < fmt.first_frame and (fmt.sealed or cut):
                with pytest.raises(fmt.error):  # no header, no salvage
                    fmt.survivors(data)
                continue
            whole = sum(1 for end in ends if end <= cut)
            assert fmt.survivors(data) == clean[:whole], cut

    def test_one_appended_byte(self, fmt):
        """After a sealed file's digest nothing may follow; after an
        open-ended file's last frame a stray byte is a torn frame."""
        data = fmt.blob + b"\x00"
        record, _ = fmt.damage(data)
        assert record == (-1 if fmt.sealed else len(_frames(fmt)))
        assert fmt.survivors(data) == fmt.survivors(fmt.blob)


class TestBitFlips:
    def test_seeded_single_bit_flips(self, fmt):
        """No un-checked byte: every flip is reported, none raises
        anything but the format's error, and nothing is invented."""
        rng = random.Random(FUZZ_SEED)
        clean = fmt.survivors(fmt.blob)
        for _ in range(BIT_FLIP_SAMPLES):
            offset = rng.randrange(len(fmt.blob))
            data = _flip(fmt.blob, offset, rng.randrange(8))
            assert fmt.damage(data) is not None, offset
            try:
                survivors = fmt.survivors(data)
            except fmt.error:
                assert offset < fmt.first_frame, offset
                continue
            assert len(survivors) <= len(clean)
            assert all(record in clean for record in survivors)

    def test_damage_names_record_and_offset(self, fmt):
        """A flip inside frame k's payload is reported as record k (at
        the frame's first byte, where the format gives offsets) and
        costs that record — and, open-ended, everything after it."""
        clean = fmt.survivors(fmt.blob)
        for k, (start, end) in enumerate(_frames(fmt)):
            data = _flip(fmt.blob, (start + end) // 2, 4)
            record, offset = fmt.damage(data)
            assert record == k
            assert offset in (None, start)
            kept = clean[:k] + (clean[k + 1:] if fmt.sealed else [])
            assert fmt.survivors(data) == kept


# ---------------------------------------------------------------------------
# Byte goldens (generated at the parent of the repro.framing commit)
# ---------------------------------------------------------------------------

GOLDEN_JOURNAL = (
    b"FSCJ\xff\xff\xff\xff\x00\x01"
    b"\x00\x00\x00["
    b"\x80\x05\x95P\x00\x00\x00\x00\x00\x00\x00}\x94(\x8c\x04kind\x94"
    b"\x8c\x04note\x94\x8c\x03seq\x94K\x00\x8c\x04text\x94\x8c\x06golden"
    b"\x94\x8c\x06schema\x94\x8c\x19repro.campaign/journal/v1\x94u."
    b"\xbb\x9a\xe5\x94"
)

with open(os.path.join(os.path.dirname(__file__),
                       "golden_files.json")) as _stream:
    GOLDEN_FILES = json.load(_stream)


class TestByteGoldens:
    @pytest.mark.parametrize("workload", sorted(GOLDEN_FILES))
    def test_cache_directory_files(self, workload, tmp_path):
        """The ``.fspc`` + ``.fsseg`` pair a cold tiny run leaves."""
        api.simulate(workload, engine="fast", scale="tiny",
                     cache_dir=str(tmp_path))
        written = {}
        for name in os.listdir(tmp_path):
            with open(tmp_path / name, "rb") as stream:
                data = stream.read()
            written[name.rsplit(".", 1)[1]] = {
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        assert written == GOLDEN_FILES[workload]

    def test_journal_header_and_one_frame(self, tmp_path):
        path = str(tmp_path / "golden.journal")
        with CampaignJournal(path) as journal:
            journal.append("note", text="golden")
        with open(path, "rb") as stream:
            assert stream.read() == GOLDEN_JOURNAL

    def test_journal_golden_reads_back(self, tmp_path):
        path = str(tmp_path / "golden.journal")
        with open(path, "wb") as stream:
            stream.write(GOLDEN_JOURNAL)
        (record,) = read_journal(path).records
        assert (record["kind"], record["seq"], record["text"]) == (
            "note", 0, "golden")
