"""Persistent compiled segments — turbo that survives the process.

A warm FSPC p-cache (:mod:`repro.memo.persist`) lets a run skip
detailed simulation, but every process still pays segment *re-warm-up*
(:data:`~repro.memo.compile.DEFAULT_COMPILE_THRESHOLD` interpreted
traversals per hot head) and recompilation from scratch. This module
persists *which chains were worth compiling* alongside the p-cache, so
a warm run enters the compiled fast path from its very first replay.

What is persisted — and, critically, what is not
------------------------------------------------

A segment archive stores, per live compiled segment:

* the **head-node index** in the deterministic
  :func:`~repro.memo.persist._collect_nodes` ordering (the same
  ordering FSPC serialisation uses, so indices survive a p-cache
  save/load round trip), and
* the chain's **structural digest**
  (:func:`~repro.memo.compile.segment_digest`).

No generated code, bytecode, or pickled closure is ever stored. At
install time the segment is **recompiled from the live graph** with
:func:`~repro.memo.compile.compile_segment` and installed only when its
digest matches the persisted one. Everything executed therefore derives
from the independently-integrity-checked p-cache — a corrupt, stale, or
maliciously altered archive can cause at worst a skipped install (the
head re-warms normally), never a wrong replay. The speed win is real
anyway: the warm-up thresholds vanish, and structurally identical
source hits the process-wide code cache in :mod:`repro.memo.compile`.

On-disk format (``.fsseg``, FSSG version 1): a sealed
:mod:`repro.framing` container — the same preamble, CRC-checked
header, CRC-framed records and SHA-256 trailer as FSPC — holding:

* header fields: u32 p-cache node count (binding: an archive only
  installs against a graph of the same shape), u32 record count;
* one 36-byte record per segment: u32 head index + 32-byte digest.

Damaged input raises :class:`~repro.errors.SegStoreCorruptError`
(strict) or salvages CRC-valid records (``strict=False``); campaign
stores treat corruption as a miss and quarantine the file, exactly
like a corrupt ``.fspc``.
"""

from __future__ import annotations

import io
from typing import BinaryIO, Dict, List, Tuple, Union

from repro.errors import SegStoreCorruptError
from repro.framing import DECODE_ERRORS, Reader, write_sealed
from repro.memo.compile import compile_segment, revalidate, segment_digest
from repro.memo.pcache import PActionCache
from repro.memo.persist import _collect_nodes

MAGIC = b"FSSG"
FORMAT_VERSION = 1
#: SHA-256 digest size (the per-record chain digest).
_DIGEST_BYTES = 32
#: Sanity bound for one framed record payload.
_MAX_RECORD_BYTES = 1 << 16
#: Sanity bound for the record count.
_MAX_RECORDS = 1 << 24

#: One persisted segment: (head-node index, structural chain digest).
SegmentRecord = Tuple[int, bytes]


class SegmentArchive:
    """In-memory form of a persisted segment set."""

    __slots__ = ("node_count", "records")

    def __init__(self, node_count: int, records: List[SegmentRecord]):
        self.node_count = node_count
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (f"<SegmentArchive {len(self.records)} segments over "
                f"{self.node_count} nodes>")


# ---------------------------------------------------------------------------
# Capture / install
# ---------------------------------------------------------------------------

def capture(cache: PActionCache) -> SegmentArchive:
    """Snapshot the live compiled segments of *cache* for persistence.

    Only segments still owned by their head (``head.seg is segment``)
    are captured; dead or superseded table entries are skipped. Heads
    are identified by their index in the same deterministic node
    ordering FSPC serialisation uses.
    """
    nodes = _collect_nodes(cache)
    index_of: Dict[int, int] = {id(n): i for i, n in enumerate(nodes)}
    records: List[SegmentRecord] = []
    table = cache.turbo
    if table is not None:
        generation = cache.graph_generation
        for segment in table.segments:
            head = segment.nodes[0]
            if head.seg is not segment:
                continue
            if segment.generation != generation and not revalidate(
                    segment, generation):
                # The graph changed under this segment and its region
                # did not survive — the engine would discard it at next
                # use, and its digest no longer describes what install
                # would compile. Leave it behind.
                continue
            index = index_of.get(id(head))
            if index is None:
                continue
            records.append((index, segment_digest(segment)))
    return SegmentArchive(len(nodes), records)


def install(archive: SegmentArchive, cache: PActionCache) -> Dict[str, int]:
    """Install persisted segments into *cache*; returns counters.

    Each record's chain is recompiled from the live graph and installed
    only when its structural digest matches — so the result is exactly
    what threshold warm-up would eventually have produced, obtained
    immediately. Returns ``{"installed", "stale", "mismatched"}``
    ("stale" = unresolvable/ineligible head or shape mismatch,
    "mismatched" = chain compiled but its digest differs).
    """
    counters = {"installed": 0, "stale": 0, "mismatched": 0}
    table = cache.turbo
    if table is None:
        counters["stale"] = len(archive.records)
        return counters
    nodes = _collect_nodes(cache)
    if archive.node_count != len(nodes):
        # The archive was captured against a differently-shaped graph
        # (e.g. a salvaged p-cache): indices are meaningless.
        counters["stale"] = len(archive.records)
        return counters
    generation = cache.graph_generation
    for head_index, digest in archive.records:
        if not (0 <= head_index < len(nodes)):
            counters["stale"] += 1
            continue
        head = nodes[head_index]
        if not head.can_head or head.seg is not None:
            counters["stale"] += 1
            continue
        segment = compile_segment(head, generation)
        if segment_digest(segment) != digest:
            counters["mismatched"] += 1
            continue
        head.seg = segment
        head.seg_hits = 0
        table.segments.append(segment)
        table.segments_installed += 1
        counters["installed"] += 1
    return counters


# ---------------------------------------------------------------------------
# Writing / reading
# ---------------------------------------------------------------------------

def write_segments(archive: SegmentArchive, stream: BinaryIO) -> None:
    """Serialise *archive* to *stream* (format described above)."""
    fields = (archive.node_count.to_bytes(4, "big")
              + len(archive.records).to_bytes(4, "big"))
    write_sealed(stream, MAGIC, FORMAT_VERSION, fields,
                 (head_index.to_bytes(4, "big") + chain_digest
                  for head_index, chain_digest in archive.records))


def dumps(archive: SegmentArchive) -> bytes:
    """Serialise *archive* to bytes."""
    stream = io.BytesIO()
    write_segments(archive, stream)
    return stream.getvalue()


def loads(data: bytes, strict: bool = True) -> SegmentArchive:
    """Deserialise an archive written by :func:`write_segments`.

    With ``strict=True`` any integrity violation raises
    :class:`~repro.errors.SegStoreCorruptError`. With ``strict=False``
    CRC-valid records are salvaged and damaged ones dropped — always
    safe, because install recompiles and digest-checks every record
    against the live graph anyway.
    """
    reader = Reader(bytes(data), SegStoreCorruptError)
    try:
        reader.preamble(MAGIC, FORMAT_VERSION, "segment archive")
        node_count = reader.u32()
        record_count = reader.u32()
        if record_count > _MAX_RECORDS:
            raise reader.corrupt(
                f"implausible record count {record_count}")
        reader.header_crc(strict)
        payloads, _ = reader.frames(record_count, strict,
                                    _MAX_RECORD_BYTES)
        records: List[SegmentRecord] = []
        for index, payload in enumerate(payloads):
            if payload is None:
                continue
            if len(payload) == 4 + _DIGEST_BYTES:
                records.append((int.from_bytes(payload[:4], "big"),
                                payload[4:]))
            elif strict:
                raise SegStoreCorruptError(
                    f"bad record payload size {len(payload)}",
                    record=index)
        return SegmentArchive(node_count, records)
    except DECODE_ERRORS as exc:
        raise reader.undecodable("segment archive", exc)


def load_segments(path: Union[str, "io.PathLike"],
                  strict: bool = True) -> SegmentArchive:
    """Read an archive from *path*; see :func:`loads`."""
    with open(path, "rb") as stream:
        return loads(stream.read(), strict=strict)
