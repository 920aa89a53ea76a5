"""One CRC-framed record container — what FSPC, FSSG and FSCJ share.

Three files use the same layout (all integers big-endian): the
p-action cache (``.fspc``, :mod:`repro.memo.persist`), the compiled
segment archive (``.fsseg``, :mod:`repro.memo.segstore`) and the
campaign journal (FSCJ, :mod:`repro.campaign.supervise`):

* **preamble** — 4-byte magic, u32 sentinel ``0xFFFFFFFF`` (never a
  valid count or record length), u16 format version;
* **header** (sealed files only) — the format's own fields, then a u32
  CRC32 over every preceding byte, preamble included;
* **frames** — u32 payload length, the payload, u32 CRC32 of the
  payload;
* **trailer** (sealed files only) — SHA-256 of every preceding byte,
  with nothing allowed after it.

FSPC and FSSG are *sealed*: written once, header CRC and trailer
included, with the frame count in the header. FSCJ is *open-ended*:
preamble, then frames appended (and fsync'd) one at a time, so a crash
leaves a readable prefix plus at most one torn tail frame.

:meth:`Reader.frames` is the one read loop, with the three behaviours
in use: ``strict`` raises the format's error class naming record and
offset; a sealed salvage read drops damaged frames (``None``) and
keeps going while the framing holds; an open-ended read stops at the
first damaged frame. What a payload *means* stays with its format.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import zlib
from typing import BinaryIO, Iterable, List, Optional, Tuple

from repro.errors import CorruptRecordError

SENTINEL = 0xFFFFFFFF
#: SHA-256 digest size (the whole-file trailer).
_DIGEST_BYTES = 32
#: Exceptions a damaged payload can trip inside a format's decoder;
#: readers convert them (:meth:`Reader.undecodable`) so only the
#: format's own error class escapes for bad input.
DECODE_ERRORS = (IndexError, ValueError, KeyError, TypeError,
                 EOFError, OverflowError, MemoryError)

_PREAMBLE = struct.Struct(">IH")
_U32 = struct.Struct(">I")


def preamble(magic: bytes, version: int) -> bytes:
    """Magic, sentinel and format version — the first ten bytes."""
    return magic + _PREAMBLE.pack(SENTINEL, version)


def frame(payload: bytes) -> bytes:
    """One record as it sits in the file: length, payload, CRC32."""
    return b"".join((_U32.pack(len(payload)), payload,
                     _U32.pack(zlib.crc32(payload))))


def write_sealed(stream: BinaryIO, magic: bytes, version: int,
                 fields: bytes, payloads: Iterable[bytes]) -> None:
    """Write a sealed file: preamble, the format's header *fields* and
    the header CRC, one frame per payload, the SHA-256 trailer."""
    digest = hashlib.sha256()
    head = preamble(magic, version) + fields
    chunk = head + _U32.pack(zlib.crc32(head))
    digest.update(chunk)
    stream.write(chunk)
    for payload in payloads:
        chunk = frame(payload)
        digest.update(chunk)
        stream.write(chunk)
    stream.write(digest.digest())


class Reader:
    """Bounded reads over an in-memory buffer, tracking where it is.

    ``pos`` is the byte offset and ``record`` the zero-based record
    index (-1 = header/trailer); both are attached to every error,
    which is an instance of *error* (a
    :class:`~repro.errors.CorruptRecordError` subclass).
    """

    def __init__(self, data: bytes, error=CorruptRecordError,
                 record: int = -1, pos: int = 0):
        self.data = data
        self.error = error
        self.record = record
        self.pos = pos

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def corrupt(self, message: str) -> CorruptRecordError:
        return self.error(message, offset=self.pos, record=self.record)

    def undecodable(self, what: str, exc: Exception) -> CorruptRecordError:
        """The error for a decoder exception (:data:`DECODE_ERRORS`)."""
        return self.corrupt(
            f"undecodable {what}: {type(exc).__name__}: {exc}")

    def read(self, count: int) -> bytes:
        chunk = self.data[self.pos:self.pos + count]
        if len(chunk) != count:
            raise self.corrupt(
                f"truncated: wanted {count} bytes, {len(chunk)} left")
        self.pos += count
        return chunk

    def u8(self) -> int:
        return self.read(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.read(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.read(4), "big")

    def i32(self) -> int:
        return int.from_bytes(self.read(4), "big", signed=True)

    def preamble(self, magic: bytes, version: int, what: str) -> None:
        """Consume and check the preamble of a *what* (for messages)."""
        if self.read(4) != magic:
            raise self.error(f"not a {what}", offset=0)
        marker = self.u32()
        if marker != SENTINEL:
            raise self.corrupt(
                f"unsupported {what} format: no version sentinel "
                f"(found 0x{marker:08x})")
        found = self.u16()
        if found != version:
            raise self.corrupt(
                f"unsupported {magic.decode()} format version {found}")

    def header_crc(self, strict: bool) -> None:
        """Consume the u32 that closes a sealed header; check it when
        *strict*."""
        stored = self.u32()
        if strict and stored != zlib.crc32(self.data[:self.pos - 4]):
            raise self.error("header CRC mismatch", offset=self.pos - 4)

    def frames(self, count: Optional[int], strict: bool,
               limit: Optional[int] = None,
               ) -> Tuple[List[Optional[bytes]], bool]:
        """Read *count* frames and, when *strict*, check the trailer
        that follows them — or, with ``count=None``, an open-ended
        file's frames to the end of the data. Returns
        ``(payloads, intact)``.

        Any damage raises when *strict*. Otherwise a frame whose CRC
        fails is dropped — ``None`` in a sealed file, where positions
        are record indices and the next frame is still findable; the
        end of the read in an open-ended one — and a frame whose
        length cannot be trusted (truncated, over *limit*, past the end)
        ends the read with ``intact`` False, a sealed file's missing
        records padded with ``None``.
        """
        data = self.data
        total = len(data)
        pos = self.pos
        unpack = _U32.unpack_from
        crc32 = zlib.crc32
        payloads: List[Optional[bytes]] = []
        intact = True
        for index in (itertools.count() if count is None else range(count)):
            if pos + 4 > total:
                if count is None and pos == total:
                    break  # the clean end of an open-ended file
                problem = (f"truncated: {total - pos} bytes left of a "
                           "frame header")
            else:
                (length,) = unpack(data, pos)
                end = pos + 8 + length
                if end <= total and (limit is None or length <= limit):
                    payload = data[pos + 4:end - 4]
                    if crc32(payload) == unpack(data, end - 4)[0]:
                        payloads.append(payload)
                        pos = end
                        continue
                    if count is not None and not strict:
                        payloads.append(None)
                        pos = end
                        continue
                    problem = "record CRC mismatch"
                else:
                    problem = f"implausible record length {length}"
            self.pos, self.record = pos, index
            if strict:
                raise self.corrupt(problem)
            intact = False
            break
        self.pos = pos
        if count is not None:
            payloads.extend([None] * (count - len(payloads)))
            if strict:
                self._trailer()
        return payloads, intact

    def _trailer(self) -> None:
        """Check a sealed file's SHA-256 trailer and that nothing
        follows it (strict reads only: salvage has no use for either)."""
        self.record = -1
        start = self.pos
        stored = self.read(_DIGEST_BYTES)
        if stored != hashlib.sha256(memoryview(self.data)[:start]).digest():
            raise self.error("whole-file digest mismatch", offset=start)
        if self.remaining():
            # The digest is the last thing a writer emits; bytes after
            # it mean the file was appended to or spliced.
            raise self.corrupt(f"{self.remaining()} trailing bytes after "
                               "the whole-file digest")
