"""Sparse paged memory for functional execution.

Memory is a dictionary of 4 KiB pages allocated on first touch, which
lets the 32-bit address space hold a small text segment, a data segment,
a heap, and a high stack without reserving gigabytes. All multi-byte
accesses are big-endian (SPARC byte order).

Alignment is enforced (word accesses on 4-byte boundaries and so on),
as on SPARC; the simulators rely on this to keep cache-line arithmetic
simple. Accesses that straddle a page boundary are legal as long as
they are aligned — an aligned access never crosses a page.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, Tuple

from repro.errors import MemoryFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

_PACK_FLOAT = struct.Struct(">f")
_PACK_DOUBLE = struct.Struct(">d")


class Memory:
    """Byte-addressable sparse memory with big-endian accessors."""

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    # -- page management ------------------------------------------------

    def _page(self, address: int) -> bytearray:
        index = address >> PAGE_SHIFT
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return page

    def pages(self) -> Iterator[Tuple[int, bytearray]]:
        """Iterate over (base_address, page) pairs of touched pages."""
        for index, page in sorted(self._pages.items()):
            yield index << PAGE_SHIFT, page

    @property
    def touched_bytes(self) -> int:
        """Total bytes in allocated pages (footprint measure)."""
        return len(self._pages) * PAGE_SIZE

    def _check(self, address: int, width: int) -> None:
        if address < 0 or address + width > (1 << 32):
            raise MemoryFault(address, "access outside 32-bit address space")
        if address % width != 0:
            raise MemoryFault(address, f"misaligned {width}-byte access")

    # -- raw byte access ------------------------------------------------

    def load_bytes(self, address: int, data: bytes) -> None:
        """Bulk-load *data* at *address* (used by the program loader)."""
        offset = 0
        remaining = len(data)
        while remaining:
            page = self._page(address + offset)
            page_offset = (address + offset) & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - page_offset)
            page[page_offset:page_offset + chunk] = data[offset:offset + chunk]
            offset += chunk
            remaining -= chunk

    def undo_stores(self, addresses, old_bytes, keep: int) -> None:
        """Put back ``old_bytes[i]`` at ``addresses[i]`` for every *i*
        from the end down to *keep* — the ``sQ`` rollback log, youngest
        store first. Each entry was captured by an aligned access, so
        it lies within one page, and that page exists."""
        pages = self._pages
        for i in range(len(addresses) - 1, keep - 1, -1):
            address = addresses[i]
            data = old_bytes[i]
            offset = address & PAGE_MASK
            pages[address >> PAGE_SHIFT][offset:offset + len(data)] = data

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read *length* raw bytes starting at *address*."""
        out = bytearray()
        offset = 0
        while offset < length:
            page = self._page(address + offset)
            page_offset = (address + offset) & PAGE_MASK
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            out += page[page_offset:page_offset + chunk]
            offset += chunk
        return bytes(out)

    # -- integer accessors ----------------------------------------------

    def read_word(self, address: int) -> int:
        """Read an unsigned 32-bit big-endian word."""
        self._check(address, 4)
        page = self._page(address)
        offset = address & PAGE_MASK
        return int.from_bytes(page[offset:offset + 4], "big")

    def write_word(self, address: int, value: int) -> None:
        self._check(address, 4)
        page = self._page(address)
        offset = address & PAGE_MASK
        page[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "big")

    def read_half(self, address: int) -> int:
        self._check(address, 2)
        page = self._page(address)
        offset = address & PAGE_MASK
        return int.from_bytes(page[offset:offset + 2], "big")

    def write_half(self, address: int, value: int) -> None:
        self._check(address, 2)
        page = self._page(address)
        offset = address & PAGE_MASK
        page[offset:offset + 2] = (value & 0xFFFF).to_bytes(2, "big")

    def read_byte(self, address: int) -> int:
        self._check(address, 1)
        return self._page(address)[address & PAGE_MASK]

    def write_byte(self, address: int, value: int) -> None:
        self._check(address, 1)
        self._page(address)[address & PAGE_MASK] = value & 0xFF

    def read_width(self, address: int, width: int) -> int:
        """Read an unsigned value of 1, 2, 4, or 8 bytes."""
        if width == 4:
            return self.read_word(address)
        if width == 1:
            return self.read_byte(address)
        if width == 2:
            return self.read_half(address)
        if width == 8:
            self._check(address, 8)
            return int.from_bytes(self.read_bytes(address, 8), "big")
        raise MemoryFault(address, f"unsupported access width {width}")

    def write_width(self, address: int, value: int, width: int) -> None:
        """Write an unsigned value of 1, 2, 4, or 8 bytes."""
        if width == 4:
            self.write_word(address, value)
        elif width == 1:
            self.write_byte(address, value)
        elif width == 2:
            self.write_half(address, value)
        elif width == 8:
            self._check(address, 8)
            self.load_bytes(address, (value & (1 << 64) - 1).to_bytes(8, "big"))
        else:
            raise MemoryFault(address, f"unsupported access width {width}")

    # -- floating point accessors ----------------------------------------

    def read_float(self, address: int) -> float:
        self._check(address, 4)
        return _PACK_FLOAT.unpack(self.read_bytes(address, 4))[0]

    def write_float(self, address: int, value: float) -> None:
        self._check(address, 4)
        self.load_bytes(address, _PACK_FLOAT.pack(value))

    def read_double(self, address: int) -> float:
        self._check(address, 8)
        return _PACK_DOUBLE.unpack(self.read_bytes(address, 8))[0]

    def write_double(self, address: int, value: float) -> None:
        self._check(address, 8)
        self.load_bytes(address, _PACK_DOUBLE.pack(value))
