"""Functional byte-addressed memory storage.

This is the *value* side of the memory system (what data lives where); the
*timing* side (caches, ports, AMAT) lives in :mod:`repro.mem.cache`,
:mod:`repro.mem.hierarchy`, and :mod:`repro.mem.ports`.  It is the one memory of the functional model:
every :class:`repro.isa.MachineState` holds one, and it adds typed helpers
for staging workload arrays.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Memory"]

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
_OFFSET = PAGE_SIZE - 1

#: What a never-touched page reads as.
_ZERO_PAGE = bytes(PAGE_SIZE)
_ONES = b"\x01" * PAGE_SIZE


class Memory:
    """Sparse little-endian byte-addressed memory.

    Loads of never-written locations read as zero, which keeps workload
    setup code short and makes behaviour deterministic.

    Storage is 4 KiB pages, allocated on first write.  A page is a pair of
    ``bytearray`` s: its data, and a written-mask with a 1 for every byte
    ever stored (a stored zero included), so the set of written bytes
    that :attr:`_bytes` lists is exact.
    """

    def __init__(self) -> None:
        #: page number -> (data, written-mask), each PAGE_SIZE bytes.
        self._pages: dict[int, tuple[bytearray, bytearray]] = {}

    def _page(self, number: int) -> tuple[bytearray, bytearray]:
        page = self._pages.get(number)
        if page is None:
            page = self._pages[number] = (bytearray(PAGE_SIZE),
                                          bytearray(PAGE_SIZE))
        return page

    @property
    def _bytes(self) -> dict[int, int]:
        """``{address: byte}`` over every written byte, in address order.

        A read-only view derived from the pages, equal to the per-byte
        dict this class used to store after any sequence of stores.  It
        stays because result checks compare memories through it (the perf
        benchmark's engine golden hashes it); writing to it changes
        nothing.
        """
        view: dict[int, int] = {}
        for number in sorted(self._pages):
            data, written = self._pages[number]
            offsets = np.flatnonzero(np.frombuffer(written, np.uint8))
            view.update(zip((offsets + (number << PAGE_BITS)).tolist(),
                            np.frombuffer(data, np.uint8)[offsets].tolist()))
        return view

    # -- raw access -----------------------------------------------------------

    def load(self, address: int, size: int) -> int:
        """Read ``size`` bytes at ``address`` as an unsigned integer."""
        if address < 0:
            raise ValueError(f"negative address {address:#x}")
        offset = address & _OFFSET
        end = offset + size
        if end > PAGE_SIZE:
            return int.from_bytes(self._read(address, size), "little")
        page = self._pages.get(address >> PAGE_BITS)
        if page is None:
            return 0
        return int.from_bytes(page[0][offset:end], "little")

    def store(self, address: int, size: int, value: int) -> None:
        """Write the low ``size`` bytes of ``value`` at ``address``."""
        if address < 0:
            raise ValueError(f"negative address {address:#x}")
        blob = (int(value) & ((1 << (size << 3)) - 1)).to_bytes(size, "little")
        offset = address & _OFFSET
        end = offset + size
        if end > PAGE_SIZE:
            self._write(address, blob)
            return
        data, written = self._page(address >> PAGE_BITS)
        data[offset:end] = blob
        written[offset:end] = _ONES[:size]

    def _read(self, address: int, size: int) -> bytes:
        """``size`` bytes from ``address`` on, across page boundaries."""
        chunks = []
        get = self._pages.get
        while size > 0:
            offset = address & _OFFSET
            count = min(size, PAGE_SIZE - offset)
            page = get(address >> PAGE_BITS)
            chunks.append(_ZERO_PAGE[:count] if page is None
                          else page[0][offset:offset + count])
            address += count
            size -= count
        return b"".join(chunks)

    def _write(self, address: int, blob: bytes) -> None:
        """Store ``blob`` from ``address`` on, across page boundaries."""
        if blob and address < 0:
            raise ValueError(f"negative address {address:#x}")
        start = 0
        while start < len(blob):
            offset = address & _OFFSET
            count = min(len(blob) - start, PAGE_SIZE - offset)
            data, written = self._page(address >> PAGE_BITS)
            data[offset:offset + count] = blob[start:start + count]
            written[offset:offset + count] = _ONES[:count]
            address += count
            start += count

    def gather(self, addresses: Sequence[int], size: int,
               mask: Sequence[bool] | None = None) -> np.ndarray:
        """Bulk :meth:`load`: one raw unsigned value per address, as a
        ``uint64`` array (so ``size`` is at most 8).

        Semantically identical to ``[self.load(a, size) for a in addresses]``
        (including the negative-address check) but copies each touched
        page once and indexes the bytes with numpy — the batched engine
        reads a whole block of load addresses through this in one call.

        With ``mask`` (the batched engine's guard-active lanes), only
        addresses whose mask entry is true are read; masked-off lanes
        yield 0 without touching storage or validating the address, like
        a predicated-off load that never issues.
        """
        addresses = np.asarray(addresses, np.int64).reshape(-1)
        out = np.zeros(addresses.size, np.uint64)
        lanes = (np.arange(addresses.size) if mask is None
                 else np.flatnonzero(np.asarray(mask, bool)))
        live = addresses[lanes]
        if not live.size:
            return out
        if live.min() < 0:
            raise ValueError(f"negative address {int(live[live < 0][0]):#x}")
        offsets = live & _OFFSET
        inside = offsets <= PAGE_SIZE - size
        if not inside.all():
            for lane in lanes[~inside].tolist():
                out[lane] = self.load(int(addresses[lane]), size)
            lanes, live, offsets = lanes[inside], live[inside], offsets[inside]
        numbers, slots = np.unique(live >> PAGE_BITS, return_inverse=True)
        get = self._pages.get
        image = np.frombuffer(b"".join(
            _ZERO_PAGE if page is None else page[0]
            for page in map(get, numbers.tolist())), np.uint8)
        raw = np.zeros((live.size, 8), np.uint8)
        raw[:, :size] = image[(slots.reshape(-1) * PAGE_SIZE + offsets)[:, None]
                              + np.arange(size)]
        out[lanes] = raw.view("<u8").reshape(-1)
        return out

    def scatter(self, addresses, size, values, mask=None) -> None:
        """Bulk :meth:`store`, the mirror of :meth:`gather`.

        Semantically identical to ``store(a, s, v)`` for each live entry in
        order: a later store to the same byte wins, and a negative address
        raises after every earlier entry has committed.  ``size`` is one
        width for every entry or one per entry.  Masked-off entries (a
        predicated-off store) are skipped without validation.  Values must
        fit in int64; the bytes are split out with numpy, the last write
        of each byte is kept, and each touched page takes one update.
        """
        addresses = np.asarray(addresses, np.int64)
        values = np.asarray(values, np.int64)
        sizes = np.broadcast_to(np.asarray(size, np.int64), addresses.shape)
        if mask is not None:
            live = np.asarray(mask, bool)
            addresses, values, sizes = (addresses[live], values[live],
                                        sizes[live])
        negative = np.flatnonzero(addresses < 0)
        bad = int(negative[0]) if negative.size else addresses.size
        byte = np.arange(int(sizes[:bad].max(initial=0)))
        keep = byte < sizes[:bad, None]
        byte_addresses = (addresses[:bad, None] + byte)[keep]
        byte_values = ((values[:bad, None] >> (byte * 8)) & 0xFF)[keep]
        # The last occurrence of each address wins: unique over the
        # reversed stream finds it (and sorts the addresses by page).
        byte_addresses, last = np.unique(byte_addresses[::-1],
                                         return_index=True)
        byte_values = byte_values[::-1][last].astype(np.uint8)
        numbers = byte_addresses >> PAGE_BITS
        starts = np.flatnonzero(np.diff(numbers, prepend=-1)).tolist()
        for start, end in zip(starts, [*starts[1:], numbers.size]):
            data, written = self._page(int(numbers[start]))
            offsets = byte_addresses[start:end] & _OFFSET
            np.frombuffer(data, np.uint8)[offsets] = byte_values[start:end]
            np.frombuffer(written, np.uint8)[offsets] = 1
        if bad < addresses.size:
            raise ValueError(f"negative address {int(addresses[bad]):#x}")

    # -- typed helpers --------------------------------------------------------

    def load_word(self, address: int) -> int:
        """Read a 32-bit word as a signed integer."""
        raw = self.load(address, 4)
        return raw - (1 << 32) if raw >= (1 << 31) else raw

    def load_float(self, address: int) -> float:
        """Read a binary32 float."""
        return struct.unpack("<f", self.load(address, 4).to_bytes(4, "little"))[0]

    def store_words(self, address: int, values: Iterable[int]) -> None:
        """Write consecutive 32-bit words (the low 32 bits of each value)
        starting at ``address``, packed in one write."""
        words = [int(value) & 0xFFFFFFFF for value in values]
        self._write(address, struct.pack(f"<{len(words)}I", *words))

    def store_floats(self, address: int, values: Iterable[float]) -> None:
        """Write consecutive binary32 floats starting at ``address``,
        packed in one write."""
        floats = list(values)
        self._write(address, struct.pack(f"<{len(floats)}f", *floats))

    def footprint(self) -> int:
        """Number of bytes ever written (for tests and reporting)."""
        return sum(written.count(1) for _, written in self._pages.values())

    def copy(self) -> "Memory":
        """An independent copy of the current contents."""
        clone = Memory()
        clone._pages = {number: (bytearray(data), bytearray(written))
                        for number, (data, written) in self._pages.items()}
        return clone
