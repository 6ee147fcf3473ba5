"""Functional byte-addressed memory storage.

This is the *value* side of the memory system (what data lives where); the
*timing* side (caches, ports, AMAT) lives in :mod:`repro.mem.cache`,
:mod:`repro.mem.hierarchy`, and :mod:`repro.mem.ports`.  It is the one memory of the functional model:
every :class:`repro.isa.MachineState` holds one, and it adds typed helpers
for staging workload arrays.
"""

from __future__ import annotations

import struct
from typing import Iterable

__all__ = ["Memory"]


class Memory:
    """Sparse little-endian byte-addressed memory.

    Loads of never-written locations read as zero, which keeps workload
    setup code short and makes behaviour deterministic.
    """

    def __init__(self) -> None:
        self._bytes: dict[int, int] = {}

    # -- raw access -----------------------------------------------------------

    def load(self, address: int, size: int) -> int:
        """Read ``size`` bytes at ``address`` as an unsigned integer."""
        if address < 0:
            raise ValueError(f"negative address {address:#x}")
        return int.from_bytes(
            bytes(self._bytes.get(address + i, 0) for i in range(size)), "little"
        )

    def store(self, address: int, size: int, value: int) -> None:
        """Write the low ``size`` bytes of ``value`` at ``address``."""
        if address < 0:
            raise ValueError(f"negative address {address:#x}")
        for i, byte in enumerate(
            (int(value) & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        ):
            self._bytes[address + i] = byte

    def gather(self, addresses: Iterable[int], size: int,
               mask: Iterable[bool] | None = None) -> list[int]:
        """Bulk :meth:`load`: one raw unsigned value per address.

        Semantically identical to ``[self.load(a, size) for a in addresses]``
        (including the negative-address check) but resolves ``_bytes.get``
        once — the batched engine reads a whole block of load addresses
        through this in one call.

        With ``mask`` (the batched engine's guard-active lanes), only
        addresses whose mask entry is true are read; masked-off lanes
        yield 0 without touching storage or validating the address, like
        a predicated-off load that never issues.
        """
        get = self._bytes.get
        out = []
        if mask is None:
            for address in addresses:
                if address < 0:
                    raise ValueError(f"negative address {address:#x}")
                value = 0
                for i in range(size - 1, -1, -1):
                    value = (value << 8) | get(address + i, 0)
                out.append(value)
            return out
        for address, live in zip(addresses, mask):
            if not live:
                out.append(0)
                continue
            if address < 0:
                raise ValueError(f"negative address {address:#x}")
            value = 0
            for i in range(size - 1, -1, -1):
                value = (value << 8) | get(address + i, 0)
            out.append(value)
        return out

    # -- typed helpers --------------------------------------------------------

    def load_word(self, address: int) -> int:
        """Read a 32-bit word as a signed integer."""
        raw = self.load(address, 4)
        return raw - (1 << 32) if raw >= (1 << 31) else raw

    def store_word(self, address: int, value: int) -> None:
        self.store(address, 4, value & 0xFFFFFFFF)

    def load_float(self, address: int) -> float:
        """Read a binary32 float."""
        return struct.unpack("<f", self.load(address, 4).to_bytes(4, "little"))[0]

    def store_float(self, address: int, value: float) -> None:
        self.store(address, 4, int.from_bytes(struct.pack("<f", value), "little"))

    def store_words(self, address: int, values: Iterable[int]) -> None:
        """Write consecutive 32-bit words starting at ``address``."""
        for i, value in enumerate(values):
            self.store_word(address + 4 * i, value)

    def store_floats(self, address: int, values: Iterable[float]) -> None:
        """Write consecutive binary32 floats starting at ``address``."""
        for i, value in enumerate(values):
            self.store_float(address + 4 * i, value)

    def load_words(self, address: int, count: int) -> list[int]:
        return [self.load_word(address + 4 * i) for i in range(count)]

    def load_floats(self, address: int, count: int) -> list[float]:
        return [self.load_float(address + 4 * i) for i in range(count)]

    def footprint(self) -> int:
        """Number of bytes ever written (for tests and reporting)."""
        return len(self._bytes)

    def copy(self) -> "Memory":
        """An independent copy of the current contents."""
        clone = Memory()
        clone._bytes = dict(self._bytes)
        return clone
