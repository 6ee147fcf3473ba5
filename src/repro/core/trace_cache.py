"""The trace cache (paper §4.1).

"We use an instruction trace cache near the I-cache to store only
instructions that are within the code region targeted for acceleration ...
Instructions fetched from the I-cache are written to the trace cache if their
addresses fall within the code region and were not already stored. ... In the
rare case that MESA is still missing some instruction(s) in its trace cache,
it can temporarily stall the CPU's fetch stage to directly access the I-cache
to retrieve missing instructions."

The capacity equals the maximum number of instructions mappable on the
accelerator (condition C1), 64–512 in the paper's evaluations.
"""

from __future__ import annotations

from ..isa import Instruction, Program

__all__ = ["TraceCache"]


class TraceCache:
    """Passively captures the instructions of one code region."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._region: tuple[int, int] | None = None  # [start, end] inclusive
        self._lines: dict[int, Instruction] = {}
        self.passive_fills = 0
        self.stall_fills = 0

    def set_region(self, start_address: int, end_address: int) -> None:
        """Target a new code region (clears previous contents).

        Raises:
            ValueError: if the region exceeds the cache capacity (the C1
                size check must have rejected it already).
        """
        if end_address < start_address:
            raise ValueError("region end before start")
        count = (end_address - start_address) // 4 + 1
        if count > self.capacity:
            raise ValueError(
                f"region of {count} instructions exceeds capacity "
                f"{self.capacity}"
            )
        self._region = (start_address, end_address)
        self._lines.clear()
        self.passive_fills = 0
        self.stall_fills = 0

    def observe_fetch(self, instruction: Instruction) -> bool:
        """Snoop one fetched instruction; returns True if newly captured."""
        if self._region is None:
            return False
        start, end = self._region
        address = instruction.address
        if not start <= address <= end or address in self._lines:
            return False
        self._lines[address] = instruction
        self.passive_fills += 1
        return True

    @property
    def complete(self) -> bool:
        """All instructions of the region captured?"""
        if self._region is None:
            return False
        return not self.missing_addresses()

    def missing_addresses(self) -> list[int]:
        if self._region is None:
            return []
        start, end = self._region
        return [addr for addr in range(start, end + 4, 4)
                if addr not in self._lines]

    def fill_missing(self, program: Program) -> int:
        """Stall-fetch path: pull missing instructions from the I-cache.

        Returns the number of instructions fetched this way (each costs a
        fetch-stall cycle in the configuration-time model).
        """
        fetched = 0
        for address in self.missing_addresses():
            self._lines[address] = program.at(address)
            fetched += 1
        self.stall_fills += fetched
        return fetched

    def body(self) -> list[Instruction]:
        """The captured region in address order.

        Raises:
            RuntimeError: if no region is set or instructions are missing.
        """
        if self._region is None:
            raise RuntimeError("no code region selected")
        missing = self.missing_addresses()
        if missing:
            raise RuntimeError(
                f"trace cache incomplete: missing {[hex(a) for a in missing]}"
            )
        start, end = self._region
        return [self._lines[addr] for addr in range(start, end + 4, 4)]
