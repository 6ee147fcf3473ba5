"""Property tests: the page-backed :class:`Memory` equals the per-byte
dict memory it replaced.

The reference model below is that earlier implementation, kept verbatim
in behaviour: one dict entry per written byte.  Random interleavings of
every access method run through both models side by side (copies
included), and every step must agree in return values, raised errors,
the written-byte view ``_bytes`` and ``footprint()``.  Addresses are
drawn around page boundaries (4093-4099, 8190-8200), below zero, and
from a small pool so that one ``scatter`` repeats bytes.
"""

from __future__ import annotations

import os
import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mem import Memory

#: Nightly CI exports REPRO_FUZZ_SCALE to multiply every example budget.
FUZZ_SCALE = int(os.environ.get("REPRO_FUZZ_SCALE", "1"))


class DictMemory:
    """The reference: sparse memory as a per-byte ``{address: byte}``."""

    def __init__(self) -> None:
        self._bytes: dict[int, int] = {}

    def load(self, address, size):
        if address < 0:
            raise ValueError(f"negative address {address:#x}")
        return int.from_bytes(
            bytes(self._bytes.get(address + i, 0) for i in range(size)),
            "little")

    def store(self, address, size, value):
        if address < 0:
            raise ValueError(f"negative address {address:#x}")
        for i, byte in enumerate(
                (int(value) & ((1 << (size * 8)) - 1)).to_bytes(size,
                                                                "little")):
            self._bytes[address + i] = byte

    def gather(self, addresses, size, mask=None):
        if mask is None:
            mask = [True] * len(addresses)
        return [self.load(address, size) if live else 0
                for address, live in zip(addresses, mask)]

    def scatter(self, addresses, size, values, mask=None):
        sizes = size if isinstance(size, list) else [size] * len(addresses)
        if mask is None:
            mask = [True] * len(addresses)
        for address, width, value, live in zip(addresses, sizes, values,
                                               mask):
            if live:
                self.store(address, width, value)

    def store_words(self, address, values):
        for i, value in enumerate(values):
            self.store(address + 4 * i, 4, value & 0xFFFFFFFF)

    def store_floats(self, address, values):
        for i, value in enumerate(values):
            self.store(address + 4 * i, 4,
                       int.from_bytes(struct.pack("<f", value), "little"))

    def footprint(self):
        return len(self._bytes)

    def copy(self):
        clone = DictMemory()
        clone._bytes = dict(self._bytes)
        return clone


#: A few addresses one scatter can hit repeatedly, straddles included.
POOL = (0, 2, 4093, 4094, 4095, 4096, 8190, 12288 - 3)

addresses = st.one_of(
    st.integers(4093, 4099),
    st.integers(8190, 8200),
    st.integers(-9, -1),
    st.integers(0, 64),
    st.sampled_from(POOL),
    st.integers(0, 1 << 22),
    st.just((1 << 32) - 4),
)
sizes = st.sampled_from((1, 2, 4, 8))
#: Arbitrary Python ints for store (it keeps the low bytes) ...
wide_values = st.one_of(st.integers(-(1 << 70), 1 << 70),
                        st.sampled_from((0, (1 << 63) | 5, (1 << 64) - 1)))
#: ... and int64 for scatter, whose values must fit (top bit included).
int64_values = st.one_of(st.integers(-(1 << 63), (1 << 63) - 1),
                         st.sampled_from((0, -1, -(1 << 63))))


@st.composite
def lanes(draw):
    count = draw(st.integers(0, 12))
    lane_addresses = draw(st.lists(st.one_of(addresses,
                                             st.sampled_from(POOL)),
                                   min_size=count, max_size=count))
    mask = draw(st.one_of(st.none(), st.lists(st.booleans(),
                                              min_size=count,
                                              max_size=count)))
    return lane_addresses, mask


@st.composite
def scatter_lanes(draw):
    lane_addresses, mask = draw(lanes())
    count = len(lane_addresses)
    values = draw(st.lists(int64_values, min_size=count, max_size=count))
    width = draw(st.one_of(sizes, st.lists(sizes, min_size=count,
                                           max_size=count)))
    return lane_addresses, width, values, mask


operations = st.one_of(
    st.tuples(st.just("load"), addresses, sizes),
    st.tuples(st.just("store"), addresses, sizes, wide_values),
    st.tuples(st.just("gather"), lanes(), sizes, st.booleans()),
    st.tuples(st.just("scatter"), scatter_lanes()),
    st.tuples(st.just("store_words"), addresses,
              st.lists(st.integers(-(1 << 40), 1 << 40), max_size=6)),
    st.tuples(st.just("store_floats"), addresses,
              st.lists(st.floats(width=32), max_size=6)),
    st.tuples(st.just("copy")),
)


def _outcome(call):
    try:
        return "ok", call()
    except ValueError as error:
        return "ValueError", str(error)


def _apply(paged, reference, operation):
    kind = operation[0]
    if kind == "load":
        _, address, size = operation
        return (_outcome(lambda: paged.load(address, size)),
                _outcome(lambda: reference.load(address, size)))
    if kind == "store":
        _, address, size, value = operation
        return (_outcome(lambda: paged.store(address, size, value)),
                _outcome(lambda: reference.store(address, size, value)))
    if kind == "gather":
        _, (lane_addresses, mask), size, as_array = operation
        given = (np.array(lane_addresses, np.int64) if as_array
                 else lane_addresses)
        return (_outcome(lambda: paged.gather(given, size, mask).tolist()),
                _outcome(lambda: reference.gather(lane_addresses, size,
                                                  mask)))
    if kind == "scatter":
        _, (lane_addresses, width, values, mask) = operation
        return (_outcome(lambda: paged.scatter(lane_addresses, width,
                                               values, mask)),
                _outcome(lambda: reference.scatter(lane_addresses, width,
                                                   values, mask)))
    _, address, values = operation
    return (_outcome(lambda: getattr(paged, kind)(address, values)),
            _outcome(lambda: getattr(reference, kind)(address, values)))


def _assert_same(paged, reference):
    assert paged._bytes == reference._bytes
    assert paged.footprint() == reference.footprint()


@settings(max_examples=200 * FUZZ_SCALE, deadline=None)
@given(script=st.lists(st.tuples(st.integers(0, 3), operations),
                       max_size=30))
def test_paged_memory_equals_per_byte_dict(script):
    pairs = [(Memory(), DictMemory())]
    for which, operation in script:
        paged, reference = pairs[which % len(pairs)]
        if operation[0] == "copy":
            pairs.append((paged.copy(), reference.copy()))
            continue
        got, expected = _apply(paged, reference, operation)
        assert got == expected, operation
        for paged, reference in pairs:
            _assert_same(paged, reference)


@settings(max_examples=50 * FUZZ_SCALE, deadline=None)
@given(address=st.integers(4080, 4100), value=st.integers(0, (1 << 64) - 1))
def test_eight_byte_values_are_bit_exact_across_pages(address, value):
    memory = Memory()
    memory.store(address, 8, value)
    assert memory.load(address, 8) == value
    assert memory.gather([address, address], 8, [True, False]).tolist() \
        == [value, 0]


def test_written_zeros_count_and_a_page_holds_4_kib():
    memory = Memory()
    memory.store(4094, 4, 0)  # straddles pages 0 and 1, all zero bytes
    assert memory._bytes == {4094: 0, 4095: 0, 4096: 0, 4097: 0}
    assert memory.footprint() == 4
    assert sorted(memory._pages) == [0, 1]
    memory.store_words(8192, range(1024))  # exactly page 2
    assert sorted(memory._pages) == [0, 1, 2]
    assert memory.footprint() == 4 + 4096


def test_bytes_view_is_derived():
    memory = Memory()
    memory.store(0x10, 1, 7)
    memory._bytes[0x10] = 9  # a copy: writing to it changes nothing
    assert memory.load(0x10, 1) == 7
