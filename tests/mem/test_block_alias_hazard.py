"""Property test: the block-level alias check is the per-access rule.

:func:`block_alias_hazard` decides, for a whole block of iterations at
once, where the batched engine must stop: the first iteration with a load
that :func:`forwarding_store` would send to a store of the block.  The
oracle here walks the block the way the interpreter does — iteration by
iteration, memory nodes in node-id order, skipping guarded-off lanes,
with every store issued so far indexed by the bytes it writes — and asks
the per-access rule for each load about the stores on its bytes (any
store that overlaps a load writes one of them).

Small streams collide often: a few memory nodes with access sizes 1, 2
and 4 over a 24-byte window, optional guard masks, and node ids in
random order, so that program order within an iteration comes from the
ids and not from the order the streams are listed in.  Block-scale
streams run up to ``DEFAULT_BLOCK`` lanes: random addresses over narrow
and wide windows, strided walks whose first hazard falls deep in the
block, address streams shared between accesses (same-lane ties that
program order decides), and streams whose range meets no other.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.accel.batch import DEFAULT_BLOCK
from repro.mem.lsq import block_alias_hazard, forwarding_store

#: Nightly CI exports REPRO_FUZZ_SCALE to multiply every example budget.
FUZZ_SCALE = int(os.environ.get("REPRO_FUZZ_SCALE", "1"))


@st.composite
def blocks(draw):
    """``(nb, accesses)``; an access is ``(node_id, is_load, addresses,
    size, on_mask)`` with ``on_mask`` None for an unguarded access."""
    nb = draw(st.integers(1, 12))
    count = draw(st.integers(1, 5))
    ids = draw(st.permutations(range(0, 3 * count, 3)))
    accesses = []
    for node_id in ids:
        addresses = draw(st.lists(st.integers(0, 24), min_size=nb,
                                  max_size=nb))
        on = draw(st.none() | st.lists(st.booleans(), min_size=nb,
                                       max_size=nb))
        accesses.append((node_id, draw(st.booleans()), addresses,
                         draw(st.sampled_from((1, 2, 4))), on))
    return nb, accesses


@st.composite
def large_blocks(draw):
    """Like :func:`blocks`, with up to ``DEFAULT_BLOCK`` lanes whose
    addresses come from a drawn numpy seed."""
    nb = draw(st.integers(1, DEFAULT_BLOCK) | st.just(DEFAULT_BLOCK))
    count = draw(st.integers(2, 5))
    ids = draw(st.permutations(range(0, 3 * count, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    window = draw(st.sampled_from((32, 4 * nb, 64 * nb)))
    lanes = np.arange(nb)
    shared = rng.integers(0, window, nb)
    accesses = []
    for node_id in ids:
        layout = draw(st.sampled_from(("random", "walk", "shared",
                                       "disjoint")))
        if layout == "random":
            addresses = rng.integers(0, window, nb)
        elif layout == "walk":
            # A store walking d elements ahead of a load with the same
            # step first aliases it d lanes in.
            addresses = (draw(st.sampled_from((1, 2, 4)))
                         * (lanes + draw(st.integers(0, 64))))
        elif layout == "shared":
            addresses = shared
        else:
            addresses = rng.integers(0, window, nb) + ((node_id + 1) << 32)
        on = (None if draw(st.booleans())
              else rng.random(nb) < draw(st.sampled_from((0.1, 0.5, 0.9))))
        accesses.append((node_id, draw(st.booleans()), addresses.tolist(),
                         draw(st.sampled_from((1, 2, 4))),
                         None if on is None else on.tolist()))
    return nb, accesses


def per_access_hazard(nb, accesses):
    """The first iteration whose load the per-access rule forwards from a
    store of the block, stepping lane by lane in program order."""
    stores_on = defaultdict(list)  # byte address -> stores that write it
    program = sorted(accesses, key=lambda access: access[0])
    for k in range(nb):
        for _, is_load, addresses, size, on in program:
            if on is not None and not on[k]:
                continue
            address = addresses[k]
            if not is_load:
                for byte in range(address, address + size):
                    stores_on[byte].append((address, size))
                continue
            nearby = [store for byte in range(address, address + size)
                      for store in stores_on.get(byte, ())]
            if forwarding_store(nearby, address, size) is not None:
                return k
    return None


def streams(accesses, want_loads):
    return [(np.array(addresses, np.int64), size, node_id,
             None if on is None else np.array(on, bool))
            for node_id, is_load, addresses, size, on in accesses
            if is_load == want_loads]


@settings(max_examples=200 * FUZZ_SCALE, deadline=None)
@given(block=blocks())
def test_block_hazard_equals_per_access_rule(block):
    nb, accesses = block
    assert (block_alias_hazard(streams(accesses, True),
                               streams(accesses, False))
            == per_access_hazard(nb, accesses))


@settings(max_examples=40 * FUZZ_SCALE, deadline=None)
@given(block=large_blocks())
def test_block_scale_hazard_equals_per_access_rule(block):
    nb, accesses = block
    assert (block_alias_hazard(streams(accesses, True),
                               streams(accesses, False))
            == per_access_hazard(nb, accesses))


def test_same_iteration_order_follows_node_ids():
    # One lane, one address: the store precedes the load only when its
    # node id is lower.
    lane = np.array([0x40], np.int64)
    load = [(lane, 4, 5, None)]
    assert block_alias_hazard(load, [(lane, 4, 2, None)]) == 0
    assert block_alias_hazard(load, [(lane, 4, 8, None)]) is None


def test_guarded_off_store_lane_is_not_a_hazard():
    addresses = np.array([0x40, 0x40], np.int64)
    load = [(addresses, 4, 5, None)]
    store_off_then_on = [(addresses, 4, 2, np.array([False, True]))]
    assert block_alias_hazard(load, store_off_then_on) == 1
