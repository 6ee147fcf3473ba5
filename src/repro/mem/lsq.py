"""The fabric's store→load ordering rule, per access and per block.

Paper §4.2: "individual loads can be performed out-of-order as soon as
their addresses are generated", store data is forwarded to younger loads
with matching addresses, and "a load can be invalidated if a prior store
instruction commits and matches its address."  On the fabric one rule
decides all three: a load reads the newest older store whose bytes overlap
it, if there is one, and memory otherwise.

* :func:`forwarding_store` is the rule for one access: the interpreter
  (:class:`repro.accel.engine.DataflowEngine`) keeps one list of the
  iteration's stores in program order and asks it for each load, which
  then forwards from that store, or reads memory when it issued before the
  store completed: it is invalidated and replays when its port grant also
  came before the store completed.
* :func:`block_alias_hazard` is the rule for a block of iterations: the
  batched drive finds the first iteration where it would pick a store.

The CPU core model does not use this module; it reads only
``CpuConfig.lsq_size``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["forwarding_store", "block_alias_hazard"]


def forwarding_store(stores, address: int, size: int):
    """The newest store in ``stores`` whose bytes overlap the ``size``-byte
    load at ``address``, or None when the load reads memory.

    ``stores`` holds ``(address, size, ...)`` tuples in program order,
    every one older than the load.
    """
    for store in reversed(stores):
        if store[0] < address + size and address < store[0] + store[1]:
            return store
    return None


def block_alias_hazard(load_streams, store_streams) -> int | None:
    """Block-level disambiguation for the batched engine: the first
    iteration of the block with a load that byte-overlaps an earlier store
    — one of the same iteration that precedes it in program order, or of
    any earlier iteration in the block — or None when there is none.

    This is :func:`forwarding_store` over a whole block: every iteration
    before the returned one reads only memory no store of the block has
    written, so no load there forwards or replays, which is what lets
    :mod:`repro.accel.batch` gather a block of loads before any store
    commits.  Streams are ``(addresses, size, node_id, on_mask)`` tuples;
    ``on_mask`` marks the lanes a guarded access actually issues on (None
    = always issues), since a predicated-off access is no store to read
    and no load to order.

    One sorted pass, O(n log n) in the block's accesses: every access of
    a stream whose address range meets one of the other kind is expanded
    to its bytes, each ranked ``lane * stride + node_id`` (program order);
    a load byte is a hazard when the lowest-ranked store byte at the same
    address ranks below it.
    """
    def spans(streams):
        return [(int(addresses.min()), int(addresses.max()) + size)
                for addresses, size, _, _ in streams]

    load_spans, store_spans = spans(load_streams), spans(store_streams)

    def meeting(streams, spans, others):
        return [stream for stream, (lo, hi) in zip(streams, spans)
                if any(lo < o_hi and o_lo < hi for o_lo, o_hi in others)]

    loads = meeting(load_streams, load_spans, store_spans)
    if not loads:
        return None
    stores = meeting(store_streams, store_spans, load_spans)
    stride = 1 + max(stream[2] for stream in (*loads, *stores))

    def expand(streams):
        """Byte addresses and ranks of the streams' live accesses."""
        byte_parts, rank_parts = [], []
        for addresses, size, node_id, on in streams:
            lanes = (np.arange(len(addresses)) if on is None
                     else np.flatnonzero(on))
            base = addresses[lanes]
            byte_parts.append((base[:, None]
                               + np.arange(size)).ravel())
            rank_parts.append(np.repeat(lanes * stride + node_id, size))
        return np.concatenate(byte_parts), np.concatenate(rank_parts)

    s_bytes, s_ranks = expand(stores)
    if not len(s_bytes):
        return None
    # The lowest-ranked store per byte address: the first of its run once
    # sorted by (byte, rank).
    order = np.lexsort((s_ranks, s_bytes))
    s_bytes, first = np.unique(s_bytes[order], return_index=True)
    s_ranks = s_ranks[order][first]

    l_bytes, l_ranks = expand(loads)
    at = np.minimum(np.searchsorted(s_bytes, l_bytes), len(s_bytes) - 1)
    hazard = (s_bytes[at] == l_bytes) & (s_ranks[at] < l_ranks)
    if not hazard.any():
        return None
    return int(l_ranks[hazard].min()) // stride
