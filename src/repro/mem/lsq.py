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
  then forwards from that store, or is invalidated and replays when it
  issued before the store completed.
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
    """
    first = None
    for s_addr, s_size, s_id, s_on in store_streams:
        s_lo = int(s_addr.min())
        s_hi = int(s_addr.max()) + s_size
        for l_addr, l_size, l_id, l_on in load_streams:
            if s_hi <= int(l_addr.min()) or int(l_addr.max()) + l_size <= s_lo:
                continue
            overlap = ((s_addr[None, :] < l_addr[:, None] + l_size)
                       & (l_addr[:, None] < s_addr[None, :] + s_size))
            if s_on is not None:
                overlap &= s_on[None, :]
            if l_on is not None:
                overlap &= l_on[:, None]
            # Rows index the load's iteration, columns the store's.
            rows = (np.tril(overlap) if s_id < l_id
                    else np.tril(overlap, -1)).any(axis=1)
            if rows.any():
                row = int(rows.argmax())
                if first is None or row < first:
                    first = row
    return first
