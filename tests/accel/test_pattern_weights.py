"""Oracle: the drive's per-pattern timing weights equal per-lane ones.

Phase T of the batched drive (:mod:`repro.accel.batch`) computes each
node's completion weights once per lane *pattern* (first iteration of the
run or not, which guards predicate their nodes off) and memoises them on
the :class:`~repro.accel.batch.BatchProgram`; a block only picks each
lane's pattern.  :func:`reference_phase_timing` is the per-lane phase T
that built an (n_sources, lanes) weight matrix per node in every block.
Every block of every drive here is checked against it: the pattern terms,
spread back to lanes, must equal the reference matrices — node
completions, memory operand readiness, predicated-off completions, the
iteration end and the contended ring slots' departures and grants.

Covered: the 19 kernels at M-64, M-128 and M-512 in first and later
blocks, the guarded (nw, pathfinder, bfs) and ring-contended (kmeans,
lavamd, streamcluster) plans among them, and random programs from the
batched-path fuzzer.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.accel import M_64, M_128, M_512, DataflowEngine, batch
from repro.accel.plan import K_LOOP, K_NODE, N_MEMORY
from repro.core import MesaController
from repro.workloads import build_kernel, kernel_names

from .test_batch_fuzz import FUZZ_SCALE, build_state, programs

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402

_NEG = float("-inf")

#: Plans whose guards predicate nodes off, and plans with a contended
#: ring channel, at M-128.
GUARDED = ("nw", "pathfinder", "bfs")
CONTENDED = ("kmeans", "lavamd", "streamcluster")


def reference_phase_timing(bp, nb, first, offs):
    """Per-lane completion weights over the timing sources.

    ``W[i]`` is an (n_sources, nb) float64 array: completion of node i at
    iteration k is ``max_s(T[s, k] + W[i][s, k])`` where T holds the
    iteration start (source 0) and each memory node's completion.  -inf
    marks an unreachable source.  Contended ring channels serialize their
    slots through a per-lane grant chain in the same weight space.
    Returns ``(W, mem_ready, mem_off, wend, noc_waits)``, with
    ``noc_waits`` one ``(slot, depart, grant, skip0)`` per contended slot:
    ``skip0`` marks a slot that does not fire on lane 0.
    """
    nodes = bp.nodes
    n = len(nodes)
    S = bp.n_sources
    mem_source = {i: j + 1 for j, i in enumerate(bp.mem_ids)}
    W: list = [None] * n
    mem_ready: dict[int, object] = {}
    mem_off: dict[int, object] = {}
    chains = {row: np.full((S, nb), _NEG) for row in bp.noc_rows}
    noc_waits: list = []

    def chained(edge, dep, skip0):
        chain = chains[edge.src_row]
        grant = np.maximum(dep, chain + 1.0)
        arrival = grant + edge.cycles
        if skip0:
            # Iteration 0 takes the constant seed: no packet, no grant.
            new_chain = grant.copy()
            new_chain[:, 0] = chain[:, 0]
            chains[edge.src_row] = new_chain
            arrival[:, 0] = _NEG
            arrival[0, 0] = 0.0
        else:
            chains[edge.src_row] = grant
        noc_waits.append((edge.slot, dep, grant, skip0))
        return arrival

    def opw(op):
        edge = op.edge
        contended = (edge is not None and not edge.is_local
                     and edge.src_row in chains)
        if op.kind == K_NODE:
            if contended:
                return chained(edge, W[op.src_id], False)
            return W[op.src_id] + edge.cycles
        row = np.full((S, nb), _NEG)
        if op.kind == K_LOOP:
            if contended:
                row[0] = 0.0  # departure is the iteration start
                return chained(edge, row, first)
            row[0] = edge.cycles
            if first:
                row[0, 0] = 0.0
        else:
            row[0] = 0.0
        return row

    for i in range(n):
        rec = nodes[i]
        pnode = rec.plan_node
        ready = np.maximum(opw(pnode.src1), opw(pnode.src2))
        np.maximum(ready[0], 0.0, out=ready[0])  # the start floor
        if rec.kind == N_MEMORY:
            mem_ready[i] = ready
            if offs[i] is not None:
                mem_off[i] = np.maximum(ready, opw(pnode.fallback))
            w = np.full((S, nb), _NEG)
            w[mem_source[i]] = 0.0
            W[i] = w
            continue
        off = offs[i]
        if off is not None:
            w_fb = opw(pnode.fallback)
            W[i] = np.where(off[None, :],
                            np.maximum(ready, w_fb),
                            ready + pnode.latency)
        else:
            W[i] = ready + pnode.latency
    wend = W[0]
    for i in range(1, n):
        wend = np.maximum(wend, W[i])
    return W, mem_ready, mem_off, wend, noc_waits


def spread(terms, inv, S, nb):
    """A consumer's pattern terms as an (S, nb) per-lane weight matrix."""
    out = np.full((S, nb), _NEG)
    for s, w in terms:
        out[s] = w if isinstance(w, float) else w[inv]
    return out


def check_block(bp, nb, first, taken, timing, inv):
    """One block's pattern timing against the per-lane reference."""
    S = bp.n_sources
    offs = [taken[rec.guard] if rec.guard >= 0 else None
            for rec in bp.nodes]
    W, mem_ready, mem_off, wend, noc_waits = reference_phase_timing(
        bp, nb, first, offs)
    assert inv is None or inv.shape == (nb,)
    for i, terms in enumerate(timing.node):
        np.testing.assert_array_equal(spread(terms, inv, S, nb), W[i])
    for j, i in enumerate(bp.mem_ids):
        np.testing.assert_array_equal(
            spread(timing.ready[j], inv, S, nb), mem_ready[i])
        assert (timing.off[j] is None) == (i not in mem_off)
        if i in mem_off:
            np.testing.assert_array_equal(
                spread(timing.off[j], inv, S, nb), mem_off[i])
    end = spread(timing.end, inv, S, nb)
    np.testing.assert_array_equal(end, wend)
    # The lane-latency invariant the drive asserts instead of clamping.
    assert (wend[0] >= 0).all()
    assert len(timing.noc) == len(noc_waits)
    for (slot, dep, grant), (ref_slot, ref_dep, ref_grant, skip0) in zip(
            timing.noc, noc_waits):
        assert slot == ref_slot
        dep, grant = spread(dep, inv, S, nb), spread(grant, inv, S, nb)
        np.testing.assert_array_equal(dep, ref_dep)
        lanes = slice(1 if skip0 else 0, None)
        np.testing.assert_array_equal(grant[:, lanes], ref_grant[:, lanes])
        if skip0:
            # A slot that does not fire waits 0: its grant is its departure.
            np.testing.assert_array_equal(grant[:, 0], dep[:, 0])


@contextlib.contextmanager
def checked_blocks(block):
    """Drive with blocks of ``block`` iterations and check every block's
    timing; yields the list of checked ``(bp, first)`` pairs."""
    seen = []
    block_timing = batch._block_timing

    def checking(bp, nb, first, taken):
        timing, inv = block_timing(bp, nb, first, taken)
        check_block(bp, nb, first, taken, timing, inv)
        seen.append((bp, first))
        return timing, inv

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "_block_timing", checking)
        patch.setattr(batch, "DEFAULT_BLOCK", block)
        yield seen


@pytest.mark.parametrize("config", (M_64, M_128, M_512),
                         ids=lambda config: config.name)
def test_kernel_pattern_weights_equal_per_lane_reference(config):
    guarded, contended = set(), set()
    # Blocks of 24 split each 64-iteration drive into a first block and
    # later ones (more, and shorter, at bfs's store-to-load hazards).
    with checked_blocks(24) as seen:
        for name in kernel_names():
            kernel = build_kernel(name, iterations=64, seed=1)
            count = len(seen)
            MesaController(config).execute(
                kernel.program, kernel.state_factory,
                parallelizable=kernel.parallelizable)
            blocks = seen[count:]
            if not blocks:
                continue  # not offloaded at this config
            assert {first for _, first in blocks} == {True, False}, name
            if any(bp.guard_bit for bp, _ in blocks):
                guarded.add(name)
            if any(bp.noc_rows for bp, _ in blocks):
                contended.add(name)
    if config is M_128:
        assert guarded >= set(GUARDED)
        assert contended >= set(CONTENDED)


@settings(max_examples=40 * FUZZ_SCALE, deadline=None)
@given(programs())
def test_fuzzed_pattern_weights_equal_per_lane_reference(drawn):
    program, reg_values, mem_words, iterations = drawn
    # Blocks of 8 put block boundaries inside the 1-24 iteration runs.
    with checked_blocks(8):
        DataflowEngine(program).run(
            build_state(reg_values, mem_words, iterations))
