"""Batched execution: advance a block of fabric iterations as numpy vectors.

The interpreter (:meth:`DataflowEngine._run_iteration`) walks every node of
every iteration in Python.  For most kernels the dynamic behaviour per
iteration is tiny — values change, but routing, latencies, guards, and the
schedule are frozen in the :class:`~repro.accel.plan.ExecutionPlan` — so a
block of B iterations can be advanced at once with (B,)-shaped vectors per
node instead of B full Python sweeps.  This is the engine's one fast drive
path; the interpreter stays as its bit-identity oracle.

The contract is the same as the plan's: **bit-identical** to the interpreter
on everything the batched path accepts.  That is only possible because of a
few provable properties of the model:

* **Opcode semantics come from one table.**  Every compute and branch
  node runs its opcode's lane form from :data:`repro.isa.OPCODE_TABLE`,
  whose row also holds the scalar form the interpreter runs; a per-row
  differential test holds the two to the same bits, NaN payloads and the
  two-NaN rule included.  Loop-carried FP reductions
  accumulate directly in float32, which equals the round-each-step scalar
  chain by the innocuous-double-rounding theorem (binary64's 53-bit
  significand exceeds 2·24+2 for add/sub; binary32 products are exact in
  binary64), and a NaN accumulator keeps its payload by the same rule.
* **NoC ring queueing is closed-form.**  Channel state never carries
  between iterations: the next iteration starts no earlier than the last
  grant plus the edge latency (>= 1 cycle), which is exactly when the
  channel frees — so per-iteration request chains are independent and
  vectorize.  A row with one NoC slot provably never waits; a row with
  several fires them in the interpreter's request order (node id, src1
  before src2), and the grant of slot ``j`` is ``max(depart_j,
  grant_{j-1} + 1)``.  Because the issue-interval bump distributes over
  the max-plus source decomposition, the whole chain is carried as
  per-source weights (phase T) and reproduces the event-order departures
  bit-exactly.  Only a *fallback* slot on a contended row —
  whose firing depends on runtime guard values — has no static order, and
  such a plan runs on the interpreter.
* **Guarded nodes mix, guarded memory masks.**  A predicated-off lane
  takes its fallback value (``np.where``) and the fallback transfer's
  timing; an off *memory* lane additionally skips the port request, the
  cache access, and the store commit — a mask-aware ``Memory.gather``
  reads only live lanes, and the block alias check ignores dead ones, so
  guard-false lanes charge neither port occupancy nor AMAT, exactly like
  the interpreter's suppressed accesses.
* **Coupled recurrences run as one generated function per cluster.**
  Loop-carried strongly connected components with no closed scan form
  (mutually recursive producers, guarded self-loops, non-linear updates)
  are *clusters*.  Each is compiled into one Python function that runs
  its members straight-line, lane by lane, while every node outside the
  cluster, and all timing, stays vectorized.  On the *fast binding* the
  members in :data:`_FAST_OPS` run as inline operators (float32 add, sub
  and mul on ``np.float32`` scalars, int add/sub/bitwise ops and
  comparisons on Python ints) and every other member calls the plan's
  scalar evaluator closure.  Inline FP is exact except on NaNs and inline
  int sums except past signed 32 bits, so a NaN in a fast FP column or a
  fast sum column outside signed 32 bits re-runs the block's cluster on
  the *exact binding* — the same generator with every member on its
  closure, bit-identical by construction.  Clusters through memory nodes
  are rejected (their lane values gate port state).
* **First-hazard truncation keeps store→load ordering inert.**  Loads
  are gathered before any store of the block commits, so a block is exact
  up to its first iteration whose load byte-overlaps an earlier store of
  the block (same iteration and earlier in program order, or any earlier
  iteration) — the first load :func:`repro.mem.lsq.forwarding_store`
  would send to a store.  A vectorized alias check finds that iteration
  from the concrete addresses, and only the iterations before it commit;
  the next block starts there, sized from the hazard spacing.  This holds
  even when store addresses are computed from loaded values: every access
  before the first hazard reads memory no store of the block wrote, so
  its address and value are exact, and so is the hazard search up to that
  point.  The check is one sorted pass over the block's live access
  bytes, O(n log n) in its accesses.  A hazard in a block's first
  iteration can only be an in-iteration store-to-load forward; the
  interpreter executes that one iteration (iteration barriers leave no
  NoC state or store list behind, and counter folds are additive), then
  batching resumes.
* **Memory port state never carries between iterations.**  Each run's
  pool starts empty at clock 0.  A request frees its port one cycle
  after its grant, and its own node completes no earlier than the L1
  hit latency (a load) or :data:`~repro.latency.STORE_ISSUE` (a store)
  after the grant — both at least 1 cycle, which the cache config enforces
  and a test asserts of the latency constants; a replayed load, whose
  grant came before the store completed, completes after the store — and
  no later than the iteration's end.  So every port is free again when the next
  iteration starts: like the NoC rings, each iteration's grants depend
  only on its own requests and vectorize over lanes in each lane's own
  time, and an interpreter step's grants never depend on the pool state
  that batched blocks leave unwritten.
* **Cache outcomes depend only on address order.**  The hierarchy's state
  evolves with the sequence of accesses (k-major, then memory-node order),
  never with their timing, so a block's latencies come from one bulk
  cache pass before any timing is computed, which folds AMAT by memory
  node.
* **Timing is max-plus linear, and its weights are static.**  Completion
  times decompose over the sources {iteration start} ∪ {memory
  completions}: per node a weight per source (phase T), then the memory
  nodes timed one node at a time over all lanes (phase B).  Routes, hop
  costs and op latencies are fixed when the region is configured, so a
  lane's weights depend only on its *pattern*: whether it is the run's
  first iteration, and which guards predicate their nodes off.  Phase T
  walks the nodes once per plan and pattern, memoised on the
  :class:`BatchProgram`; a block only packs each lane's pattern id, and
  every consumer reads just the sources it can reach.  Lane starts and
  per-node counter sums fold exactly because every timing quantity is an
  integer-valued float64 (any summation order is exact below 2**53).

Capability analysis (:func:`compile_batch`) decides statically whether a
plan qualifies; ``ExecutionPlan.batch_program.capability`` carries the
verdict with a machine-readable reason, and a rejected plan runs on the interpreter with
that reason reported as the run's ``drive_reason``.  A plan with more
than :data:`_MAX_GUARDS` active guards is one such fallback: a lane's
pattern id holds one bit per guard.

One block step serves two drivers.  :func:`_step_block` evaluates a
block of up to :data:`DEFAULT_BLOCK` (2048) iterations and cuts it after
its first untaken loop branch and before its first store→load hazard.  It
evaluates the loop branch's dependence cone first (on every Rodinia
kernel just the counter and its branch), cuts at the exit, and only then
evaluates the other nodes on the lanes that run, so a block longer than
the remaining trip costs little more than the cone.
:func:`_commit_stores` commits the cut block's stores, guard-masked and
k-major, through one ``Memory.scatter``.
:func:`drive_batched` adds the fabric's timing phases, its interpreter
step for a hazard at lane 0 and its ``2 × hazard`` block sizing;
:func:`repro.cpu.trace.collect_trace` hands a straight-line loop body to
:func:`_compile` as node plans with edge-free operands, which every
timing-only pass skips, and adds register writeback, trace columns and
its own scalar backoff.  The two sizing rules differ because the two
fallbacks cost very different amounts: one interpreter iteration against
a few scalar-stepped trips.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass

import numpy as np

from ..isa import ACCESS_FORMATS, OPCODE_TABLE, ExecutionError, Opcode
from ..isa.registers import RegFile
from ..isa.semantics import _vts, _vtu, compile_lanes
from ..latency import STORE_ISSUE
from ..mem.lsq import block_alias_hazard
from .plan import (
    K_CONST,
    K_LOOP,
    K_NODE,
    N_CONTROL,
    N_MEMORY,
)

__all__ = ["BatchCapability", "BatchProgram", "compile_batch",
           "drive_batched", "DEFAULT_BLOCK"]

#: Iterations per batched block, for the fabric drive and the CPU tracer
#: alike.  A block pays a fixed cost of per-node numpy calls, and
#: exit-first evaluation and the sorted alias check keep a block longer
#: than its loop cheap, so blocks are sized well past a typical trip.
DEFAULT_BLOCK = 2048

_NEG = float("-inf")

#: Active guard branches a batched plan may have.  A lane pattern key
#: holds one bit per guard plus the first-iteration bit, so a plan has at
#: most 128 patterns to memoise, and a block counts its lanes per key
#: with one ``bincount`` of at most 128 bins.
_MAX_GUARDS = 6
#: Pattern sets whose timing a plan keeps (:func:`_block_timing`);
#: unguarded plans use two, the Rodinia kernels at most four.
_MAX_TIMINGS = 64

# Per-slot edge event cadences (for counter folding).
EV_ALWAYS = 0    # fires every iteration
EV_LOOP = 1      # every iteration except the global first (loop-carried)
EV_FB = 2        # fires when the owning node is predicated off
EV_FB_LOOP = 3   # EV_FB, minus a global-first-iteration off (const, no edge)


@dataclass(frozen=True)
class BatchCapability:
    """Verdict of the capability analysis for one plan."""

    supported: bool
    #: Machine-readable reason for a fallback ("" when supported).
    reason: str = ""

    def __bool__(self) -> bool:
        return self.supported


#: Self-loop reductions with an exact closed/scan form, keyed by opcode.
_SCAN_OPS = {
    Opcode.ADDI: "addi",
    Opcode.ADD: "iadd",
    Opcode.SUB: "isub",
    Opcode.FADD_S: "fadd",
    Opcode.FSUB_S: "fsub",
    Opcode.FMUL_S: "fmul",
}


class _BatchNode:
    """Per-node batched execution recipe (compiled once per plan)."""

    __slots__ = ("plan_node", "i", "kind", "dtype", "np_dtype", "guard",
                 "fn", "scan", "scan_imm", "opcode", "mem_sign",
                 "req1", "req2", "cluster")

    def __init__(self, plan_node, i):
        self.plan_node = plan_node
        self.i = i
        self.kind = plan_node.kind
        self.dtype = "i"         # "i": int64 lanes of signed-32, "f": float32
        self.np_dtype = None
        self.guard = -1          # active guard branch id, -1 when inert
        self.fn = None           # lane form (a, b) -> lanes; None: memory
        self.scan = ""           # _SCAN_OPS tag for scan nodes
        self.scan_imm = 0        # immediate of an "addi" closed-form scan
        self.opcode = None
        self.mem_sign = 0        # sign-extension bit for signed loads
        self.req1 = None         # operand values: FORM_VALUES codes
        self.req2 = None
        self.cluster = -1        # index into BatchProgram.clusters


#: Cluster members bound to an inline operator in their cluster's
#: generated function (the fast binding), keyed by opcode: the operand
#: type (``"f"``: every value an ``np.float32`` scalar, ``"i"``: a Python
#: int), the expression over ``{a}`` and ``{b}`` (``{b}`` is the
#: immediate of an int_imm row), and the re-run trigger checked on the
#: member's column (:data:`_RERUN`).  FP arithmetic in float32 equals the
#: closure's float64-op-then-round by the same innocuous-double-rounding
#: theorem the FP scans rely on, except for NaN payloads and the two-NaN
#: rule; an int sum equals the closure's wrapped one unless it leaves
#: signed 32 bits.  Bitwise ops and comparisons of signed-32 ints are
#: exact as they stand.  Every other member calls its plan closure.
_FAST_OPS = {
    Opcode.FADD_S: ("f", "{a} + {b}", "nan"),
    Opcode.FSUB_S: ("f", "{a} - {b}", "nan"),
    Opcode.FMUL_S: ("f", "{a} * {b}", "nan"),
    Opcode.ADD: ("i", "{a} + {b}", "wrap"),
    Opcode.SUB: ("i", "{a} - {b}", "wrap"),
    Opcode.ADDI: ("i", "{a} + {b}", "wrap"),
    Opcode.AND: ("i", "{a} & {b}", ""),
    Opcode.OR: ("i", "{a} | {b}", ""),
    Opcode.XOR: ("i", "{a} ^ {b}", ""),
    Opcode.ANDI: ("i", "{a} & {b}", ""),
    Opcode.ORI: ("i", "{a} | {b}", ""),
    Opcode.XORI: ("i", "{a} ^ {b}", ""),
    Opcode.BEQ: ("i", "{a} == {b}", ""),
    Opcode.BNE: ("i", "{a} != {b}", ""),
    Opcode.BLT: ("i", "{a} < {b}", ""),
    Opcode.BGE: ("i", "{a} >= {b}", ""),
}

_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1

#: Re-run triggers: true on a fast member's column where its inline
#: operator may differ from the closure, and the block's cluster re-runs
#: on the exact binding.
_RERUN = {
    "nan": lambda col: bool(np.isnan(col).any()),
    "wrap": lambda col: bool(col.min() < _INT32_MIN
                             or col.max() > _INT32_MAX),
}


class _Cluster:
    """One loop-carried strongly connected component, run lane by lane by
    one generated function (see :func:`_cluster_source`)."""

    __slots__ = ("members", "nodes", "fast_members", "checks", "closures",
                 "dtypes", "fast", "exact")

    def __init__(self, members, nodes, fast):
        self.members = members            # ascending node ids
        self.nodes = nodes
        #: Members on the fast binding, ascending.
        self.fast_members = tuple(i for i in members if i in fast)
        #: (column, re-run trigger) per checked fast member.
        self.checks = [(j, fast[i][2]) for j, i in enumerate(members)
                       if i in fast and fast[i][2]]
        #: Every member's plan closure, in member order.
        self.closures = tuple(nodes[i].plan_node.evaluate for i in members)
        self.dtypes = [nodes[i].np_dtype for i in members]
        #: The fast binding, and the exact binding (every member on its
        #: closure), generated on the first re-run.
        self.fast = _compile_cluster(_cluster_source(members, nodes, fast))
        self.exact = self.fast if not fast else None


class BatchProgram:
    """A plan compiled for batched execution (or its fallback verdict)."""

    __slots__ = ("plan", "capability", "nodes", "order", "exit_order",
                 "rest_order", "loop_id", "mem_ids", "loads", "stores",
                 "slot_events", "n_sources", "clusters", "noc_rows",
                 "guard_bit", "patterns", "timings")

    def __init__(self, plan, capability, nodes=None, order=None,
                 loop_id=None, mem_ids=None, slot_events=None,
                 clusters=None, noc_rows=frozenset(), exit_cone=frozenset()):
        self.plan = plan
        self.capability = capability
        self.nodes = nodes or []
        #: Topological schedule over same-iteration + loop-carried edges
        #: (cluster members appear contiguously, ascending).
        self.order = order or []
        #: The schedule split in two: the loop branch's dependence cone,
        #: which a block evaluates first to find its exit, and every other
        #: node, evaluated only on the lanes that run.
        self.exit_order = [i for i in self.order if i in exit_cone]
        self.rest_order = [i for i in self.order if i not in exit_cone]
        #: The loop-closing branch node.
        self.loop_id = loop_id
        #: Memory node ids in program order (their completions are the
        #: dynamic timing sources alongside the iteration start).
        self.mem_ids = mem_ids or []
        #: (node id, access size) per load and per store, in program order:
        #: the streams of the block alias check and of the store commit.
        accesses = [(i, self.nodes[i].plan_node.memory)
                    for i in self.mem_ids]
        self.loads = [(i, mem.size) for i, mem in accesses if mem.is_load]
        self.stores = [(i, mem.size) for i, mem in accesses
                       if not mem.is_load]
        #: (edge, cadence, owner_node_id) per operand slot, for exact
        #: counter folds.
        self.slot_events = slot_events or []
        self.n_sources = 1 + len(self.mem_ids)
        #: Coupled-recurrence clusters, by first-member order.
        self.clusters = clusters or []
        #: Source rows whose ring channel carries more than one NoC slot
        #: per iteration — their grants go through the closed-form chain.
        self.noc_rows = noc_rows
        #: Each active guard's bit in a lane pattern key (bit 0 marks the
        #: run's first iteration; see :func:`_pattern_weights`).
        guards = sorted({rec.guard for rec in self.nodes if rec.guard >= 0})
        self.guard_bit = {guard: bit for bit, guard in enumerate(guards, 1)}
        #: Memoised phase-T weights per lane pattern key, and the timing
        #: of each block's tuple of pattern keys (:func:`_block_timing`).
        self.patterns: dict[int, tuple] = {}
        self.timings: dict[tuple, _Timing] = {}


def _operand_dtype(op, dtypes):
    """Lane dtype an operand resolves to (K_CONST by register file)."""
    if op.kind == K_CONST:
        reg = op.register
        return "f" if (reg is not None and reg.file is RegFile.FP) else "i"
    return dtypes[op.src_id]


def _wildcard_const(op):
    """A none/zero constant is exact in either lane dtype."""
    return op.kind == K_CONST and op.register is None


def compile_batch(plan) -> BatchProgram:
    """Capability-analyze and compile a plan for batched execution."""
    verdict = _compile(plan, plan.nodes,
                       [node.instruction for node in plan.program.nodes],
                       plan.loop_branch_id, plan.config.xlen)
    if isinstance(verdict, BatchProgram):
        return verdict
    return BatchProgram(plan, BatchCapability(False, verdict))


def _compile(plan, plan_nodes, instructions, loop_branch_id, xlen):
    """Compile ``plan_nodes`` (one per instruction of ``instructions``,
    closed by the branch node ``loop_branch_id``) at width ``xlen``.

    Returns a BatchProgram, or a fallback-reason string.  The CPU tracer
    compiles a loop body here with ``plan=None`` and edge-free operands,
    which every timing-only pass below skips.
    """
    if loop_branch_id is None:
        return "no loop branch (single-shot region)"
    if xlen != 32:
        return "xlen 64"
    n = len(plan_nodes)

    nodes: list[_BatchNode] = []
    dtypes: list[str] = []
    # Pass 1: per-node recipe + result dtype (from the opcode's row form).
    for i, pnode in enumerate(plan_nodes):
        instr = instructions[i]
        rec = _BatchNode(pnode, i)
        rec.opcode = instr.opcode
        if pnode.kind == N_MEMORY:
            mem = pnode.memory
            if mem.size > 4:
                return "wide memory access"
            rec.req1 = "i"  # address base goes through int()
            if mem.is_load:
                size, signed = ACCESS_FORMATS[instr.opcode]
                if instr.opcode is Opcode.FLW:
                    rec.dtype = "f"
                elif signed:
                    rec.mem_sign = 1 << (size * 8 - 1)
            else:
                rec.req2 = "f" if instr.opcode is Opcode.FSW else "i"
        else:
            try:
                rec.fn, (rec.dtype, rec.req1, rec.req2) = compile_lanes(instr)
            except ExecutionError as error:
                return str(error)
        nodes.append(rec)
        dtypes.append(rec.dtype)

    for rec in nodes:
        rec.np_dtype = np.float32 if rec.dtype == "f" else np.int64
        # Guards at or after their node never fire (the interpreter reads
        # the iteration's still-False branch state) — the plan hoists that
        # rule into ``effective_guard``.
        rec.guard = rec.plan_node.effective_guard

    # Pass 2: build the combined dependence graph (same-iteration K_NODE
    # edges, loop-carried K_LOOP edges — self edges included — and guard
    # edges), then recognize which loop-carried cycles have a closed scan
    # form and which become recurrence clusters.
    preds_of: list[set] = [set() for _ in range(n)]
    for rec in nodes:
        pnode = rec.plan_node
        ops = [pnode.src1, pnode.src2]
        if rec.guard >= 0:
            ops.append(pnode.fallback)
        for op in ops:
            if op.kind == K_NODE and op.src_id >= rec.i:
                # The interpreter only ever reads completed same-iteration
                # producers; a forward edge has no defined value.
                return "forward same-iteration edge"
            if op.kind in (K_NODE, K_LOOP):
                preds_of[rec.i].add(op.src_id)
        if rec.guard >= 0:
            preds_of[rec.i].add(rec.guard)

    # Scan candidacy: a pure src1 self-loop through a recognized reduction
    # opcode evaluates in closed/scan form.  A failed candidate is *not* a
    # rejection — it simply keeps its self edge and lands in a cluster.
    for rec in nodes:
        pnode = rec.plan_node
        if not (pnode.src1.kind == K_LOOP and pnode.src1.src_id == rec.i
                and rec.opcode in _SCAN_OPS
                and pnode.guard_branch < 0
                and not (pnode.src2.kind == K_LOOP
                         and pnode.src2.src_id == rec.i)):
            continue
        scan = _SCAN_OPS[rec.opcode]
        seed = pnode.src1.register
        ok = not (seed is not None
                  and (seed.file is RegFile.FP) != (rec.dtype == "f"))
        if ok:
            if scan == "addi":
                rec.scan_imm = instructions[rec.i].imm
                ok = abs(rec.scan_imm) < 1 << 31
            else:
                x_dtype = _operand_dtype(pnode.src2, dtypes)
                ok = x_dtype == rec.dtype or _wildcard_const(pnode.src2)
        if ok:
            rec.scan = scan
            preds_of[rec.i].discard(rec.i)

    # Tarjan SCCs over the remaining graph: every nontrivial component
    # (and every self-edged singleton) is a coupled recurrence cluster.
    succs: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for p in preds_of[i]:
            succs[p].append(i)
    for lst in succs:
        lst.sort()
    comps = _tarjan_sccs(n, succs)

    clusters: list[list[int]] = []
    for comp in comps:
        if len(comp) > 1 or comp[0] in preds_of[comp[0]]:
            clusters.append(comp)
    clusters.sort()
    for ci, comp in enumerate(clusters):
        for i in comp:
            if nodes[i].kind == N_MEMORY:
                # A lane's load value / store commit would gate the next
                # lane's — the port walk cannot be replayed exactly.
                return "loop-carried recurrence through memory"
            nodes[i].cluster = ci
            nodes[i].scan = ""  # a swallowed candidate runs in the loop

    # Pass 2b: operands of *vectorized* nodes are checked for exact dtype
    # agreement with the interpreter's int()/float() conversions.  Cluster
    # members skip these (a closure converts, and a member binds inline
    # only on exact operands, see _make_cluster) — except the
    # guard-fallback check, whose value lands in the typed lane array.
    for rec in nodes:
        pnode = rec.plan_node
        # Predicated-off lanes mix the fallback into the result vector
        # (stores excepted: a suppressed store's value is always 0).
        if rec.guard >= 0 and not (rec.kind == N_MEMORY
                                   and not pnode.memory.is_load):
            if not _wildcard_const(pnode.fallback) and \
                    _operand_dtype(pnode.fallback, dtypes) != rec.dtype:
                return "guard fallback dtype mismatch"
        if rec.cluster >= 0 or rec.scan:
            continue
        # The interpreter converts operands with int()/float() — the lane
        # dtype must make those conversions the identity.
        for op, req in ((pnode.src1, rec.req1), (pnode.src2, rec.req2)):
            if req == "i" and _operand_dtype(op, dtypes) != "i":
                return "operand dtype mismatch"
        # Loop-carried seeds must be exact in the producer's lane dtype.
        for op in (pnode.src1, pnode.src2,
                   pnode.fallback if rec.guard >= 0 else None):
            if op is not None and op.kind == K_LOOP:
                seed = op.register
                if seed is not None and (
                        (seed.file is RegFile.FP)
                        != (dtypes[op.src_id] == "f")):
                    return "loop-carried seed dtype mismatch"

    cluster_objs = [_make_cluster(comp, nodes, instructions)
                    for comp in clusters]

    # Pass 3: deterministic topological schedule over the condensation
    # (always a DAG).  Singleton components pop in exactly the order the
    # previous min()-of-ready scan produced; cluster members are emitted
    # contiguously, ascending, at their component's turn.
    comp_key = [0] * n
    comp_members: dict[int, list[int]] = {}
    for comp in comps:
        key = comp[0]
        comp_members[key] = comp
        for i in comp:
            comp_key[i] = key
    cindeg = {key: 0 for key in comp_members}
    csuccs: dict[int, set] = {key: set() for key in comp_members}
    for i in range(n):
        ck = comp_key[i]
        for p in preds_of[i]:
            pk = comp_key[p]
            if pk != ck and ck not in csuccs[pk]:
                csuccs[pk].add(ck)
                cindeg[ck] += 1
    heap = [key for key, deg in cindeg.items() if deg == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        key = heapq.heappop(heap)
        order.extend(comp_members[key])
        for sk in csuccs[key]:
            cindeg[sk] -= 1
            if cindeg[sk] == 0:
                heapq.heappush(heap, sk)

    # The loop branch's dependence cone: its ancestors over every edge
    # above, so it is closed under loop-carried reads, and a cluster is in
    # it whole or not at all (its members are each other's ancestors).
    exit_cone = {loop_branch_id}
    frontier = [loop_branch_id]
    while frontier:
        for p in preds_of[frontier.pop()]:
            if p not in exit_cone:
                exit_cone.add(p)
                frontier.append(p)

    mem_ids = [rec.i for rec in nodes if rec.kind == N_MEMORY]
    if len({rec.guard for rec in nodes if rec.guard >= 0}) > _MAX_GUARDS:
        return f"more than {_MAX_GUARDS} guard branches"

    # Pass 4: rows whose ring channel carries more than one firing NoC
    # slot serialize through the closed-form grant chain, which replays
    # the interpreter's static request order (node id, src1 before src2).
    # A *fallback* slot fires only on predicated-off iterations — its
    # position in the chain is data-dependent, so such plans are rejected.
    # (Inert-guard fallback edges never fire and are ignored entirely.)
    row_total: dict[int, int] = {}
    row_fb: dict[int, int] = {}
    for rec in nodes:
        pnode = rec.plan_node
        row_ops = [(pnode.src1, False), (pnode.src2, False)]
        if rec.guard >= 0:
            row_ops.append((pnode.fallback, True))
        for op, is_fb in row_ops:
            e = op.edge
            if e is not None and not e.is_local:
                row_total[e.src_row] = row_total.get(e.src_row, 0) + 1
                if is_fb:
                    row_fb[e.src_row] = row_fb.get(e.src_row, 0) + 1
    noc_rows = frozenset(row for row, count in row_total.items()
                         if count > 1)
    for row in noc_rows:
        if row_fb.get(row):
            return "data-dependent NoC channel order"

    # Per-slot event cadences for the counter fold.
    slot_events = []
    for rec in nodes:
        pnode = rec.plan_node
        for op in (pnode.src1, pnode.src2):
            if op.edge is not None:
                slot_events.append(
                    (op.edge, EV_LOOP if op.kind == K_LOOP else EV_ALWAYS,
                     rec.i))
        if rec.guard >= 0 and pnode.fallback.edge is not None:
            slot_events.append(
                (pnode.fallback.edge,
                 EV_FB_LOOP if pnode.fallback.kind == K_LOOP else EV_FB,
                 rec.i))

    return BatchProgram(plan, BatchCapability(True), nodes, order,
                        loop_branch_id, mem_ids, slot_events, cluster_objs,
                        noc_rows, exit_cone)


def _tarjan_sccs(n, succs):
    """Iterative Tarjan: strongly connected components, each sorted
    ascending (deterministic: roots and successor lists ascend)."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succs[root]))]
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if index_of[child] == -1:
                    index_of[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(succs[child])))
                    advanced = True
                    break
                if on_stack[child] and index_of[child] < low[node]:
                    low[node] = index_of[child]
            if advanced:
                continue
            work.pop()
            if work and low[node] < low[work[-1][0]]:
                low[work[-1][0]] = low[node]
            if low[node] == index_of[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp.append(member)
                    if member == node:
                        break
                comp.sort()
                comps.append(comp)
    return comps


def _exact_operand(nodes, op, kind):
    """Whether operand ``op`` holds a value of type ``kind`` ("i" or "f")
    on every lane, its loop-carried seed included, so that its canonical
    form (a Python int, an ``np.float32``) is exact."""
    reg = op.register
    reg_ok = reg is None or (reg.file is RegFile.FP) == (kind == "f")
    if op.kind == K_CONST:
        return reg_ok
    return nodes[op.src_id].dtype == kind and (op.kind == K_NODE or reg_ok)


def _make_cluster(comp, nodes, instructions):
    """Bind each member of one SCC (fast or closure) and generate the
    cluster's function."""
    fast = {}
    # On the fast binding every member's value is canonical.  A guard
    # fallback seeded from the other register file would put a raw seed
    # in a typed column, so such a cluster keeps every member on its
    # closure.
    if all(_exact_operand(nodes, nodes[i].plan_node.fallback,
                          nodes[i].dtype)
           for i in comp if nodes[i].guard >= 0):
        for i in comp:
            rec = nodes[i]
            row = _FAST_OPS.get(rec.opcode)
            if row is None:
                continue
            kind, expr, check = row
            operands = [rec.plan_node.src1]
            if OPCODE_TABLE[rec.opcode].form == "int_imm":
                imm = instructions[i].imm
                if not _INT32_MIN <= imm <= _INT32_MAX:
                    continue
                expr = expr.replace("{b}", repr(imm))
            else:
                operands.append(rec.plan_node.src2)
            if all(_exact_operand(nodes, op, kind) for op in operands):
                fast[i] = (kind, expr, check)
    return _Cluster(comp, nodes, fast)


def _cluster_source(members, nodes, fast):
    """The source of one cluster's function under one binding.

    ``fast`` maps each fast member to its (operand type, expression,
    trigger); an empty map gives the exact binding, every member on its
    plan closure.  The function takes ``(nb, first, prev, const1, const2,
    const_fb, vals, taken, E)``, with ``E`` the members' closures in
    member order, and returns one row of member values per lane.  It holds the members
    straight-line inside one loop over the lanes: same-iteration reads of
    members are locals, loop-carried reads of members are carry locals
    seeded with the reader's own seed, and vectorised producers are
    streamed (their loop-carried reads shifted by one lane behind that
    seed).  A guarded member runs ``if guard: fallback else: op``.

    FP producers stream ``np.float32`` scalars.  On the fast binding every
    value is canonical: the constants and seeds that fast members and
    guard fallbacks read are converted too, and FP closure results are
    wrapped in an ``np.float32``, so no promotion rule applies.
    """
    member_set = set(members)
    canonical = bool(fast)
    prologue = [f"f{i} = E[{j}]" for j, i in enumerate(members)
                if i not in fast]
    carries: list[str] = []
    streams: dict[str, str] = {}  # iterable -> loop variable

    def ext_list(src):
        # A vectorised producer's lanes as canonical scalars (closures
        # convert either kind exactly).
        name = f"x{src}"
        if nodes[src].dtype == "f":
            line = f"{name} = list(vals[{src}])"
        else:
            line = f"{name} = vals[{src}].tolist()"
        if line not in prologue:
            prologue.append(line)
        return name

    def stream(iterable):
        name = streams.get(iterable)
        if name is None:
            name = streams[iterable] = f"e{len(streams)}"
        return name

    def read(op, i, slot, kind):
        """Member ``i``'s operand ``slot`` ("a", "b", "g": the guard
        fallback), canonical for ``kind`` ("i", "f") or raw (None)."""
        wrap = "F({})" if kind == "f" else "{}"
        consts = {"a": "const1", "b": "const2", "g": "const_fb"}[slot]
        if op.kind == K_CONST:
            value = "0" if op.register is None else f"{consts}[{i}]"
            prologue.append(f"k{i}{slot} = {wrap.format(value)}")
            return f"k{i}{slot}"
        src = op.src_id
        if op.kind == K_NODE:
            return f"v{src}" if src in member_set else stream(ext_list(src))
        seed = wrap.format(f"{consts}[{i}] if first else prev[{src}]")
        if src in member_set:
            prologue.append(f"c{i}{slot} = {seed}")
            carries.append(f"c{i}{slot} = v{src}")
            return f"c{i}{slot}"
        prologue.append(f"y{i}{slot} = [{seed}] + {ext_list(src)}[:-1]")
        return stream(f"y{i}{slot}")

    body: list[str] = []
    for i in members:
        rec = nodes[i]
        pnode = rec.plan_node
        is_ctrl = rec.kind == N_CONTROL
        if i in fast:
            kind, expr, _ = fast[i]
            value = expr.format(
                a=read(pnode.src1, i, "a", kind),
                b=(read(pnode.src2, i, "b", kind) if "{b}" in expr
                   else None))
        else:
            value = (f"f{i}({read(pnode.src1, i, 'a', None)}, "
                     f"{read(pnode.src2, i, 'b', None)})")
            if canonical and rec.dtype == "f":
                value = f"F({value})"
        op_line = f"t{i} = v{i} = {value}" if is_ctrl else f"v{i} = {value}"
        if rec.guard < 0:
            body.append(op_line)
            continue
        guard = (f"t{rec.guard}" if rec.guard in member_set
                 else stream(f"taken[{rec.guard}].tolist()"))
        fallback = read(pnode.fallback, i, "g",
                        rec.dtype if canonical else None)
        body += [f"if {guard}:", f"    v{i} = {fallback}"]
        if is_ctrl:
            body.append(f"    t{i} = False")  # a disabled branch is untaken
        body += ["else:", f"    {op_line}"]

    head = (f"for {', '.join(streams.values())}, in "
            f"zip({', '.join(streams)}):" if streams
            else "for _ in range(nb):")
    row = ", ".join(f"v{i}" for i in members)
    lines = ["def cluster(nb, first, prev, const1, const2, const_fb, vals, "
             "taken, E, F=F):",
             *prologue,
             "rows = []",
             "push = rows.append",
             head,
             *("    " + line for line in body),
             f"    push(({row},))",
             *("    " + line for line in carries),
             "return rows"]
    return "\n    ".join(lines) + "\n"


@functools.lru_cache(maxsize=256)
def _compile_cluster(source):
    """A cluster function from its source, memoised by the source text:
    the CPU tracer recompiles a loop body on every trace."""
    namespace = {"F": np.float32}
    exec(source, namespace)
    return namespace["cluster"]


# -- block driver --------------------------------------------------------------

def _step_block(bp: BatchProgram, nb, first, prev, const1, const2, const_fb,
                memory):
    """Evaluate up to ``nb`` iterations' values and cut the block: after
    its first untaken loop branch, then before its first iteration whose
    load reads a store of the block (:func:`block_alias_hazard`).

    The loop branch's dependence cone runs first, on all ``nb`` lanes;
    every other node runs only on the lanes up to the exit.  Both callers
    step through here: the fabric's :func:`drive_batched` and the CPU
    tracer's block loop.  Returns ``(nb, exited, hazard, vals, offs,
    taken, mem_vecs)`` with every vector cut to the ``nb`` iterations that
    commit; ``hazard`` is the cut iteration (0 when the first one forwards
    in-iteration), or None.
    """
    n = len(bp.nodes)
    vals: list = [None] * n
    offs: list = [None] * n
    taken: list = [None] * n
    mem_vecs: dict[int, list] = {}
    with np.errstate(all="ignore"):
        _phase_values(bp, bp.exit_order, nb, first, prev, const1, const2,
                      const_fb, memory.gather, vals, offs, taken, mem_vecs)
        loop_vec = taken[bp.loop_id]
        exited = not loop_vec.all()
        if exited:
            nb = int(np.argmin(loop_vec)) + 1
            _truncate(vals, offs, taken, mem_vecs, nb)
        _phase_values(bp, bp.rest_order, nb, first, prev, const1, const2,
                      const_fb, memory.gather, vals, offs, taken, mem_vecs)
    hazard = None
    if bp.loads and bp.stores:
        hazard = block_alias_hazard(
            [(mem_vecs[i][0], size, i, mem_vecs[i][2])
             for i, size in bp.loads],
            [(mem_vecs[i][0], size, i, mem_vecs[i][2])
             for i, size in bp.stores])
    if hazard is not None:
        # Every iteration before the hazard loops on.
        nb, exited = hazard, False
        _truncate(vals, offs, taken, mem_vecs, nb)
    return nb, exited, hazard, vals, offs, taken, mem_vecs


def _commit_stores(bp: BatchProgram, nb, mem_vecs, memory) -> None:
    """Commit a cut block's stores through one :meth:`Memory.scatter`,
    k-major then in program order, skipping predicated-off lanes: the
    first-hazard cut guarantees that no load of the block reads them."""
    if not bp.stores:
        return
    ons = [mem_vecs[i][2] for i, _ in bp.stores]
    live = (None if all(on is None for on in ons) else
            np.stack([np.ones(nb, bool) if on is None else on
                      for on in ons], axis=1).ravel())
    memory.scatter(
        np.stack([mem_vecs[i][0] for i, _ in bp.stores], axis=1).ravel(),
        np.tile([size for _, size in bp.stores], nb),
        np.stack([mem_vecs[i][1] for i, _ in bp.stores], axis=1).ravel(),
        live)


def drive_batched(bp: BatchProgram, hierarchy, state, reg_env, memory_ports,
                  latency, activity, options, step):
    """Drive the loop in vectorized blocks.

    Each block is cut by :func:`_step_block`; a hazard in a block's first
    iteration is executed by ``step(prev_values, iteration, start)`` — the
    interpreter's :meth:`~repro.accel.engine.DataflowEngine._run_iteration`,
    which records that iteration's counters itself.  ``memory_ports`` is
    the config's port count (``math.inf`` for unlimited ports).  Event
    counts fold straight into ``activity``: the folds are additive, so
    interpreter steps mix in.

    Returns ``(iterations, latency_total, reason)``: the sum of the
    iteration latencies is exact in any order, since every timing quantity
    is an integer-valued float64; ``reason`` names the first iteration the
    interpreter stepped ("" when none was).
    """
    plan = bp.plan
    n = plan.n_nodes
    const1, const2, const_fb = plan.bind_constants(reg_env)
    max_iterations = options.max_iterations
    memory = state.memory

    # Run-level accumulators, folded into the latency counters at the end.
    node_total = [0.0] * n
    slot_count = [0] * len(plan.edge_slots)
    slot_wait = [0.0] * len(plan.edge_slots)
    latency_total = 0.0
    prev: list = [0] * n
    clock = 0.0
    iterations = 0
    batched = 0  # iterations folded here (stepped ones fold themselves)
    reason = ""
    block = DEFAULT_BLOCK
    finished = False

    while not finished:
        first = iterations == 0
        nb, exited, hazard, vals, offs, taken, mem_vecs = _step_block(
            bp, min(block, max_iterations - iterations), first, prev,
            const1, const2, const_fb, memory)
        # Size the next block from this one's outcome: after a cut, twice
        # the iterations the cut block commits; after a clean block,
        # double back toward DEFAULT_BLOCK.  Lanes computed past a hazard
        # then scale with the hazard spacing instead of costing a full
        # DEFAULT_BLOCK per cut.
        block = (min(2 * block, DEFAULT_BLOCK) if hazard is None
                 else max(2 * hazard, 1))
        if hazard == 0:
            # An in-iteration store-to-load forward: one interpreter step.
            reason = reason or ("in-iteration store-to-load forwarding at "
                                f"iteration {iterations}")
            values, completion, loop_taken = step(prev, iterations, clock)
            end = max(completion.values(), default=clock)
            latency_total += end - clock
            clock = end
            iterations += 1
            prev = [values[i] for i in range(n)]
            finished = not loop_taken or iterations >= max_iterations
            continue

        # -- phase T: static timing, memoised per lane pattern ---------------
        timing, inv = _block_timing(bp, nb, first, taken)

        # -- phase B: memory (cache pass, port timing), then the stores ------
        rel, lat = _phase_memory(bp, timing, inv, nb, iterations, mem_vecs,
                                 memory_ports, hierarchy)
        _commit_stores(bp, nb, mem_vecs, memory)

        # -- phase C: counter folds, in lane-relative time -------------------
        # Ring-channel waits: grant minus departure per contended slot.
        for slot, dep, grant in timing.noc:
            wsum = float((_lane_max(grant, rel, inv)
                          - _lane_max(dep, rel, inv)).sum())
            if wsum:
                slot_wait[slot] += wsum
                activity.noc_wait_cycles += wsum
        for i, terms in enumerate(timing.node):
            node_total[i] += _lane_sum(terms, rel, inv, nb)
        _fold_events(bp, nb, first, offs, slot_count, activity)
        block_latency = float(lat.sum())
        latency_total += block_latency

        # Commit the block.
        clock += block_latency
        iterations += nb
        batched += nb
        for i in range(n):
            prev[i] = vals[i][nb - 1].item()
        finished = exited or iterations >= max_iterations

    for register, node_id in plan.program.live_out.items():
        if 0 <= node_id < n:
            state.write(register, prev[node_id])

    edge_total: dict = {}
    edge_count: dict = {}
    for edge in plan.edge_slots:
        count = slot_count[edge.slot]
        if count:
            key = edge.key
            edge_total[key] = (edge_total.get(key, 0.0)
                               + count * edge.cycles
                               + slot_wait[edge.slot])
            edge_count[key] = edge_count.get(key, 0) + count
    latency.bulk_record(node_total, batched, edge_total, edge_count)
    return iterations, latency_total, reason


def _truncate(vals, offs, taken, mem_vecs, nb):
    """Keep the first ``nb`` lanes of a block's evaluated vectors."""
    for vecs in (vals, offs, taken):
        for i, vec in enumerate(vecs):
            if vec is not None:
                vecs[i] = vec[:nb]
    for rec_vec in mem_vecs.values():
        for j, vec in enumerate(rec_vec):
            if vec is not None:
                rec_vec[j] = vec[:nb]


def _phase_values(bp, schedule, nb, first, prev, const1, const2, const_fb,
                  gather, vals, offs, taken, mem_vecs):
    """Compute the (nb,)-value vectors of the nodes in ``schedule`` (a
    topological order whose producers outside it are already in ``vals``
    and ``taken``, cut to ``nb`` lanes) into the block's vectors."""
    nodes = bp.nodes
    int64 = np.int64

    def operand(op, const_val, owner_dtype=None):
        kind = op.kind
        if kind == K_NODE:
            return vals[op.src_id]
        if kind == K_LOOP:
            src = op.src_id
            out = np.empty(nb, nodes[src].np_dtype)
            out[0] = const_val if first else prev[src]
            if nb > 1:
                out[1:] = vals[src][:nb - 1]
            return out
        reg = op.register
        if owner_dtype is not None and reg is None:
            dtype = owner_dtype
        else:
            dtype = (np.float32 if reg is not None
                     and reg.file is RegFile.FP else int64)
        return np.full(nb, const_val, dtype)

    done_clusters: set[int] = set()
    for i in schedule:
        rec = nodes[i]
        pnode = rec.plan_node
        ci = rec.cluster
        if ci >= 0:
            if ci not in done_clusters:
                done_clusters.add(ci)
                _run_cluster(bp.clusters[ci], nb, first, prev, const1,
                             const2, const_fb, vals, taken, offs)
            continue
        if rec.scan:
            vals[i] = _run_scan(rec, nb, first, prev, const1, const2,
                                operand)
            continue
        if rec.kind == N_MEMORY:
            mem_plan = pnode.memory
            base = operand(pnode.src1, const1[i])
            addr = _vtu(base + mem_plan.imm)
            off = on = None
            if rec.guard >= 0:
                off = taken[rec.guard]
                offs[i] = off
                on = ~off
            if mem_plan.is_load:
                raw = gather(addr, mem_plan.size, on)
                if rec.dtype == "f":
                    # Widened and rounded back, as the scalar FLW's
                    # binary32 read quiets a signaling pattern.
                    value = (raw.astype(np.uint32).view(np.float32)
                             .astype(np.float64).astype(np.float32))
                else:
                    value = raw.astype(int64)
                    if rec.mem_sign:
                        sign = rec.mem_sign
                        value = (value & (sign - 1)) - (value & sign)
                if off is not None:
                    fb = operand(pnode.fallback, const_fb[i], rec.np_dtype)
                    value = np.where(off, fb, value)
                vals[i] = value
                mem_vecs[i] = [addr, None, on]
            else:
                data = operand(pnode.src2, const2[i])
                if rec.opcode is Opcode.FSW:
                    raw_vec = (data.astype(np.float32).view(np.uint32)
                               .astype(int64))
                else:
                    raw_vec = data & ((1 << (mem_plan.size * 8)) - 1)
                vals[i] = np.zeros(nb, int64)
                mem_vecs[i] = [addr, raw_vec, on]
            continue

        off = None
        if rec.guard >= 0:
            off = taken[rec.guard]
            offs[i] = off
        a = operand(pnode.src1, const1[i])
        b = operand(pnode.src2, const2[i])
        result = rec.fn(a, b)
        if rec.kind == N_CONTROL:
            taken[i] = result if off is None else result & ~off
            result = result.astype(int64)
        if off is not None:
            fb = operand(pnode.fallback, const_fb[i], rec.np_dtype)
            result = np.where(off, fb, result)
        vals[i] = result


def _run_scan(rec, nb, first, prev, const1, const2, operand):
    """Evaluate a recognized self-loop reduction in closed/scan form."""
    pnode = rec.plan_node
    i = rec.i
    carry = const1[i] if first else prev[i]
    scan = rec.scan
    if scan == "addi":
        # Closed form: |imm| < 2**31 and nb < 2**32 keep every partial
        # within int64; _vts wraps each step exactly like the scalar chain.
        steps = np.arange(1, nb + 1, dtype=np.int64)
        return _vts(carry + rec.scan_imm * steps)
    if scan in ("iadd", "isub"):
        x = operand(pnode.src2, const2[i])
        running = np.cumsum(x)
        return _vts(carry + running if scan == "iadd" else carry - running)
    # FP scans accumulate directly in float32: each step equals the
    # scalar float64-op-then-round chain (innocuous double rounding).
    x = operand(pnode.src2, const2[i])
    if x.dtype != np.float32:
        x = x.astype(np.float32)  # exact: only the zero-constant case
    acc = np.empty(nb + 1, np.float32)
    acc[0] = carry
    acc[1:] = x
    ufunc = {"fadd": np.add, "fsub": np.subtract,
             "fmul": np.multiply}[scan]
    acc = ufunc.accumulate(acc)
    # Two-NaN rule: once the accumulator is NaN it is the first operand of
    # every later step, so it stays exactly that NaN.
    nan = np.isnan(acc)
    if nan.any():
        first_nan = int(nan.argmax())
        acc[first_nan:] = acc[first_nan]
    return acc[1:]


def _run_cluster(cluster, nb, first, prev, const1, const2, const_fb, vals,
                 taken, offs):
    """Evaluate a coupled-recurrence cluster over ``nb`` lanes.

    The fast binding runs first.  When one of its checked columns trips
    a re-run trigger (a NaN out of a fast FP member, an int sum past
    signed 32 bits), or a runaway int overflows a conversion, the cluster
    re-runs on the exact binding, every member on the plan closure the
    interpreter runs: bit-identical, since int64/float32 lanes round-trip
    through Python scalars exactly and the closures apply the same
    int()/float() conversions.
    """
    args = (nb, first, prev, const1, const2, const_fb, vals, taken,
            cluster.closures)
    try:
        cols = _columns(cluster, cluster.fast(*args))
        rerun = any(_RERUN[trigger](cols[j]) for j, trigger in cluster.checks)
    except OverflowError:
        rerun = True
    if rerun:
        if cluster.exact is None:
            cluster.exact = _compile_cluster(_cluster_source(
                cluster.members, cluster.nodes, {}))
        cols = _columns(cluster, cluster.exact(*args))
    nodes = cluster.nodes
    for i, col in zip(cluster.members, cols):
        vals[i] = col
        rec = nodes[i]
        if rec.guard >= 0:
            offs[i] = taken[rec.guard]
        if rec.kind == N_CONTROL:
            # An untaken branch holds 0, a taken one 1; a disabled one
            # holds its fallback and is untaken.
            taken[i] = col != 0 if rec.guard < 0 else (col != 0) & ~offs[i]


def _columns(cluster, rows):
    """A cluster function's rows as one typed column per member."""
    dtypes = cluster.dtypes
    if len(set(dtypes)) == 1:
        return np.array(rows, dtypes[0]).T
    return [np.array(col, dtype) for col, dtype in zip(zip(*rows), dtypes)]


def _pattern_weights(bp, key):
    """Completion weights over the timing sources of one lane pattern.

    A lane's weights depend only on its *pattern* ``key``: bit 0 is set
    on the run's first iteration (loop-carried operands take their
    constant seed at time 0, and a contended channel sends no packet for
    them), and bit ``bp.guard_bit[g]`` when guard ``g`` predicates its
    nodes off.  Completion of node i on a lane of this pattern is
    ``max_s(rel[s] + W[i][s])``, with ``rel`` the lane-relative iteration
    start (source 0, always 0) and memory completions; -inf marks an
    unreachable source.

    Contended ring channels (``bp.noc_rows``) serialize their slots
    through a grant chain kept in the same weight space: the chain holds
    the previous grant, the next grant is ``max(depart, chain + 1)`` (the
    single-port issue interval), and the max distributes over the source
    decomposition, so concrete grants are exactly ``max_s(rel[s] +
    G[s])``.  Channel state never carries between iterations (the next
    start is at least the last grant + 1), so the chain is lane-local.
    Nodes are walked in node-id order — the interpreter's request order —
    which pass 2's forward-edge check makes a valid topological order.

    Returns ``(W, ready, off, end, noc)``: per node its completion row;
    per memory node (``bp.mem_ids`` order) its operands-ready row and, for
    a guarded one, its predicated-off completion (operands ready vs the
    fallback transfer: no grant, no AMAT); the iteration end row; and per
    contended slot ``(slot, depart, grant)``, which are equal where the
    slot does not fire.
    """
    nodes = bp.nodes
    S = bp.n_sources
    first = key & 1
    mem_source = {i: j + 1 for j, i in enumerate(bp.mem_ids)}
    W: list = [None] * len(nodes)
    ready_rows: list = []
    off_rows: list = []
    chains = {row: np.full(S, _NEG) for row in bp.noc_rows}
    noc: list = []

    def start_row(weight):
        row = np.full(S, _NEG)
        row[0] = weight
        return row

    def chained(edge, dep, skip):
        """Arrival weights through a contended ring channel."""
        if skip:
            # The first iteration takes the constant seed: no packet, no
            # grant, no wait.
            noc.append((edge.slot, dep, dep))
            return start_row(0.0)
        grant = np.maximum(dep, chains[edge.src_row] + 1.0)
        chains[edge.src_row] = grant
        noc.append((edge.slot, dep, grant))
        return grant + edge.cycles

    def opw(op):
        edge = op.edge
        contended = (edge is not None and not edge.is_local
                     and edge.src_row in chains)
        if op.kind == K_NODE:
            if contended:
                return chained(edge, W[op.src_id], False)
            return W[op.src_id] + edge.cycles
        if op.kind == K_LOOP:
            if contended:
                # Departure is the iteration start.
                return chained(edge, start_row(0.0), first)
            return start_row(0.0 if first else edge.cycles)
        return start_row(0.0)

    for i, rec in enumerate(nodes):
        pnode = rec.plan_node
        ready = np.maximum(opw(pnode.src1), opw(pnode.src2))
        ready[0] = max(ready[0], 0.0)  # the start floor
        if rec.kind == N_MEMORY:
            ready_rows.append(ready)
            off_rows.append(None if rec.guard < 0 else
                            np.maximum(ready, opw(pnode.fallback)))
            W[i] = np.full(S, _NEG)
            W[i][mem_source[i]] = 0.0
        elif rec.guard >= 0 and key >> bp.guard_bit[rec.guard] & 1:
            W[i] = np.maximum(ready, opw(pnode.fallback))
        else:
            W[i] = ready + pnode.latency
    end = np.max(W, axis=0)
    # Every lane starts at rel 0 and the start floor keeps each
    # non-memory node's source-0 weight at >= 0: no lane latency is
    # negative.
    assert end[0] >= 0.0, "negative lane latency"
    return W, ready_rows, off_rows, end, noc


def _terms(rows):
    """One consumer's terms from its weight row per pattern: ``(source,
    weight)`` per source finite on some pattern, the weight a float when
    every pattern agrees, else its (patterns,) column."""
    rows = np.array(rows)
    terms = []
    for s in np.flatnonzero(np.isfinite(rows).any(axis=0)).tolist():
        col = rows[:, s]
        terms.append((s, float(col[0]) if (col == col[0]).all() else col))
    return terms


class _Timing:
    """The static timing of one set of lane patterns, as terms over the
    finite sources of each consumer: a node's completion (``node``), a
    memory node's operands ready and predicated-off completion
    (``ready``, ``off``), the iteration end (``end``), and per contended
    slot its departure and grant (``noc``)."""

    __slots__ = ("node", "ready", "off", "end", "noc")

    def __init__(self, patterns):
        self.node = [_terms(rows) for rows in zip(*(p[0] for p in patterns))]
        self.ready = [_terms(rows)
                      for rows in zip(*(p[1] for p in patterns))]
        self.off = [None if rows[0] is None else _terms(rows)
                    for rows in zip(*(p[2] for p in patterns))]
        self.end = _terms([p[3] for p in patterns])
        self.noc = [(slots[0][0], _terms([s[1] for s in slots]),
                     _terms([s[2] for s in slots]))
                    for slots in zip(*(p[4] for p in patterns))]


def _block_timing(bp, nb, first, taken):
    """The static timing of one block's lane patterns, and which pattern
    each lane has: ``(timing, inv)``, with ``inv`` None when every lane
    shares one pattern, else each lane's index into the block's patterns.

    Both the per-pattern weights and the timing of each pattern set are
    memoised on ``bp``: an unguarded loop has one pattern, plus the run's
    first iteration."""
    inv = None
    if bp.guard_bit:
        pid = sum(taken[guard] * (1 << bit)
                  for guard, bit in bp.guard_bit.items())
        pid[0] += first
        present = np.flatnonzero(np.bincount(pid))
        keys = tuple(present.tolist())
        index = np.zeros(present[-1] + 1, np.intp)
        index[present] = np.arange(present.size)
        inv = index[pid]
    elif first and nb > 1:
        keys = (0, 1)
        inv = np.zeros(nb, np.intp)
        inv[0] = 1
    else:
        keys = (int(first),)
    if len(keys) == 1:
        inv = None
    timing = bp.timings.get(keys)
    if timing is None:
        if len(bp.timings) >= _MAX_TIMINGS:
            bp.timings.clear()
        for key in keys:
            if key not in bp.patterns:
                bp.patterns[key] = _pattern_weights(bp, key)
        timing = bp.timings[keys] = _Timing([bp.patterns[key]
                                             for key in keys])
    return timing, inv


def _lane_max(terms, rel, inv):
    """Per lane, ``max(rel[s] + weight)`` over a consumer's terms, a
    per-pattern weight taken by each lane's pattern index ``inv``."""
    out = None
    for s, w in terms:
        if w.__class__ is not float:
            w = w[inv]
        value = rel[s] + w
        out = value if out is None else np.maximum(out, value, out=out)
    return out


def _lane_sum(terms, rel, inv, nb):
    """:func:`_lane_max` summed over the lanes: a consumer fed by one
    source folds without a lane vector."""
    if len(terms) > 1:
        return float(_lane_max(terms, rel, inv).sum())
    s, w = terms[0]
    total = nb * w if w.__class__ is float else float(w[inv].sum())
    return total + float(rel[s].sum()) if s else total


def _phase_memory(bp, timing, inv, nb, iterations, mem_vecs, memory_ports,
                  hierarchy):
    """The block's memory timing in two passes, neither of them over lanes
    (its stores commit after, in :func:`_commit_stores`).

    1. **Cache outcomes** depend only on the order of accesses (k-major,
       then memory-node order, live lanes only), never on timing: one
       :meth:`~repro.mem.MemoryHierarchy.access_stream` call returns every
       latency, and folds AMAT by memory node.
    2. **Port timing** runs per memory node in request order, vectorized
       over lanes, in each lane's own time (every port is idle when an
       iteration starts — module docstring): ready
       times, vector-group grants, a (ports, nb) array of free times
       granted by argmin, and the prefetch cap.

    Predicated-off lanes complete at max(operands ready, fallback arrival)
    without requesting a port or touching the cache.
    Returns ``(rel, lat)``: the (n_sources, nb) lane-relative source times
    (row 0 the lane start, row j + 1 memory node j's completion) and each
    lane's latency.  Lane starts are the running sum of lane latencies —
    exact, because every quantity is an integer-valued float64.
    """
    nodes = bp.nodes
    mem_ids = bp.mem_ids
    m = len(mem_ids)
    plans = [nodes[i].plan_node.memory for i in mem_ids]
    addr = np.empty((nb, m), np.int64)
    live = np.ones((nb, m), bool)
    for j, i in enumerate(mem_ids):
        addr[:, j] = mem_vecs[i][0]
        on = mem_vecs[i][2]
        if on is not None:
            live[:, j] = on

    # 1. cache pass
    columns = np.broadcast_to(np.arange(m), (nb, m))
    cycles = np.zeros((nb, m))
    cycles[live] = hierarchy.access_stream(addr[live], columns[live],
                                           [p.pc for p in plans])
    ideal = hierarchy.ideal_latency
    for j, p in enumerate(plans):
        if p.prefetched:
            # Issued an iteration early: only the L1 latency is exposed
            # (the run's first iteration has nothing to prefetch behind).
            head = cycles[0, j]
            np.minimum(cycles[:, j], ideal, out=cycles[:, j])
            if iterations == 0:
                cycles[0, j] = head

    # 2. port timing, in lane-relative time: rel[0] is the lane start, and
    # rel[j + 1] memory node j's completion once it is timed (a node's
    # terms only read earlier sources).
    rel = np.zeros((bp.n_sources, nb))
    lanes = np.arange(nb)
    free = (None if np.isinf(memory_ports)
            else np.full((int(memory_ports), nb), _NEG))
    group_grants: dict[int, np.ndarray] = {}

    def request(ready, mask):
        grant = ready
        if free is not None:
            slot = free.argmin(axis=0)
            grant = np.maximum(ready, free[slot, lanes])
            free[slot[mask], lanes[mask]] = grant[mask] + 1
        return grant

    for j, p in enumerate(plans):
        on = live[:, j]
        ready = _lane_max(timing.ready[j], rel, inv)
        if p.is_load:
            if p.vector_group is None:
                grant = request(ready, on)
            else:
                # Vectorized loads piggyback on their group's first grant.
                prior = group_grants.setdefault(p.vector_group,
                                                np.full(nb, _NEG))
                shared = on & (prior != _NEG)
                own = on & ~shared
                grant = np.where(shared, np.maximum(ready, prior),
                                 request(ready, own))
                prior[own] = grant[own]
            done = grant + cycles[:, j]
        else:
            done = request(ready, on) + STORE_ISSUE
        if timing.off[j] is not None:
            done = np.where(on, done, _lane_max(timing.off[j], rel, inv))
        rel[j + 1] = done
    return rel, _lane_max(timing.end, rel, inv)


def _fold_events(bp, nb, first, offs, slot_count, activity):
    """Accumulate one block's edge-slot counts and its activity events."""
    nodes = bp.nodes
    off_counts: dict[int, int] = {}
    for i, off in enumerate(offs):
        if off is not None:
            off_counts[i] = int(off.sum())
    for edge, cadence, owner in bp.slot_events:
        if cadence == EV_ALWAYS:
            count = nb
        elif cadence == EV_LOOP:
            count = nb - 1 if first else nb
        else:
            count = off_counts.get(owner, 0)
            if cadence == EV_FB_LOOP and first and count \
                    and bool(offs[owner][0]):
                count -= 1
        if count:
            slot_count[edge.slot] += count
            if edge.is_local:
                activity.local_hops += edge.manhattan * count
            else:
                activity.noc_hops += edge.router_hops * count
    for rec in nodes:
        off = off_counts.get(rec.i, 0)
        live = nb - off
        if off:
            activity.forwards += off
            activity.control_events += off
        if rec.kind == N_MEMORY:
            if rec.plan_node.memory.is_load:
                activity.loads += live
            else:
                activity.stores += live
        elif rec.kind == N_CONTROL:
            activity.control_events += live
        else:
            if rec.plan_node.is_fp:
                activity.fp_ops += live
            else:
                activity.int_ops += live
            activity.pe_busy_cycles += rec.plan_node.latency * live
