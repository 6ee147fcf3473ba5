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

* **Float semantics.**  The interpreter computes every FP op as
  ``f32(op(float(a), float(b)))`` — float64 arithmetic rounded to binary32.
  The batched path converts operands to float64 (exact for binary32 values
  and for integers in the RV32 range), applies the same float64 ufunc, and
  rounds with ``astype(float32)`` — the identical computation, including NaN
  payload propagation and overflow-to-inf.  Where both operands are NaN the
  hardware's choice is not portable, so both sides apply the same explicit
  rule: the first NaN operand, quieted, wins.  Loop-carried FP reductions
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
  per-source weight matrices (phase T) and reproduces the event-order
  departures bit-exactly.  Only a *fallback* slot on a contended row —
  whose firing depends on runtime guard values — has no static order, and
  such a plan runs on the interpreter.
* **Guarded nodes mix, guarded memory masks.**  A predicated-off lane
  takes its fallback value (``np.where``) and the fallback transfer's
  timing; an off *memory* lane additionally skips the port request, the
  cache access, and the store commit — a mask-aware ``Memory.gather``
  reads only live lanes, and the block alias check ignores dead ones, so
  guard-false lanes charge neither port occupancy nor AMAT, exactly like
  the interpreter's suppressed accesses.
* **Coupled recurrences run as an exact microloop.**  Loop-carried
  strongly connected components with no closed scan form (mutually
  recursive producers, guarded self-loops, non-linear updates) are
  *clusters*: their members are evaluated lane by lane with the plan's own
  scalar evaluator closures — bit-identical by construction — while every
  node outside the cluster, and all timing, stays vectorized.  Clusters
  through memory nodes are rejected (their lane values gate port state).
* **First-hazard truncation keeps the LSQ inert.**  Loads are gathered
  before any store of the block commits, so a block is exact up to its
  first iteration whose load byte-overlaps an earlier store of the block
  (same iteration and earlier in program order, or any earlier
  iteration).  A vectorized alias check finds that iteration from the
  concrete addresses, and only the iterations before it commit; the next
  block starts there, sized from the hazard spacing.  This holds even when store addresses are computed
  from loaded values: every access before the first hazard reads memory
  no store of the block wrote, so its address and value are exact, and so
  is the hazard search up to that point.  A hazard in a block's first
  iteration can only be an in-iteration store-to-load forward; the
  interpreter executes that one iteration (iteration barriers leave no
  NoC or LSQ state behind, and counter folds are additive), then
  batching resumes.
* **Memory port state never carries between iterations** — under a
  condition the drive checks.  A request frees its port ``issue_interval``
  cycles after its grant, and its own access completes no earlier than the
  L1 hit latency (a load) or ``store_issue`` (a store) after the grant,
  and no later than the iteration's end.  So when the interval is within
  both, and no grant is pending when a block starts, every port is free
  again when the next iteration starts: like the NoC rings, each
  iteration's grants depend only on its own requests and vectorize over
  lanes in each lane's own time.  When the condition fails (a slow issue
  interval, an external port pool with pending grants), the block's first
  iteration is stepped on the interpreter instead, and the run's
  ``drive_reason`` says why.
* **Cache outcomes depend only on address order.**  The hierarchy's state
  evolves with the sequence of accesses (k-major, then memory-node order),
  never with their timing, so a block's latencies come from one bulk
  cache pass before any timing is computed.
* **Timing is max-plus linear.**  Completion times decompose over the
  sources {iteration start} ∪ {memory completions}: per node a static
  weight row per source is computed vectorially (phase T), the memory
  nodes are timed one node at a time over all lanes (phase B), and lane
  starts and per-node counter sums fold exactly because every timing
  quantity is an integer-valued float64 (any summation order is exact
  below 2**53).

Capability analysis (:func:`compile_batch`) decides statically whether a
plan qualifies; ``ExecutionPlan.batch_program.capability`` carries the
verdict with a machine-readable reason, and a rejected plan runs on the interpreter with
that reason reported as the run's ``drive_reason``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..isa import ACCESS_FORMATS, Opcode
from ..isa.registers import RegFile
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

#: Iterations per batched block.
DEFAULT_BLOCK = 256

_M32 = 0xFFFFFFFF
_SIGN32 = 0x80000000
_NEG = float("-inf")

# Node result dtypes.
D_INT = 0   # int64 lanes holding signed-32 values
D_FP = 1    # float32 lanes

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


def _vts(a):
    """Vector ``_ts``: reinterpret the low 32 bits as signed (int64 lanes)."""
    return ((a & _M32) ^ _SIGN32) - _SIGN32


def _vtu(a):
    """Vector ``_tu``: low 32 bits as unsigned (int64 lanes)."""
    return a & _M32


def _f64(a):
    return a.astype(np.float64)


def _r32(a):
    """Round float64 lanes to binary32 — the vector ``f32`` (overflow goes
    to ±inf under the suppressed-errstate astype, matching saturation)."""
    return a.astype(np.float32)


# -- vector evaluators ---------------------------------------------------------

def _compile_compute(instr, evaluate):
    """(dtype, req1, req2, tag, payload) for one compute instruction.

    ``tag`` is "const" (payload: the constant value) or "fn" (payload: a
    ``(a_vec, b_vec) -> vec`` ufunc chain).  Returns None when the opcode
    has no exact vector form.  Requirement codes: "i" = operand lanes must
    be int64 (the interpreter applies ``int()``), "x" = any dtype (the
    interpreter applies ``float()``, exact from both lane types), None =
    operand value unused.
    """
    op = instr.opcode
    imm = instr.imm
    if op in (Opcode.NOP, Opcode.LUI, Opcode.AUIPC):
        return (D_INT, None, None, "const", evaluate(0, 0))

    fn = _INT_BIN_VEC.get(op)
    if fn is not None:
        return (D_INT, "i", "i", "fn", fn)
    fn = _INT_IMM_VEC.get(op)
    if fn is not None:
        return (D_INT, "i", None, "fn", fn(imm))
    fn = _FP_BIN_VEC.get(op)
    if fn is not None:
        return (D_FP, "x", "x", "fn", fn)
    fn = _FP_CMP_VEC.get(op)
    if fn is not None:
        return (D_INT, "x", "x", "fn", fn)
    if op is Opcode.FSQRT_S:
        return (D_FP, "x", None, "fn", _vec_fsqrt)
    if op is Opcode.FCVT_S_W:
        return (D_FP, "i", None, "fn",
                lambda a, b: a.astype(np.float32))
    if op is Opcode.FCVT_S_WU:
        return (D_FP, "i", None, "fn",
                lambda a, b: _vtu(a).astype(np.float32))
    if op is Opcode.FMV_W_X:
        return (D_FP, "i", None, "fn",
                lambda a, b: a.astype(np.int32).view(np.float32))
    if op is Opcode.FMV_X_W:
        return (D_INT, "x", None, "fn",
                lambda a, b: a.astype(np.float32).view(np.int32)
                              .astype(np.int64))
    # FCVT_W_S / FCVT_WU_S (saturating conversions), the RV64 W-forms and
    # the MULH/DIV/REM families have no vector table here, and raiser
    # nodes (system ops) must fault like the interpreter.  All run on the
    # interpreter.
    return None


def _nan_first(op):
    """A float64 binary op under the scalar two-NaN rule: where both
    operands are NaN, the first wins (quieted by the binary32 rounding)."""
    def fn(a, b):
        a64, b64 = _f64(a), _f64(b)
        return _r32(np.where(np.isnan(a64) & np.isnan(b64), a64,
                             op(a64, b64)))
    return fn


def _fdiv64(a64, b64):
    # Scalar: a / b if b != 0.0 else copysign(inf, a) if a else nan —
    # NaN dividends are truthy (copysign keeps their sign bit), ±0.0 is not.
    by_zero = np.where(a64 != 0.0, np.copysign(np.inf, a64), np.nan)
    return np.where(b64 != 0.0, a64 / b64, by_zero)


def _vec_fsqrt(a, b):
    a64 = _f64(a)
    root = np.sqrt(a64)
    # Negative (and NaN) inputs produce the canonical NaN, like the
    # interpreter's float("nan") — np.sqrt's payload-propagating NaN must
    # not leak.
    return _r32(np.where(a64 >= 0.0, root, np.nan))


_INT_BIN_VEC = {
    Opcode.ADD: lambda a, b: _vts(a + b),
    Opcode.SUB: lambda a, b: _vts(a - b),
    Opcode.SLL: lambda a, b: _vts(a << (b & 31)),
    Opcode.SLT: lambda a, b: (a < b).astype(np.int64),
    Opcode.SLTU: lambda a, b: (_vtu(a) < _vtu(b)).astype(np.int64),
    Opcode.XOR: lambda a, b: _vts(a ^ b),
    Opcode.SRL: lambda a, b: _vts(_vtu(a) >> (b & 31)),
    Opcode.SRA: lambda a, b: a >> (b & 31),
    Opcode.OR: lambda a, b: _vts(a | b),
    Opcode.AND: lambda a, b: _vts(a & b),
    Opcode.MUL: lambda a, b: _vts(a * b),
}
_INT_IMM_VEC = {
    Opcode.ADDI: lambda imm: lambda a, b: _vts(a + imm),
    Opcode.SLTI: lambda imm: lambda a, b: (a < imm).astype(np.int64),
    Opcode.SLTIU: lambda imm: (
        lambda iu: lambda a, b: (_vtu(a) < iu).astype(np.int64)
    )(imm & _M32),
    Opcode.XORI: lambda imm: lambda a, b: _vts(a ^ imm),
    Opcode.ORI: lambda imm: lambda a, b: _vts(a | imm),
    Opcode.ANDI: lambda imm: lambda a, b: _vts(a & imm),
    Opcode.SLLI: lambda imm: (
        lambda sh: lambda a, b: _vts(a << sh))(imm & 31),
    Opcode.SRLI: lambda imm: (
        lambda sh: lambda a, b: _vts(_vtu(a) >> sh))(imm & 31),
    Opcode.SRAI: lambda imm: (
        lambda sh: lambda a, b: a >> sh)(imm & 31),
}
_FP_BIN_VEC = {
    Opcode.FADD_S: _nan_first(np.add),
    Opcode.FSUB_S: _nan_first(np.subtract),
    Opcode.FMUL_S: _nan_first(np.multiply),
    Opcode.FDIV_S: _nan_first(_fdiv64),
    # Python min/max return b only on a strict comparison win, so NaNs
    # select a — np.where with the same strict predicate matches.
    Opcode.FMIN_S: lambda a, b: (
        lambda a64, b64: _r32(np.where(b64 < a64, b64, a64))
    )(_f64(a), _f64(b)),
    Opcode.FMAX_S: lambda a, b: (
        lambda a64, b64: _r32(np.where(b64 > a64, b64, a64))
    )(_f64(a), _f64(b)),
    Opcode.FSGNJ_S: lambda a, b: _r32(np.copysign(np.abs(_f64(a)),
                                                  _f64(b))),
    Opcode.FSGNJN_S: lambda a, b: _r32(np.copysign(np.abs(_f64(a)),
                                                   -_f64(b))),
    # Scalar: a if b >= 0 else -a (NaN b takes the negate branch).
    Opcode.FSGNJX_S: lambda a, b: (
        lambda a64, b64: _r32(np.where(b64 >= 0.0, a64, -a64))
    )(_f64(a), _f64(b)),
}
_FP_CMP_VEC = {
    Opcode.FEQ_S: lambda a, b: (_f64(a) == _f64(b)).astype(np.int64),
    Opcode.FLT_S: lambda a, b: (_f64(a) < _f64(b)).astype(np.int64),
    Opcode.FLE_S: lambda a, b: (_f64(a) <= _f64(b)).astype(np.int64),
}
_BRANCH_VEC = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: a < b,
    Opcode.BGE: lambda a, b: a >= b,
    Opcode.BLTU: lambda a, b: _vtu(a) < _vtu(b),
    Opcode.BGEU: lambda a, b: _vtu(a) >= _vtu(b),
}
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
                 "tag", "fn", "scan", "scan_imm", "opcode", "mem_sign",
                 "req1", "req2", "cluster")

    def __init__(self, plan_node, i):
        self.plan_node = plan_node
        self.i = i
        self.kind = plan_node.kind
        self.dtype = D_INT
        self.np_dtype = None
        self.guard = -1          # active guard branch id, -1 when inert
        self.tag = ""            # "const"/"fn"/"cond"/"jump"/"mem"/"scan"
        self.fn = None           # payload per tag
        self.scan = ""           # _SCAN_OPS tag for scan nodes
        self.scan_imm = 0        # immediate of an "addi" closed-form scan
        self.opcode = None
        self.mem_sign = 0        # sign-extension bit for signed loads
        self.req1 = None         # operand dtype requirements ("i"/"x"/None)
        self.req2 = None
        self.cluster = -1        # index into BatchProgram.clusters


# Operand access codes for cluster microloop steps: how a member reads one
# operand at lane k of a block.
_C_CONST = 0      # run-constant (latched live-in or zero)
_C_NODE_IN = 1    # same-iteration value of another cluster member
_C_NODE_EX = 2    # same-iteration value of a vectorized producer
_C_LOOP_IN = 3    # previous lane of a cluster member (the recurrence)
_C_LOOP_EX = 4    # previous lane of a vectorized producer


class _Cluster:
    """One loop-carried strongly connected component, evaluated lane by
    lane with the plan's scalar evaluator closures (exact by construction:
    int64/float32 lanes round-trip through Python scalars losslessly, and
    the closures apply the same int()/float() conversions as the
    interpreter)."""

    __slots__ = ("members", "member_set", "steps")

    def __init__(self, members, steps):
        self.members = members            # ascending node ids
        self.member_set = frozenset(members)
        #: (node_id, is_ctrl, guard_id, a_spec, b_spec, fb_spec, evaluate)
        #: per member; specs are (access code, src node id).
        self.steps = steps


class BatchProgram:
    """A plan compiled for batched execution (or its fallback verdict)."""

    __slots__ = ("plan", "capability", "nodes", "order", "mem_ids",
                 "has_store", "slot_events", "n_sources", "clusters",
                 "noc_rows")

    def __init__(self, plan, capability, nodes=None, order=None,
                 mem_ids=None, has_store=False, slot_events=None,
                 clusters=None, noc_rows=frozenset()):
        self.plan = plan
        self.capability = capability
        self.nodes = nodes or []
        #: Topological schedule over same-iteration + loop-carried edges
        #: (cluster members appear contiguously, ascending).
        self.order = order or []
        #: Memory node ids in program order (their completions are the
        #: dynamic timing sources alongside the iteration start).
        self.mem_ids = mem_ids or []
        self.has_store = has_store
        #: (edge, cadence, owner_node_id) per operand slot, for exact
        #: counter folds.
        self.slot_events = slot_events or []
        self.n_sources = 1 + len(self.mem_ids)
        #: Coupled-recurrence clusters, by first-member order.
        self.clusters = clusters or []
        #: Source rows whose ring channel carries more than one NoC slot
        #: per iteration — their grants go through the closed-form chain.
        self.noc_rows = noc_rows


def _operand_dtype(op, dtypes):
    """Lane dtype an operand resolves to (K_CONST by register file)."""
    if op.kind == K_CONST:
        reg = op.register
        return D_FP if (reg is not None and reg.file is RegFile.FP) else D_INT
    return dtypes[op.src_id]


def _wildcard_const(op):
    """A none/zero constant is exact in either lane dtype."""
    return op.kind == K_CONST and op.register is None


def compile_batch(plan) -> BatchProgram:
    """Capability-analyze and compile a plan for batched execution."""
    verdict = _compile(plan)
    if isinstance(verdict, BatchProgram):
        return verdict
    return BatchProgram(plan, BatchCapability(False, verdict))


def _compile(plan):
    """Returns a BatchProgram, or a fallback-reason string."""
    if plan.loop_branch_id is None:
        return "no loop branch (single-shot region)"
    if plan.config.xlen != 32:
        return "xlen 64"
    program_nodes = plan.program.nodes
    n = plan.n_nodes

    nodes: list[_BatchNode] = []
    dtypes: list[int] = []
    # Pass 1: per-node recipe + result dtype (from the opcode alone).
    for i, pnode in enumerate(plan.nodes):
        instr = program_nodes[i].instruction
        rec = _BatchNode(pnode, i)
        rec.opcode = instr.opcode
        if pnode.kind == N_MEMORY:
            mem = pnode.memory
            if mem.size > 4:
                return "wide memory access"
            rec.tag = "mem"
            rec.req1 = "i"  # address base goes through int()
            if mem.is_load:
                size, signed = ACCESS_FORMATS[instr.opcode]
                if instr.opcode is Opcode.FLW:
                    rec.dtype = D_FP
                elif signed:
                    rec.mem_sign = 1 << (size * 8 - 1)
            else:
                rec.req2 = "x" if instr.opcode is Opcode.FSW else "i"
        elif pnode.kind == N_CONTROL:
            cond = _BRANCH_VEC.get(instr.opcode)
            if cond is not None:
                rec.tag, rec.fn = "cond", cond
                rec.req1 = rec.req2 = "i"  # branch conds compare int()s
            elif instr.is_jump:
                rec.tag = "jump"
            else:
                return f"unsupported opcode {instr.opcode.name}"
        else:
            compiled = _compile_compute(instr, pnode.evaluate)
            if compiled is None:
                return f"unsupported opcode {instr.opcode.name}"
            rec.dtype, rec.req1, rec.req2, rec.tag, rec.fn = compiled
            if rec.tag == "fn" and instr.opcode is Opcode.ADDI:
                rec.scan_imm = instr.imm
        nodes.append(rec)
        dtypes.append(rec.dtype)

    for rec in nodes:
        rec.np_dtype = np.float32 if rec.dtype == D_FP else np.int64
        # Guards at or after their node never fire (the interpreter reads
        # the iteration's still-False branch state) — the plan hoists that
        # rule into ``effective_guard``.
        rec.guard = rec.plan_node.effective_guard

    # Pass 2: build the combined dependence graph (same-iteration K_NODE
    # edges, loop-carried K_LOOP edges — self edges included — and guard
    # edges), then recognize which loop-carried cycles have a closed scan
    # form and which become microloop clusters.
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
                and rec.tag == "fn" and rec.opcode in _SCAN_OPS
                and pnode.guard_branch < 0
                and not (pnode.src2.kind == K_LOOP
                         and pnode.src2.src_id == rec.i)):
            continue
        scan = _SCAN_OPS[rec.opcode]
        seed = pnode.src1.register
        ok = not (seed is not None
                  and (seed.file is RegFile.FP) != (rec.dtype == D_FP))
        if ok:
            if scan == "addi":
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
    # members call the scalar evaluators directly and skip these — except
    # the guard-fallback check, whose value lands in the typed lane array.
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
            if req == "i" and _operand_dtype(op, dtypes) != D_INT:
                return "operand dtype mismatch"
        # Loop-carried seeds must be exact in the producer's lane dtype.
        for op in (pnode.src1, pnode.src2,
                   pnode.fallback if rec.guard >= 0 else None):
            if op is not None and op.kind == K_LOOP:
                seed = op.register
                if seed is not None and (
                        (seed.file is RegFile.FP)
                        != (dtypes[op.src_id] == D_FP)):
                    return "loop-carried seed dtype mismatch"

    cluster_objs = [_make_cluster(comp, nodes) for comp in clusters]

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

    mem_ids = [rec.i for rec in nodes if rec.kind == N_MEMORY]
    has_store = any(nodes[i].plan_node.is_store for i in mem_ids)

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

    return BatchProgram(plan, BatchCapability(True), nodes, order, mem_ids,
                        has_store, slot_events, cluster_objs, noc_rows)


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


def _make_cluster(comp, nodes):
    """Compile one SCC's members into microloop steps."""
    member_set = frozenset(comp)

    def spec(op):
        if op.kind == K_NODE:
            return ((_C_NODE_IN if op.src_id in member_set
                     else _C_NODE_EX), op.src_id)
        if op.kind == K_LOOP:
            return ((_C_LOOP_IN if op.src_id in member_set
                     else _C_LOOP_EX), op.src_id)
        return (_C_CONST, -1)

    steps = []
    for i in comp:
        rec = nodes[i]
        pnode = rec.plan_node
        fb_spec = spec(pnode.fallback) if rec.guard >= 0 else None
        steps.append((i, rec.kind == N_CONTROL, rec.guard,
                      spec(pnode.src1), spec(pnode.src2), fb_spec,
                      pnode.evaluate))
    return _Cluster(comp, steps)


# -- block driver --------------------------------------------------------------

def drive_batched(bp: BatchProgram, hierarchy, state, reg_env, ports,
                  latency, activity, options, step):
    """Drive the loop in vectorized blocks.

    Each block is cut at its first store-to-load hazard (module
    docstring); a hazard in a block's first iteration is executed by
    ``step(prev_values, iteration, start)`` — the interpreter's
    :meth:`~repro.accel.engine.DataflowEngine._run_iteration`, which
    records that iteration's counters itself.

    Memory ports are batched only while their state cannot carry from
    one iteration into the next (module docstring); otherwise the block's
    first iteration is stepped too.

    Returns ``(iterations, iteration_latencies, reason)``; ``reason`` names
    the first iteration the interpreter stepped ("" when none was).
    """
    plan = bp.plan
    nodes = bp.nodes
    n = plan.n_nodes
    mem_ids = bp.mem_ids
    mem_source = {i: j + 1 for j, i in enumerate(mem_ids)}
    loop_id = plan.loop_branch_id
    const1, const2, const_fb = plan.bind_constants(reg_env)
    max_iterations = options.max_iterations
    speculative = options.speculative_loads
    store_issue = plan.store_issue
    memory = state.memory
    port_carry = _port_carry(bp, ports, hierarchy.ideal_latency)

    # Run-level accumulators, folded into the counters once at the end.
    node_total = [0.0] * n
    slot_count = [0] * len(plan.edge_slots)
    slot_wait = [0.0] * len(plan.edge_slots)
    acc = {"int_ops": 0, "fp_ops": 0, "forwards": 0, "loads": 0,
           "stores": 0, "local_hops": 0, "noc_hops": 0, "pe_busy": 0.0,
           "control_events": 0, "noc_wait": 0.0}
    iteration_latencies: list[float] = []
    prev: list = [0] * n
    clock = 0.0
    iterations = 0
    batched = 0  # iterations folded here (stepped ones fold themselves)
    reason = ""
    block = DEFAULT_BLOCK
    finished = False

    def step_once(why):
        """Execute one iteration on the interpreter."""
        nonlocal reason, clock, iterations, prev, finished
        reason = reason or why
        values, completion, loop_taken = step(prev, iterations, clock)
        end = max(completion.values(), default=clock)
        iteration_latencies.append(end - clock)
        clock = end
        iterations += 1
        prev = [values[i] for i in range(n)]
        finished = not loop_taken or iterations >= max_iterations

    while not finished:
        if port_carry:
            step_once(f"memory ports carry into iteration {iterations}: "
                      f"{port_carry}")
            continue
        if mem_ids and not ports.idle_by(clock):
            step_once("memory ports still busy at the start of iteration "
                      f"{iterations}")
            continue
        first = iterations == 0
        nb = min(block, max_iterations - iterations)

        # -- phase A: values -------------------------------------------------
        with np.errstate(all="ignore"):
            vals, offs, taken, mem_vecs = _phase_values(
                bp, nb, first, prev, const1, const2, const_fb, memory.gather)

        loop_vec = taken[loop_id]
        exited = not loop_vec.all()
        if exited:
            nb = int(np.argmin(loop_vec)) + 1
            _truncate(vals, offs, mem_vecs, nb)

        # -- alias check: commit only the iterations before the first
        # load that reads a store of this block ------------------------------
        hazard = None
        if bp.has_store:
            load_streams = []
            store_streams = []
            for i in mem_ids:
                mem_plan = nodes[i].plan_node.memory
                addr, _raw, on = mem_vecs[i]
                if mem_plan.is_load:
                    load_streams.append((addr, mem_plan.size, i, on))
                else:
                    store_streams.append((addr, mem_plan.size, i, on))
            if load_streams:
                hazard = block_alias_hazard(load_streams, store_streams)
        # Size the next block from this one's outcome: after a cut, twice
        # the iterations the cut block commits; after a clean block,
        # double back toward DEFAULT_BLOCK.  Lanes computed past a hazard
        # then scale with the hazard spacing instead of costing a full
        # DEFAULT_BLOCK per cut.
        block = (min(2 * block, DEFAULT_BLOCK) if hazard is None
                 else max(2 * hazard, 1))
        if hazard == 0:
            # An in-iteration store-to-load forward: one interpreter step.
            step_once("in-iteration store-to-load forwarding at "
                      f"iteration {iterations}")
            continue
        if hazard is not None:
            nb = hazard
            exited = False  # every iteration before the hazard loops on
            _truncate(vals, offs, mem_vecs, nb)

        # -- phase T: static timing weights per source -----------------------
        W, mem_ready, mem_off, wend, noc_waits = _phase_timing(
            bp, nb, first, offs)

        # -- phase B: memory (cache pass, store commit, port timing) ---------
        starts, ends, done_mat = _phase_memory(
            bp, nb, clock, iterations, mem_vecs, mem_ready, mem_off, wend,
            ports, hierarchy, speculative, store_issue, memory)
        lat_vec = ends - starts

        # -- phase C: counter folds ------------------------------------------
        T = np.concatenate((starts[None], done_mat))
        # Ring-channel waits: grant minus departure per contended slot, in
        # concrete time (both are maxima over the timing sources).
        for slot, dep, grant, skip0 in noc_waits:
            wvec = (grant + T).max(axis=0) - (dep + T).max(axis=0)
            if skip0:
                wvec[0] = 0.0  # the slot does not fire on iteration 0
            wsum = float(wvec.sum())
            if wsum:
                slot_wait[slot] += wsum
                acc["noc_wait"] += wsum
        for i in range(n):
            if nodes[i].kind == N_MEMORY:
                total = (done_mat[mem_source[i] - 1] - starts).sum()
            else:
                total = ((W[i] + T).max(axis=0) - starts).sum()
            node_total[i] += float(total)
        _fold_events(bp, nb, first, offs, slot_count, acc)
        iteration_latencies.extend(lat_vec.tolist())

        # Commit the block.
        clock = float(ends[-1])
        iterations += nb
        batched += nb
        for i in range(n):
            prev[i] = vals[i][nb - 1].item()
        finished = exited or iterations >= max_iterations

    for register, node_id in plan.program.live_out.items():
        if 0 <= node_id < n:
            state.write(register, prev[node_id])

    # Fold the accumulators (additive, so interpreter steps mix in).
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
    activity.int_ops += acc["int_ops"]
    activity.fp_ops += acc["fp_ops"]
    activity.forwards += acc["forwards"]
    activity.loads += acc["loads"]
    activity.stores += acc["stores"]
    activity.local_hops += acc["local_hops"]
    activity.noc_hops += acc["noc_hops"]
    activity.noc_wait_cycles += acc["noc_wait"]
    activity.pe_busy_cycles += acc["pe_busy"]
    activity.control_events += acc["control_events"]
    return iterations, iteration_latencies, reason


def _port_carry(bp, ports, l1_hit):
    """Why memory-port state can carry from one iteration into the next,
    or "" when it cannot: a port must free no later than the access it
    granted completes (module docstring)."""
    if ports.unlimited or not bp.mem_ids:
        return ""
    interval = ports.issue_interval
    if interval > l1_hit:
        return f"port issue interval {interval} > L1 hit latency {l1_hit}"
    if bp.has_store and interval > bp.plan.store_issue:
        return (f"port issue interval {interval} > store issue "
                f"{bp.plan.store_issue}")
    return ""


def _truncate(vals, offs, mem_vecs, nb):
    """Keep the first ``nb`` lanes of a block's phase-A vectors."""
    for i, vec in enumerate(vals):
        vals[i] = vec[:nb]
        if offs[i] is not None:
            offs[i] = offs[i][:nb]
    for rec_vec in mem_vecs.values():
        for j, vec in enumerate(rec_vec):
            if vec is not None:
                rec_vec[j] = vec[:nb]


def _phase_values(bp, nb, first, prev, const1, const2, const_fb, gather):
    """Compute every node's (nb,)-value vector in topological order."""
    nodes = bp.nodes
    n = len(nodes)
    vals: list = [None] * n
    offs: list = [None] * n
    taken: list = [None] * n
    mem_vecs: dict[int, list] = {}
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
    for i in bp.order:
        rec = nodes[i]
        pnode = rec.plan_node
        ci = rec.cluster
        if ci >= 0:
            if ci not in done_clusters:
                done_clusters.add(ci)
                _run_cluster(bp.clusters[ci], nodes, nb, first, prev,
                             const1, const2, const_fb, vals, taken, offs)
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
                if rec.dtype == D_FP:
                    value = raw.astype(np.uint32).view(np.float32)
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
        if rec.kind == N_CONTROL:
            if rec.tag == "jump":
                cond = np.ones(nb, bool)
            else:
                a = operand(pnode.src1, const1[i])
                b = operand(pnode.src2, const2[i])
                cond = rec.fn(a, b)
            if off is not None:
                taken[i] = cond & ~off
                fb = operand(pnode.fallback, const_fb[i], rec.np_dtype)
                vals[i] = np.where(off, fb, cond.astype(int64))
            else:
                taken[i] = cond
                vals[i] = cond.astype(int64)
            continue
        if rec.tag == "const":
            result = np.full(nb, rec.fn, rec.np_dtype)
        else:
            a = operand(pnode.src1, const1[i])
            b = operand(pnode.src2, const2[i])
            result = rec.fn(a, b)
        if off is not None:
            fb = operand(pnode.fallback, const_fb[i], rec.np_dtype)
            result = np.where(off, fb, result)
        vals[i] = result
    return vals, offs, taken, mem_vecs


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


def _run_cluster(cluster, nodes, nb, first, prev, const1, const2, const_fb,
                 vals, taken, offs):
    """Evaluate a coupled-recurrence cluster lane by lane.

    Members run in ascending node-id order per lane using the plan's
    scalar evaluator closures, which is bit-identical to the interpreter:
    int64/float32 lanes round-trip through Python scalars exactly,
    and the closures apply the same int()/float() conversions.  External
    producers (node or loop-carried) are already vectorized; internal
    loop-carried reads hit the previous lane's column.
    """
    members = cluster.members
    member_set = cluster.member_set
    cols: dict[int, list] = {i: [] for i in members}
    tk: dict[int, list] = {}
    offl: dict[int, list] = {}
    ext: dict[int, list] = {}

    def ext_list(src):
        lst = ext.get(src)
        if lst is None:
            lst = ext[src] = vals[src].tolist()
        return lst

    # Bind each spec to (access, column, seed): access 0 reads ``seed``
    # always, 1 reads ``column[k]``, 2 reads ``seed`` at lane 0 and
    # ``column[k - 1]`` after.
    def bind(spec, i, consts):
        code, src = spec
        if code == _C_CONST:
            return (0, None, consts[i])
        if code == _C_NODE_IN:
            return (1, cols[src], None)
        if code == _C_NODE_EX:
            return (1, ext_list(src), None)
        seed = consts[i] if first else prev[src]
        if code == _C_LOOP_IN:
            return (2, cols[src], seed)
        return (2, ext_list(src), seed)

    bound = []
    for i, is_ctrl, guard, a_spec, b_spec, fb_spec, evaluate in \
            cluster.steps:
        if is_ctrl:
            tk[i] = []
        glist = None
        if guard >= 0:
            offl[i] = []
            glist = (tk[guard] if guard in member_set
                     else taken[guard].tolist())
        bound.append((cols[i], is_ctrl, tk.get(i), glist,
                      bind(a_spec, i, const1), bind(b_spec, i, const2),
                      bind(fb_spec, i, const_fb) if fb_spec is not None
                      else None,
                      offl.get(i), evaluate))

    def read(operand, k):
        access, column, seed = operand
        if access == 0:
            return seed
        if access == 1:
            return column[k]
        return seed if k == 0 else column[k - 1]

    for k in range(nb):
        for col, is_ctrl, tl, glist, a_b, b_b, fb_b, ol, evaluate in bound:
            if glist is not None and glist[k]:
                value = read(fb_b, k)
                ol.append(True)
                if is_ctrl:
                    tl.append(False)  # a disabled branch is untaken
            else:
                if ol is not None:
                    ol.append(False)
                a = read(a_b, k)
                b = read(b_b, k)
                if is_ctrl:
                    t = evaluate(a, b)
                    tl.append(t)
                    value = int(t)
                else:
                    value = evaluate(a, b)
            col.append(value)

    for i in members:
        vals[i] = np.array(cols[i], nodes[i].np_dtype)
    for i, tl in tk.items():
        taken[i] = np.array(tl, bool)
    for i, ol in offl.items():
        offs[i] = np.array(ol, bool)


def _phase_timing(bp, nb, first, offs):
    """Per-node completion weights over the timing sources.

    ``W[i]`` is an (n_sources, nb) float64 array: completion of node i at
    iteration k is ``max_s(T[s, k] + W[i][s, k])`` where T holds the
    iteration start (source 0) and each memory node's completion.  -inf
    marks an unreachable source.

    Contended ring channels (``bp.noc_rows``) serialize their slots through
    a per-lane grant chain kept in the same weight space: the chain state
    ``M`` holds the previous grant, the next grant is ``max(depart,
    M + 1)`` elementwise (the single-port issue interval), and the max
    distributes over the source decomposition, so concrete grants are
    exactly ``max_s(T[s] + G[s])``.  Channel state never carries between
    iterations (the next start is at least the last grant + 1), so lanes
    are independent.  Nodes are walked in node-id order — the
    interpreter's request order — which pass 2's forward-edge check makes a valid
    topological order.
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
        """Arrival weights through a contended ring channel."""
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
                # Completion of a predicated-off lane: operands ready vs
                # the fallback transfer (no grant, no AMAT).
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


def _phase_memory(bp, nb, clock, iterations, mem_vecs, mem_ready, mem_off,
                  wend, ports, hierarchy, speculative, store_issue, memory):
    """The block's memory events in three passes, none of them over lanes.

    1. **Cache outcomes** depend only on the order of accesses (k-major,
       then memory-node order, live lanes only), never on timing: one
       :meth:`~repro.mem.MemoryHierarchy.access_stream` call returns every
       latency.
    2. **Stores commit** in that same order through one
       :meth:`~repro.mem.Memory.scatter`; first-hazard truncation already
       guarantees that no load of the block reads these bytes.
    3. **Port timing** runs per memory node in request order, vectorized
       over lanes, in each lane's own time (the drive loop only batches
       blocks whose port state cannot carry between iterations — module
       docstring): ready times, the store horizon, vector-group grants, a
       (ports, nb) array of free times granted by argmin, and the prefetch
       cap.  Lane starts are then the running sum of lane latencies —
       exact, because every quantity is an integer-valued float64.

    Predicated-off lanes complete at max(operands ready, fallback arrival)
    without requesting a port, touching the cache, or committing.
    Returns absolute ``(starts, ends, done_mat)``.
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
    writes = np.broadcast_to([not p.is_load for p in plans], (nb, m))
    pcs = np.broadcast_to([p.pc for p in plans], (nb, m))
    cycles = np.zeros((nb, m))
    cycles[live] = hierarchy.access_stream(addr[live], writes[live],
                                           pcs[live])
    ideal = hierarchy.ideal_latency
    for j, p in enumerate(plans):
        if p.prefetched:
            # Issued an iteration early: only the L1 latency is exposed
            # (the run's first iteration has nothing to prefetch behind).
            head = cycles[0, j]
            np.minimum(cycles[:, j], ideal, out=cycles[:, j])
            if iterations == 0:
                cycles[0, j] = head

    # 2. store commit
    cols = [j for j, p in enumerate(plans) if not p.is_load]
    if cols:
        raw = np.stack([mem_vecs[mem_ids[j]][1] for j in cols], axis=1)
        sizes = np.broadcast_to([plans[j].size for j in cols], raw.shape)
        memory.scatter(addr[:, cols].ravel(), sizes.ravel(), raw.ravel(),
                       live[:, cols].ravel())

    # 3. port timing, in lane-relative time: rel[0] is the lane start, and
    # rel[j + 1] memory node j's completion once it is timed (a node's
    # weights from later sources are -inf, so unfilled rows never count).
    rel = np.zeros((bp.n_sources, nb))
    lanes = np.arange(nb)
    interval = ports.issue_interval
    free = (None if ports.unlimited
            else np.full((int(ports.num_ports), nb), _NEG))
    requests = []      # (lane mask, ready, grant) per requesting node
    horizon = np.full(nb, _NEG)     # latest store completion so far
    group_grants: dict[int, np.ndarray] = {}

    def request(ready, mask):
        grant = ready
        if free is not None:
            slot = free.argmin(axis=0)
            grant = np.maximum(ready, free[slot, lanes])
            free[slot[mask], lanes[mask]] = grant[mask] + interval
        requests.append((mask, ready, grant))
        return grant

    for j, i in enumerate(mem_ids):
        p = plans[j]
        on = live[:, j]
        ready = (rel + mem_ready[i]).max(axis=0)
        if p.is_load:
            if not speculative:
                ready = np.maximum(ready, horizon)
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
            done = request(ready, on) + store_issue
            horizon = np.where(on, np.maximum(horizon, done), horizon)
        if i in mem_off:
            done = np.where(on, done, (rel + mem_off[i]).max(axis=0))
        rel[j + 1] = done
    lat = np.maximum((rel + wend).max(axis=0), 0.0)

    ends = clock + np.cumsum(lat)
    starts = np.concatenate(([clock], ends[:-1]))
    if requests:
        mask, ready, grant = (np.array(rows) for rows in zip(*requests))
        ports.record_grants((starts + grant + interval)[mask],
                            float((grant - ready)[mask].sum()))
    return starts, ends, starts + rel[1:]


def _fold_events(bp, nb, first, offs, slot_count, acc):
    """Accumulate edge-slot and activity event counts for one block."""
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
                acc["local_hops"] += edge.manhattan * count
            else:
                acc["noc_hops"] += edge.router_hops * count
    for rec in nodes:
        off = off_counts.get(rec.i, 0)
        live = nb - off
        if off:
            acc["forwards"] += off
            acc["control_events"] += off
        if rec.kind == N_MEMORY:
            key = "loads" if rec.plan_node.memory.is_load else "stores"
            acc[key] += live
        elif rec.kind == N_CONTROL:
            acc["control_events"] += live
        else:
            key = "fp_ops" if rec.plan_node.is_fp else "int_ops"
            acc[key] += live
            acc["pe_busy"] += rec.plan_node.latency * live
