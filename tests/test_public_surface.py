"""Every public function and method under ``src/repro`` has a caller,
every public field of a dataclass or NamedTuple there has a reader, and
every field of a ``*Config``, ``*Options``, ``*Params`` or ``*Policy``
dataclass and every defaulted parameter has a setter.

A definition counts as used when code in ``src/``, ``examples/`` or
``benchmarks/`` references its name: a ``Name``, an ``Attribute`` or an
imported alias.  Docstrings, comments and other strings do not count, nor
do the re-exports of a package ``__init__``.  A field counts as read when
that code loads an attribute of its name or holds its name as a string
(``getattr``, ``asdict`` keys); setting it does not count.  A helper or a
field that only tests read stays only as an entry of :data:`ORACLES` or
:data:`FIELD_ORACLES`, with the reason the tests need it.  A test-only
helper whose name program code also uses, for another definition or from
another test-only helper, is invisible to that count: it stays only as an
entry of both :data:`ORACLES` and :data:`SHADOWED_ORACLES`.

A setting counts as set when that code passes its name as a keyword to its
class's constructor or to ``dataclasses.replace``.  A value nothing but the
tests sets is a constant of the model, not a setting; a setting that stays
anyway is an entry of :data:`KNOB_ORACLES`, with the reason it stays.

The same holds for the defaulted parameters of every public function,
method and constructor.  A parameter counts as set when that code passes
it, by keyword or at its position, in a call to a callee of that name: the
class name for ``__init__``, ``super().__init__`` in a subclass, or the
first argument of ``functools.partial``.  Forwarding through ``*args`` or
``**kwargs`` does not count.  A parameter that stays anyway is an entry of
:data:`PARAM_ORACLES`, with the reason it stays.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Test-only helpers kept on purpose: qualified name -> why a test needs it.
ORACLES = {
    "Cache.resident_lines":
        "LRU capacity oracle: cache tests bound the lines a cache holds",
    "MemoryHierarchy.amat_counters":
        "fingerprint oracle: memory_fingerprint and test_core_fingerprint "
        "compare the per-PC AMAT state",
    "Memory.footprint":
        "oracle for bytes written: scatter and kernel staging tests count "
        "them",
    "Cache.probe":
        "residency oracle: cache tests check a line is resident without "
        "touching LRU order or counters",
    "PEGrid.free_neighbourhood":
        "scalar oracle of the live free_neighbours counts: grid tests pin "
        "the paper's tie-breaker one PE at a time",
    "Program.listing":
        "disassembly oracle: assembler tests check label and address "
        "placement through the readable listing",
    "MulticoreResult.speedup_vs_single":
        "scaling oracle: multicore tests bound the analytic model's speedup "
        "by core count and parallel fraction",
    "MachineState.snapshot":
        "register-file oracle: conformance, determinism and fingerprint "
        "tests compare every register of two states by ABI name",
    "LoopStreamDetector.loops":
        "stream oracle: test_trace_views checks that scanning the back "
        "edges finds the loops observing every trace entry finds",
    **dict.fromkeys(
        ("Cache.flush", "Cache.reset_stats", "MemoryHierarchy.flush",
         "MemoryHierarchy.reset_stats"),
        "fresh-state oracle: the lazy-set tests return a used cache or "
        "hierarchy to its fresh state and replay it against a new one"),
}

#: ORACLES entries whose name program code also uses (``snapshot`` of a
#: latency histogram, ``flush`` of the trace columns, ``loops`` as a
#: variable, ``reset_stats`` from the hierarchy's own oracle): counting
#: names cannot tell those uses apart, so their stale check only asks
#: that the definition still exists.
SHADOWED_ORACLES = frozenset({
    "MachineState.snapshot", "LoopStreamDetector.loops", "Cache.flush",
    "Cache.reset_stats", "MemoryHierarchy.flush",
    "MemoryHierarchy.reset_stats"})

#: Test-only record fields kept on purpose: qualified name -> why a test
#: needs it.
FIELD_ORACLES = {
    **dict.fromkeys(
        ("MemoptReport.forwarded_loads", "MemoptReport.vector_groups",
         "MemoptReport.vectorized_loads", "MemoptReport.prefetched_loads"),
        "memopt oracle: memopt and pipeline tests check what the pass "
        "changed in a region"),
    "DynaSpamMapping.levels":
        "levelization oracle: DynaSpAM tests check that levels respect "
        "dependences and the per-level lane limit",
    "CgraSchedule.slots":
        "modulo-schedule oracle: OpenCGRA tests check each node's PE and "
        "start time against dependences and resource conflicts",
    "ShardOutcome.attempts":
        "retry-budget oracle: shard-runner tests check a crashed or wedged "
        "shard is retried exactly RETRIES times",
}

#: Settings no program code sets that stay settable on purpose: qualified
#: name -> why.
KNOB_ORACLES = {
    **dict.fromkeys(
        tuple(f"CpuConfig.{name}" for name in (
            "fetch_width", "issue_width", "commit_width", "rob_size",
            "lsq_size", "int_alu_units", "int_mul_units", "fp_units",
            "load_store_ports", "branch_units", "mispredict_penalty",
            "memory")),
        "core-shape oracle: the fast-forward and core tests hold the OoO "
        "model exact at other core shapes, and the perf benchmark hands a "
        "pool's CpuConfig to MesaController"),
    **dict.fromkeys(
        ("HierarchyConfig.l1", "HierarchyConfig.l2",
         "HierarchyConfig.dram_latency", "CacheConfig.line_bytes"),
        "memory-shape oracle: cache and hierarchy tests build small "
        "hierarchies to reach evictions, line crossings and DRAM"),
    "AcceleratorConfig.xlen":
        "RV64 oracle: test_rv64_pipeline runs the 64-bit fabric end to end",
}

#: Class-name endings of the records whose fields are settings.
KNOB_RECORDS = ("Config", "Options", "Params", "Policy")

#: Defaulted parameters no program code sets that stay on purpose:
#: ``callable(parameter)`` -> why.
PARAM_ORACLES = {
    **dict.fromkeys(
        ("fig12_opencgra(kernels)", "fig13_breakdown(kernels)",
         "fig14_dynaspam(kernels)", "table2_config_latency(kernels)",
         "fig15_pe_scaling(iterations)", "fig15_pe_scaling(pe_counts)",
         "fig16_amortization(checkpoints)"),
        "test-speed seam: figure and table tests run the driver on one or "
        "two kernels, fewer grids or fewer checkpoints; the defaults are "
        "the paper's"),
    "ControllerPool(factory)":
        "test double: service tests swap in a controller that counts, "
        "fails or hangs on cue",
    "serve(fault_plan)":
        "fault-injection seam: the fault suite drops chosen connections "
        "at the TCP front end",
    "main(argv)":
        "CLI entry: CLI tests pass the argument list the console script "
        "takes from sys.argv",
    "assemble(base_address)":
        "placement oracle: assembler tests check label and address "
        "resolution at a base other than the kernels' 0x1000",
    **dict.fromkeys(
        ("ServiceClient.offload(timeout_s)", "ServiceClient.offload(config)"),
        "wire request fields: a remote client picks each request's deadline "
        "and backend, which the server reads off the wire"),
    "ServiceClient(host)":
        "deployment address: a client reaches the server wherever it "
        "listens",
}


def _references(*dirs):
    """How often code under ``dirs`` references each name."""
    counts = Counter()
    for directory in dirs:
        for path in (ROOT / directory).rglob("*.py"):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    counts[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    counts[node.attr] += 1
                elif isinstance(node, ast.alias) and not reexports:
                    counts[node.name.rpartition(".")[2]] += 1
    return counts


def _public_definitions():
    """(qualified name, name, location) of every public module-level
    function and class method (nested classes included)."""
    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.", path)
            elif (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not child.name.startswith("_")):
                location = f"{path.relative_to(ROOT)}:{child.lineno}"
                yield f"{prefix}{child.name}", child.name, location

    for path in sorted(PACKAGE.rglob("*.py")):
        yield from visit(ast.parse(path.read_text()), "", path)


def _is_record(cls: ast.ClassDef) -> bool:
    """A ``@dataclass`` (called or not) or a ``NamedTuple`` subclass."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else node.id

    return ("dataclass" in map(name, cls.decorator_list)
            or "NamedTuple" in map(name, cls.bases))


def _public_fields():
    """(qualified name, name, location) of every public field of every
    dataclass and NamedTuple (``ClassVar`` annotations are not fields)."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(cls, ast.ClassDef) and _is_record(cls)):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and not stmt.target.id.startswith("_")
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    location = f"{path.relative_to(ROOT)}:{stmt.lineno}"
                    yield f"{cls.name}.{stmt.target.id}", stmt.target.id, \
                        location


def _reads(*dirs):
    """How often code under ``dirs`` loads each attribute name or holds
    each string."""
    counts = Counter()
    for directory in dirs:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    counts[node.attr] += 1
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    counts[node.value] += 1
    return counts


@functools.cache
def _unread_fields():
    reads = _reads("src", "examples", "benchmarks")
    return {qualified: location
            for qualified, name, location in _public_fields()
            if not reads[name]}


def _keywords(*dirs):
    """(callee name, keyword) of every call under ``dirs``."""
    pairs = set()
    for directory in dirs:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    callee = (func.attr if isinstance(func, ast.Attribute)
                              else getattr(func, "id", None))
                    pairs.update((callee, keyword.arg)
                                 for keyword in node.keywords)
    return pairs


@functools.cache
def _unset_knobs():
    keywords = _keywords("src", "examples", "benchmarks")
    unset = {}
    for qualified, name, location in _public_fields():
        record = qualified.partition(".")[0]
        if (record.endswith(KNOB_RECORDS)
                and (record, name) not in keywords
                and ("replace", name) not in keywords):
            unset[qualified] = location
    return unset


@functools.cache
def _unused():
    references = _references("src", "examples", "benchmarks")
    return {qualified: location
            for qualified, name, location in _public_definitions()
            if not references[name]}


def test_every_public_definition_has_a_caller():
    unused = {qualified: location for qualified, location in _unused().items()
              if qualified not in ORACLES}
    assert not unused, (
        "public definitions nothing outside tests names; delete them, or "
        "list a test oracle in ORACLES with its reason:\n"
        + "\n".join(f"  {location} {qualified}"
                    for qualified, location in sorted(unused.items())))


def test_oracle_entries_are_still_needed():
    defined = {qualified for qualified, _, _ in _public_definitions()}
    stale = ((set(ORACLES) - SHADOWED_ORACLES - set(_unused()))
             | (SHADOWED_ORACLES - defined))
    assert not stale, f"ORACLES entries now used (or gone): {sorted(stale)}"


def test_shadowed_oracles_are_shadowed():
    assert SHADOWED_ORACLES <= set(ORACLES)
    unshadowed = SHADOWED_ORACLES & set(_unused())
    assert not unshadowed, (
        f"no longer shadowed; keep them in ORACLES only: "
        f"{sorted(unshadowed)}")


def test_every_public_field_has_a_reader():
    unread = {qualified: location
              for qualified, location in _unread_fields().items()
              if qualified not in FIELD_ORACLES}
    assert not unread, (
        "record fields nothing outside tests reads; delete them, or list a "
        "test oracle in FIELD_ORACLES with its reason:\n"
        + "\n".join(f"  {location} {qualified}"
                    for qualified, location in sorted(unread.items())))


def test_field_oracle_entries_are_still_needed():
    stale = set(FIELD_ORACLES) - set(_unread_fields())
    assert not stale, (
        f"FIELD_ORACLES entries now read (or gone): {sorted(stale)}")


def test_every_knob_has_a_setter():
    unset = {qualified: location
             for qualified, location in _unset_knobs().items()
             if qualified not in KNOB_ORACLES}
    assert not unset, (
        "settings nothing outside tests sets; make them constants of the "
        "model, or list the reason they stay in KNOB_ORACLES:\n"
        + "\n".join(f"  {location} {qualified}"
                    for qualified, location in sorted(unset.items())))


def test_knob_oracle_entries_are_still_needed():
    stale = set(KNOB_ORACLES) - set(_unset_knobs())
    assert not stale, f"KNOB_ORACLES entries now set (or gone): {sorted(stale)}"


def _parameters():
    """(``callable(parameter)``, callee name, call position or None,
    parameter name, location) of every defaulted parameter of every public
    module-level function, method and public-class constructor.  The call
    position skips ``self``/``cls``; keyword-only parameters have none."""
    def defaulted(function, offset):
        args = function.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield arg.arg, index - offset
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield arg.arg, None

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.", path)
                continue
            if not isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            method = isinstance(node, ast.ClassDef)
            static = "staticmethod" in (ast.unparse(decorator) for decorator
                                        in child.decorator_list)
            offset = int(method and not static)
            if child.name == "__init__" and not node.name.startswith("_"):
                callee, qualified = node.name, prefix[:-1]
            elif not child.name.startswith("_"):
                callee, qualified = child.name, f"{prefix}{child.name}"
            else:
                continue
            location = f"{path.relative_to(ROOT)}:{child.lineno}"
            for name, position in defaulted(child, offset):
                yield (f"{qualified}({name})", callee, position, name,
                       location)

    for path in sorted(PACKAGE.rglob("*.py")):
        yield from visit(ast.parse(path.read_text()), "", path)


def _call_arguments(*dirs):
    """(callee name, keyword or position) of every argument passed under
    ``dirs``.  Arguments from a ``*args`` on are forwarded, not passed."""
    def name_of(node):
        if isinstance(node, ast.Attribute):
            return node.attr
        return getattr(node, "id", None)

    def callees(call, bases):
        func = call.func
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and name_of(func.value.func) == "super"):
            return bases, call.args
        if name_of(func) == "partial" and call.args:
            return [name_of(call.args[0])], call.args[1:]
        return [name_of(func)], call.args

    passed = set()

    def visit(node, bases, aliases):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, [name_of(base) for base in child.bases], aliases)
                continue
            if isinstance(child, ast.Call):
                names, args = callees(child, bases)
                for callee in (aliases.get(name, name) for name in names):
                    passed.update((callee, keyword.arg)
                                  for keyword in child.keywords
                                  if keyword.arg is not None)
                    for position, arg in enumerate(args):
                        if isinstance(arg, ast.Starred):
                            break
                        passed.add((callee, position))
            visit(child, bases, aliases)

    for directory in dirs:
        for path in (ROOT / directory).rglob("*.py"):
            tree = ast.parse(path.read_text())
            # A callee imported under another name is called by its own.
            aliases = {alias.asname: alias.name.rpartition(".")[2]
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       for alias in node.names if alias.asname}
            visit(tree, [], aliases)
    return passed


@functools.cache
def _unset_parameters():
    passed = _call_arguments("src", "examples", "benchmarks")
    return {qualified: location
            for qualified, callee, position, name, location in _parameters()
            if (callee, name) not in passed
            and (callee, position) not in passed}


def test_every_parameter_has_a_setter():
    unset = {qualified: location
             for qualified, location in _unset_parameters().items()
             if qualified not in PARAM_ORACLES}
    assert not unset, (
        "defaulted parameters nothing outside tests sets; make them "
        "constants, or list the reason they stay in PARAM_ORACLES:\n"
        + "\n".join(f"  {location} {qualified}"
                    for qualified, location in sorted(unset.items())))


def test_param_oracle_entries_are_still_needed():
    stale = set(PARAM_ORACLES) - set(_unset_parameters())
    assert not stale, (
        f"PARAM_ORACLES entries now set (or gone): {sorted(stale)}")
