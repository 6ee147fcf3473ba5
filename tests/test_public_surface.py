"""Every public function and method under ``src/repro`` has a caller.

A definition counts as used when code in ``src/``, ``examples/`` or
``benchmarks/`` references its name: a ``Name``, an ``Attribute`` or an
imported alias.  Docstrings, comments and other strings do not count, nor
do the re-exports of a package ``__init__``.  A helper that only tests
read stays only as an entry of :data:`ORACLES`, with the reason the tests
need it.
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
        "scalar oracle of free_neighbourhood_matrix: grid tests pin the "
        "paper's tie-breaker one PE at a time",
    "Program.listing":
        "disassembly oracle: assembler tests check label and address "
        "placement through the readable listing",
    "MulticoreResult.speedup_vs_single":
        "scaling oracle: multicore tests bound the analytic model's speedup "
        "by core count and parallel fraction",
    "LoadStoreQueue.commit":
        "retirement oracle: LSQ tests pin in-order, resolved-only "
        "retirement; the engine drops its per-iteration queue instead",
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
    stale = set(ORACLES) - set(_unused())
    assert not stale, f"ORACLES entries now used (or gone): {sorted(stale)}"
