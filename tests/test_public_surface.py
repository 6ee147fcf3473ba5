"""Every public function and method under ``src/repro`` has a caller.

A definition counts as used when its name appears as a word somewhere in
``src/`` other than in its own definitions, or anywhere in ``examples/``
or ``benchmarks/``.  A helper that only tests read stays only as an entry
of :data:`ORACLES`, with the reason the tests need it.
"""

import ast
import functools
import re
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
}


def _word_counts(*dirs):
    counts = Counter()
    for name in dirs:
        for path in (ROOT / name).rglob("*.py"):
            counts.update(re.findall(r"\w+", path.read_text()))
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
    definitions = list(_public_definitions())
    defined = Counter(name for _, name, _ in definitions)
    in_src = _word_counts("src")
    elsewhere = _word_counts("examples", "benchmarks")
    return {qualified: location
            for qualified, name, location in definitions
            if in_src[name] <= defined[name] and not elsewhere[name]}


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
