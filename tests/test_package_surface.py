"""Every function, class and method in the package has a caller.

A name is kept when another line of the package refers to it (as a name or
as an attribute), when the benchmark tracer wraps it (bench/tracing.py
TARGETS), or when it is one of the named oracles behind an acceptance
claim.  API that only tests call belongs in the tests.  Dunder methods run
implicitly and are not checked.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridstudies"
TRACING = ROOT / "bench" / "tracing.py"

# the oracles behind c03 (critical currents), DEFAULT_GEOMETRY's provenance
# (the calibration that recovers it), c05 (the EMT network's lumped
# elements) and c07 (the equal-area critical clearing time)
ORACLES = {
    "lightning.critical_currents",
    "lightning.calibrate_geometry",
    "stability.cct_equal_area",
    "emt.EmtNetwork.add_inductor",
    "emt.EmtNetwork.add_capacitor",
}


def trace_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{mod}.{attr}" for mod, attr, _hook in tracing.TARGETS}


def package_surface():
    """(definitions, references): each top-level function or class and each
    method as (dotted name, file, node), and each name or attribute use as
    (file, line, identifier)."""
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", module, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{sub.name}", module, sub)
                         for sub in node.body if isinstance(sub, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.lineno, node.attr))
    return defs, refs


def test_every_definition_has_a_package_caller():
    defs, refs = package_surface()
    allowed = trace_targets() | ORACLES
    uncalled = []
    for qualname, module, node in defs:
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or qualname in allowed:
            continue
        # a use inside the definition itself (recursion) does not count
        if not any(ident == name and not (where == module
                                          and node.lineno <= line <= node.end_lineno)
                   for where, line, ident in refs):
            uncalled.append(qualname)
    assert uncalled == []


def test_every_named_oracle_exists():
    defined = {qualname for qualname, _module, _node in package_surface()[0]}
    assert ORACLES <= defined
