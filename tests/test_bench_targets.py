"""Every function the benchmark tracer wraps still exists in the package.

bench/tracing.py patches named functions and methods from outside, so a
deleted or renamed name would break only the traced benchmark run.  This
loads the tracer by path, unchanged, and resolves each of its targets the
way it does: module attributes by name, methods in the class __dict__.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS

    missing = []
    for mod_name, attr, _hook in tracing.TARGETS:
        mod = importlib.import_module(f"gridstudies.{mod_name}")
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            found = owner is not None and fn_name in vars(owner)
        else:
            found = callable(getattr(mod, fn_name, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
