"""Guard for the benchmark's tracer: every function it wraps must still exist.

perfbench/tracer.py wraps library functions by name, so deleting or renaming
one of them crashes the benchmark's traced pass.  The tracer is read with
runpy, which neither imports it as a package nor writes bytecode next to it.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))

# bindings that Tracer.install sets outside the TRACED list
EXTRA = [("models", "validate_pearl"), ("linalg", "Matrix.__init__")]


@pytest.mark.parametrize("module, attr",
                         [entry[:2] for entry in TRACER["TRACED"]] + EXTRA,
                         ids=lambda x: x)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"{TRACER['PACKAGE']}.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # install wraps the method found in the class's own namespace
        assert callable(vars(getattr(owner, cls_name)).get(meth))
    else:
        assert callable(getattr(owner, attr, None))
