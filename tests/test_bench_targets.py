"""The package functions the benchmark's tracer wraps still exist.

``perfbench/run.py --trace 1`` patches each name of ``TARGETS`` in
``perfbench/tracing.py`` by attribute lookup, so a rename in ``splfr``
would break it.  The table is read with ``ast`` so that the tracer's own
imports (numpy) are not needed here.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_targets() -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACING}")


def test_every_traced_name_resolves():
    names = [(layer, attr) for layer, attrs in tracer_targets().items() for attr in attrs]
    assert len(names) == 27
    for layer, attr in names:
        home = importlib.import_module(f"splfr.{layer}")
        if "." in attr:
            # the tracer patches the method in the class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), f"{layer}.{attr}"
        else:
            assert callable(getattr(home, attr, None)), f"{layer}.{attr}"
