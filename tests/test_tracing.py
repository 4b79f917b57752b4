"""The benchmark's tracer (perfbench/tracing.py) wraps package functions
by module and name. A function that a change renames or deletes would
drop out of the traced run without an error, so every traced name must
still resolve in the package."""

import importlib
import inspect
import types
from pathlib import Path

from recipetext.extraction import resolve_generics

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # run from its source text, so nothing is written next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_functions_resolve():
    traced = _tracing().TRACED
    assert traced
    for module_name, fn_name, _span, _counter in traced:
        module = importlib.import_module(f"recipetext.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"recipetext.{module_name}.{fn_name}"


def test_traced_argument_names_exist():
    # the generic-resolution counter binds this argument by name
    assert "candidates" in inspect.signature(resolve_generics).parameters
