"""The traced bench run wraps package functions by name: every entry of
bench/launcher.py's LAYER_CALLS must still resolve, and must still accept
the arguments its span-attribute function reads."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

LAUNCHER = Path(__file__).parent.parent / "bench" / "launcher.py"


def _load_launcher():
    spec = importlib.util.spec_from_file_location("bench_launcher", LAUNCHER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _positional(fn) -> int:
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return sum(1 for q in inspect.signature(fn).parameters.values() if q.kind in kinds)


def test_layer_calls_resolve():
    launcher = _load_launcher()
    assert launcher.LAYER_CALLS
    for module_name, attr, _, attrs in launcher.LAYER_CALLS:
        target = importlib.import_module(f"tatedual.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attr)
        # attrs(out, *call_args): it reads the wrapped call's positional arguments
        assert _positional(target) >= _positional(attrs) - 1, (module_name, attr)
