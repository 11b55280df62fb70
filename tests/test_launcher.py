"""The traced bench run wraps package functions by name: every entry of
bench/launcher.py's LAYER_CALLS must still resolve, and must still accept
the arguments its span-attribute function reads."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
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


def test_spans_land_for_function_local_imports(tmp_path):
    # cli imports cp_rep inside the commands that use it; the patched module
    # attributes must still see every call
    spans_path = tmp_path / "spans.json"
    root = LAUNCHER.parent.parent
    proc = subprocess.run(
        [sys.executable, str(LAUNCHER), str(spans_path), "--", "verify", "nilpotence", "--prime", "3"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "bench" / "expected" / "nilpotence-p3.out").read_bytes()
    names = {span["name"] for span in json.loads(spans_path.read_text())}
    assert {"cp_rep.nilpotence", "linalg.naive"} <= names
