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


ROOT = LAUNCHER.parent.parent


def _launch(spans_path, *argv):
    return subprocess.run(
        [sys.executable, str(LAUNCHER), str(spans_path), "--", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        timeout=120,
    )


def test_spans_land_for_function_local_imports(tmp_path):
    # cli imports verdicts, and verdicts cp_rep, inside the commands that use
    # them; the patched module attributes must still see every call.  The
    # verdicts and the --json Tate dimensions at p = 3 no longer reach
    # cp_rep; a sympow whose base degree S^2(U_4) at p = 7 (blocks 5 and 1)
    # the weight certificate leaves open does, for its decomposition
    spans_path = tmp_path / "spans.json"
    proc = _launch(spans_path, "sympow", "--prime", "7", "--k", "4", "--degree", "9")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / "sympow_p7_k4_d9.json").read_bytes()
    names = {span["name"] for span in json.loads(spans_path.read_text())}
    assert {"cp_rep.jordan", "cp_rep.chain_step", "linalg.matmul"} <= names


def test_nilpotence_json_runs_under_the_launcher(tmp_path):
    # the --json output must not change under the wrappers
    proc = _launch(tmp_path / "spans.json", "verify", "nilpotence", "--prime", "3", "--json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / "nilpotence_p3.json").read_bytes()
