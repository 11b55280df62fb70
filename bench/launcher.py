"""Run one tatedual CLI command with spans around the calls into each layer.

    python3 bench/launcher.py SPANS_JSON -- <tatedual arguments>

The launcher imports the package, replaces the layer functions named in
LAYER_CALLS by timing wrappers, calls ``tatedual.cli.main(argv)`` and exits
with its return code.  Standard output is the command's own.  Spans are kept
in memory and written to SPANS_JSON once the command has returned; each is
``{"name", "start", "end", "parent", "attrs"}`` with ``parent`` the index of
the enclosing span (-1 at top level) and times from ``time.perf_counter``.

Nothing in the package changes: the wrappers are installed as module (or
class) attributes, and every call between the package's modules goes
through such an attribute.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time


class Recorder:
    """Spans of one process, in the order they were entered."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name, fn, attrs, args, kwargs):
        idx = len(self.spans)
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else -1, "attrs": {}}
        self.spans.append(span)
        self._stack.append(idx)
        out = None
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(out, *args, **kwargs)

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, attrs, args, kwargs)

        return wrapper


# --- span attributes, computed from the arguments and the result ------------


def _elim(path):
    def attrs(out, a, p):
        rank = None if out is None else len(out[1])
        return {"shape": list(a.shape), "p": p, "rank": rank, "path": path}

    return attrs


def _matmul(out, a, b, p):
    return {"shape": [a.shape[0], a.shape[1], b.shape[1]], "p": p}


def _solve_upper(out, m, b, p):
    return {"shape": [m.shape[0], b.shape[1]], "p": p}


def _sparse_rank(out, a, p):
    return {"shape": list(a.shape), "p": p, "rank": out, "path": "sparse"}


def _module_dim(out, m):
    return {"dim": m.dim, "p": m.p}


def _tate_data(out, m):
    attrs = {"dim": m.dim, "p": m.p}
    if out is not None:
        attrs.update(even_dim=out.tate.even_dim, odd_dim=out.tate.odd_dim)
    return attrs


def _chain_step(out, chain):
    base = hashlib.sha1(chain.base.gen_action.tobytes()).hexdigest()[:12]
    dense = type(chain.matrix).__module__.startswith("numpy")
    return {"degree": chain.deg, "dim": len(chain.monos), "p": chain.p,
            "base": f"{chain.p}:{chain.nvars}:{base}", "path": "dense" if dense else "sparse"}


def _induced_step(out, p, embed, tgt_dim_total, src, tgt, deg):
    return {"degree": deg, "dim": tgt_dim_total, "p": p}


def _nilpotence(out, params, k, max_deg):
    return {"p": params.p, "k": k, "degree": max_deg}


def _group(out, group, params, *rest, **kw):
    return {"group": group, "p": params.p}


def _rendered(out, spec, *rest):
    return {"group": spec.group, "p": spec.p, "bytes": 0 if out is None else len(out.encode())}


def _congruence(out, params):
    return {"p": params.p}


# (module, attribute, span name, attribute function); "Class.method" patches
# the method on the class
LAYER_CALLS = [
    ("linalg", "_forward_naive", "linalg.naive", _elim("naive")),
    ("linalg", "_forward_blocked", "linalg.blocked", _elim("blocked")),
    ("linalg", "_solve_unit_upper", "linalg.solve_upper", _solve_upper),
    ("linalg", "matmul_mod", "linalg.matmul", _matmul),
    ("linalg", "sparse_rank_mod", "linalg.sparse_rank", _sparse_rank),
    ("cp_rep", "_SymmetricChain.step", "cp_rep.chain_step", _chain_step),
    ("cp_rep", "_tate_data", "cp_rep.tate_data", _tate_data),
    ("cp_rep", "_norm_matrix", "cp_rep.norm_matrix", _module_dim),
    ("cp_rep", "_induced_step", "cp_rep.induced_step", _induced_step),
    ("cp_rep", "nilpotence_report", "cp_rep.nilpotence", _nilpotence),
    ("cp_rep", "jordan_decompose", "cp_rep.jordan", _module_dim),
    ("cp_rep", "_free_by_rank", "cp_rep.free_by_rank", _module_dim),
    ("tate_engine", "run_to_einfty", "tate_engine.run_to_einfty", _group),
    ("duality_shifts", "shift_report", "duality_shifts.shift_report", _group),
    ("chart_render", "render", "chart_render.render", _rendered),
    ("chart_render", "diff_overlay", "chart_render.render", _rendered),
    ("mod_arith", "congruence_check", "mod_arith.congruence", _congruence),
]


def install(rec: Recorder) -> None:
    for module_name, attr, span_name, attrs in LAYER_CALLS:
        owner = importlib.import_module(f"tatedual.{module_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        setattr(owner, attr, rec.wrap(span_name, getattr(owner, attr), attrs))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launcher.py SPANS_JSON -- <tatedual arguments>", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    rec = Recorder()
    cli = rec.call("cli.import", importlib.import_module, None, ("tatedual.cli",), {})
    install(rec)
    try:
        return rec.call("cli.main", cli.main, None, (cli_argv,), {})
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
