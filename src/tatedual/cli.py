"""Command line interface.

Subcommands: `shifts` prints the duality shift table, `chart` renders a
page, `verify` runs the verification suites, and `sympow` reports the
Jordan profile and Tate cohomology of one symmetric power.

Exit codes: 0 success (all checks verified), 1 a mathematical verification
failed, 2 invalid input or an environment problem.  Identical invocations
print byte-identical standard output.

Each command imports the layers it runs, when it runs.  Importing this
module loads errors and mod_arith, which holds the parser's GROUPS and
FORMATS; `verify congruence` adds nothing, `shifts` duality_shifts and
tate_engine, `chart` chart_render and tate_engine, `verify cancellation`
tate_engine, and the plain `verify nilpotence` and `verify freeness`
verdicts alone (no numpy or json), as do `sympow` and `verify nilpotence
--json`, with json.  cp_rep, and with it numpy, is imported only where the
weight certificate of verdicts leaves a freeness, or the Jordan profile of
a base degree, open; json only where JSON is printed.  Every record of the
package is a collections.namedtuple, so no command loads dataclasses.
Cold, with no bytecode, this import takes about 12 ms on a 2-core machine.
"""

from __future__ import annotations

import argparse
import sys

from . import mod_arith
from .errors import InvalidInput, ResourceGuard, VerificationFailure

_SHIFT_ROW = "{group:<5} {p:>3}  {route:<5} {shift:>7} {periodicity:>12}  {certificate:<18} {certificate_degree:>7}"


def cmd_shifts(args) -> int:
    from . import duality_shifts
    params = mod_arith.height_params(args.prime)
    table = duality_shifts.shifts_table(params, route=args.route)
    names = duality_shifts.ShiftReport._fields
    print(_SHIFT_ROW.format_map(dict(zip(names, names), certificate_degree="degree")))
    for report in table.values():
        print(_SHIFT_ROW.format_map(report._asdict()))
    return 0


def _default_window(group: str, params: mod_arith.HeightParams) -> tuple[int, int, int, int]:
    # wide enough for two periodicity translates in each axis direction
    n, p = params.n, params.p
    s_max = 2 * n * n + 2
    x_max = 2 * p * p if group == "Cp" else 4 * p * n * n
    return (-x_max, x_max, -s_max, s_max)


def cmd_chart(args) -> int:
    from . import chart_render
    params = mod_arith.height_params(args.prime)
    if args.window is not None:
        x0, x1, s0, s1 = args.window
    else:
        x0, x1, s0, s1 = _default_window(args.group, params)
    spec = chart_render.ChartSpec(
        group=args.group,
        p=args.prime,
        page=args.page,
        x_min=x0,
        x_max=x1,
        s_min=s0,
        s_max=s1,
        fmt=args.format,
    )
    text = chart_render.diff_overlay(spec) if args.overlay else chart_render.render(spec)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _verify_congruence(args) -> int:
    if args.max_prime < 3:
        raise InvalidInput(f"--max-prime must be at least 3, got {args.max_prime}")
    if args.max_prime > mod_arith.MAX_PRIME:
        raise InvalidInput(
            f"--max-prime {args.max_prime} exceeds the supported range ({mod_arith.MAX_PRIME})"
        )
    failures = 0
    count = 0
    p = 3
    while p <= args.max_prime:
        if mod_arith.is_odd_prime(p):
            params = mod_arith.height_params(p)
            ok = mod_arith.congruence_check(params)
            k = mod_arith.invariant_delta_exponent(params)
            count += 1
            status = "PASS" if ok else "FAIL"
            print(f"{status} congruence p={p} invariant_exponent={k} modulus={params.n ** 2}")
            if not ok:
                failures += 1
        p += 2
    print(f"congruence: {count - failures}/{count} primes verified (p <= {args.max_prime})")
    return 1 if failures else 0


def _verify_cancellation(args) -> int:
    from . import tate_engine
    params = mod_arith.height_params(args.prime)
    failures = 0
    for group in tate_engine.GROUPS:
        record = tate_engine.run_to_einfty(group, params)
        ok = record.einfty().is_empty()
        left = len(record.einfty().fundamental_domain())
        status = "PASS" if ok else "FAIL"
        print(f"{status} cancellation group={group} p={params.p} final_page_classes={left}")
        if not ok:
            failures += 1
    return 1 if failures else 0


def _degree_caps(args, params, ks) -> dict[int, int]:
    from . import verdicts
    return {k: verdicts.default_degree_cap(params, k) if args.max_degree is None else args.max_degree
            for k in ks}


def _verify_nilpotence(args) -> int:
    from . import verdicts
    params = mod_arith.height_params(args.prime)
    ks = [args.k] if args.k is not None else list(range(1, params.n))
    # only the JSON reports print Tate dimensions; the verdict needs freeness
    # alone.  Every report is built, from one freeness pass for all k, before
    # any line is printed, so that a k refused late leaves stdout empty
    reports = verdicts.nilpotence_reports(params, _degree_caps(args, params, ks), args.json)
    if args.json:
        import json
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            status = "PASS" if r.holds else "FAIL"
            print(f"{status} nilpotence p={params.p} k={r.k} max_degree={r.max_deg} windows={r.windows}")
    return 1 if any(not r.holds for r in reports) else 0


def _verify_freeness(args) -> int:
    from . import verdicts
    params = mod_arith.height_params(args.prime)
    p = params.p
    ks = [args.k] if args.k is not None else list(range(0, params.n))
    caps = _degree_caps(args, params, ks)
    # the degrees d <= max_deg with d mod p > k, free by the pattern: U_n
    # has none, and free_flags_by_k refuses a huge max_deg on any other level
    flags = verdicts.free_flags_by_k(params, {k: d if k < params.n else 0 for k, d in caps.items()})
    failures = 0
    for k, max_deg in caps.items():
        degrees = [d for d in range(len(flags[k])) if d % p > k]
        bad = [d for d in degrees if not flags[k][d]]
        status = "PASS" if not bad else "FAIL"
        print(
            f"{status} freeness p={p} k={k} degrees_checked={len(degrees)} "
            f"max_degree={max_deg}" + (f" failing={bad}" if bad else "")
        )
        failures += len(bad)
    return 1 if failures else 0


def cmd_verify(args) -> int:
    if args.max_degree is not None and args.max_degree < 1:
        raise InvalidInput(f"--max-degree must be at least 1, got {args.max_degree}")
    runner = {
        "congruence": _verify_congruence,
        "cancellation": _verify_cancellation,
        "nilpotence": _verify_nilpotence,
        "freeness": _verify_freeness,
    }[args.suite]
    return runner(args)


def cmd_sympow(args) -> int:
    import json
    from . import verdicts
    params = mod_arith.height_params(args.prime)
    # sympow answers up to the dense limit, though it builds at most the base degree
    dim = verdicts.symmetric_dimension(verdicts.level_vars(params, args.k), args.degree)
    if dim > verdicts.DENSE_LIMIT:
        raise ResourceGuard(f"sympow needs dimension <= {verdicts.DENSE_LIMIT}, but degree {args.degree} has "
                            f"dimension {dim}; `tatedual verify freeness` checks larger powers from ranks")
    profile = verdicts.jordan_profile(params, args.k, args.degree)
    tate = profile.tate_dim(params.p)
    out = {
        "p": params.p,
        "k": args.k,
        "degree": args.degree,
        "dimension": dim,
        "jordan": profile.to_json(),
        "tate": {"even_dim": tate, "odd_dim": tate},
        "free": profile.all_full(params.p),
    }
    print(json.dumps(out, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tatedual",
        description="Tate spectral sequence engine and duality shift calculator at height p-1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("shifts", help="print the duality shift table")
    s.add_argument("--prime", type=int, default=3)
    s.add_argument("--route", choices=("dual", "det", "both"), default="both")
    s.set_defaults(func=cmd_shifts)

    c = sub.add_parser("chart", help="render a spectral sequence page")
    c.add_argument("--group", choices=mod_arith.GROUPS, default="Cp")
    c.add_argument("--prime", type=int, default=3)
    c.add_argument("--page", type=int, default=2)
    c.add_argument("--window", type=int, nargs=4, metavar=("X0", "X1", "S0", "S1"))
    c.add_argument("--format", choices=mod_arith.FORMATS, default="ascii")
    c.add_argument("--out", default=None)
    c.add_argument("--overlay", action="store_true", help="strike classes killed on the way to the last page")
    c.set_defaults(func=cmd_chart)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=("cancellation", "nilpotence", "congruence", "freeness"))
    v.add_argument("--prime", type=int, default=3)
    v.add_argument("--max-prime", type=int, default=101, help="congruence suite upper bound")
    v.add_argument("--max-degree", type=int, default=None)
    v.add_argument("--k", type=int, default=None)
    v.add_argument("--json", action="store_true", help="emit the nilpotence reports as JSON")
    v.set_defaults(func=cmd_verify)

    y = sub.add_parser("sympow", help="Jordan profile and Tate cohomology of a symmetric power")
    y.add_argument("--prime", type=int, default=3)
    y.add_argument("--k", type=int, default=0)
    y.add_argument("--degree", type=int, required=True)
    y.set_defaults(func=cmd_sympow)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InvalidInput, ResourceGuard) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"VERIFICATION FAILED: {exc}")
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
