"""Command-line interface: map generation, polynomial computation,
bijection round trips, series expansion, closed formulas and the
verification suites.

Exit codes: 0 all checks pass / command succeeded, 1 a check failed, bad
formula arguments or the reader closed the output, 2 unknown family,
equation, formula or suite, or an invalid size, order or parameter, 3
malformed map file, 4 generation cap or `tutte` map size cap exceeded
(checked before any work starts).
Output is byte-deterministic for fixed inputs and flags.  Every command
but verify computes its result once and hands _emit three views of it,
which prints the one the flags ask for: one line of JSON, a CSV header and
rows, or plain lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from tuttelab.maps import MapError, RootedMap

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_BAD_FILE = 3
EXIT_CAP = 4

# Largest map `tutte` accepts: its subset expansion visits 2^e edge subsets,
# a few seconds at 20 edges.
TUTTE_CAP = 20

# What a command's cap bounds, for the error message: the `tutte` cap bounds
# the input map, every other cap bounds what would be generated.
_CAP_KIND = {"tutte": "size"}


# gen's family names -> their names in generate.FAMILIES
_GEN_FAMILIES = {
    "maps": "all_maps",
    "bipartite": "bipartite_maps",
    "quadrangulations": "quadrangulations",
    "four_valent": "four_valent",
    "near_triangulations": "near_triangulations",
    "eulerian_near_triangulations": "eulerian_near_triangulations",
    "non_separable_near_triangulations": "non_separable_near_triangulations",
}


def _add_format_flags(parser):
    g = parser.add_mutually_exclusive_group()
    g.add_argument("--json", action="store_true",
                   help="emit JSON instead of plain text")
    g.add_argument("--csv", action="store_true",
                   help="emit CSV instead of plain text")


def _quoted(value) -> str:
    """A CSV field in double quotes, inner quotes doubled."""
    return '"' + str(value).replace('"', '""') + '"'


def _emit(args, obj, header, rows, lines) -> None:
    """Print the view of one result that the flags ask for: obj(), its
    JSON value, on one line; the CSV header, then the rows, whose fields
    are written as they are (quoted already where they need it); or the
    plain lines."""
    if args.json:
        lines = [json.dumps(obj())]
    elif args.csv:
        print(header)
        lines = (",".join(map(str, row)) for row in rows)
    sys.stdout.writelines(f"{line}\n" for line in lines)


def cmd_gen(args) -> int:
    from tuttelab.generate import stream
    if args.family not in _GEN_FAMILIES:
        print(f"unknown family {args.family!r}; known: "
              + ", ".join(sorted(_GEN_FAMILIES)), file=sys.stderr)
        return EXIT_UNKNOWN
    if args.n < 0:
        print(f"--n must be nonnegative (got {args.n})", file=sys.stderr)
        return EXIT_UNKNOWN
    maps = stream(_GEN_FAMILIES[args.family], args.n)
    if args.count_only:  # counted as generated: none is kept
        count = sum(1 for _ in maps)
        _emit(args, lambda: {"family": args.family, "n": args.n,
                             "count": count},
              "family,n,count", [(args.family, args.n, count)], [count])
        return EXIT_OK
    maps = sorted(maps, key=lambda m: m.code)
    # the atomic map has no root dart: its root field is empty
    _emit(args, lambda: [m.to_json_obj() for m in maps], "alpha,sigma,root",
          ((" ".join(map(str, m.alpha)), " ".join(map(str, m.sigma)),
            "" if m.root is None else m.root) for m in maps),
          (m.to_json() for m in maps))
    return EXIT_OK


def cmd_tutte(args) -> int:
    from tuttelab import potts
    from tuttelab.generate import CapExceeded
    try:
        with open(args.mapfile) as fh:
            m = RootedMap.from_json(fh.read())
    except (OSError, ValueError, KeyError, MapError) as err:
        print(f"cannot read map file {args.mapfile!r}: {err}",
              file=sys.stderr)
        return EXIT_BAD_FILE
    if m.n_edges > TUTTE_CAP:
        raise CapExceeded(f"tutte cap is {TUTTE_CAP} edges "
                          f"(asked for {m.n_edges})")
    if args.special:
        rows = sorted((k, str(v)) for k, v in potts.specializations(m).items())
    elif args.potts:
        rows = [("potts", str(potts.potts(m)))]
    else:
        rows = [("tutte", str(potts.tutte(m)))]
    _emit(args, lambda: dict(rows), "name,value",
          ((k, _quoted(v)) for k, v in rows), (f"{k}: {v}" for k, v in rows))
    return EXIT_OK


def cmd_bijection(args) -> int:
    from tuttelab.generate import LIST_CAP, CapExceeded
    from tuttelab.verify import ROUNDTRIPS, ising_identity
    name, k = args.name, args.max_size
    if name not in ROUNDTRIPS:
        print(f"unknown bijection {name!r}; known: "
              + ", ".join(sorted(ROUNDTRIPS)), file=sys.stderr)
        return EXIT_UNKNOWN
    if k < 0:
        print(f"--max-size must be nonnegative (got {k})", file=sys.stderr)
        return EXIT_UNKNOWN
    if name != "ising" and k > LIST_CAP:  # ising clamps its sizes instead
        raise CapExceeded(f"{name} round trips are capped at size "
                          f"{LIST_CAP} (asked for {k})")
    sizes = {"mullin": range(k + 1), "ising": range(1, min(k, 3) + 1)}
    checks = [(ROUNDTRIPS[name], n) for n in sizes.get(name, range(1, k + 1))]
    if name == "ising":
        checks.append((ising_identity, min(k, 4)))
    found = (check(n)[1] for check, n in checks)
    counterexample = next((c for c in found if c is not None), None)
    ok = counterexample is None
    _emit(args, lambda: {"bijection": name, "max_size": k, "pass": ok,
                         "counterexample": counterexample},
          "bijection,max_size,pass,counterexample",
          [(name, k, "pass" if ok else "FAIL", _quoted(counterexample or ""))],
          [f"{name} round trips up to size {k}: "
           + ("pass" if ok else f"FAIL ({counterexample})")])
    return EXIT_OK if ok else EXIT_FAIL


def _parse_set(text):
    """{var: Fraction} from --set var=value,...; an item with no "=", a var
    set twice or a value that Fraction cannot read is refused, by name."""
    params = {}
    for item in text.split(",") if text else ():
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq:
            raise ValueError(f"bad --set item {item!r} (want var=value)")
        if name in params:
            raise ValueError(f"bad --set item {item!r} ({name} set twice)")
        try:
            params[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad --set item {item!r} (the value is not a "
                             "rational number)") from None
    return params


def cmd_series(args) -> int:
    from tuttelab.equations import EquationId, expand
    try:
        eq = EquationId[args.eq]
    except KeyError:
        print(f"unknown equation {args.eq!r}; known: "
              + ", ".join(e.name for e in EquationId), file=sys.stderr)
        return EXIT_UNKNOWN
    try:
        series = expand(eq, args.order, _parse_set(args.set) or None)
    except (ValueError, ZeroDivisionError) as err:
        # bad --set, --order or parameter name, or a zero parameter that
        # the equation divides by
        print(str(err), file=sys.stderr)
        return EXIT_UNKNOWN
    rows = [(f"{series.var}^{n}", str(series.coeff(n)))
            for n in range(args.order + 1)]
    _emit(args, lambda: {"equation": eq.name, "var": series.var,
                         "order": args.order, "coefficients": dict(rows)},
          "power,coefficient", ((k, _quoted(v)) for k, v in rows),
          (f"{k}: {v}" for k, v in rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    from tuttelab import verify
    try:
        results = verify.run(args.suites or None)
    except KeyError as err:
        print(f"{err.args[0]}; known suites: all, "
              + ", ".join(verify.SUITES), file=sys.stderr)
        return EXIT_UNKNOWN
    fmt = "json" if args.json else "csv" if args.csv else "plain"
    sys.stdout.write(verify.format_report(results, fmt))
    return EXIT_OK if verify.all_pass(results) else EXIT_FAIL


def cmd_formula(args) -> int:
    from tuttelab.closed_forms import closed_form
    try:
        value = closed_form(args.name, *args.args)
    except KeyError as err:
        print(str(err.args[0]), file=sys.stderr)
        return EXIT_UNKNOWN
    except (TypeError, ValueError) as err:
        print(f"bad arguments: {err}", file=sys.stderr)
        return EXIT_FAIL
    _emit(args, lambda: {"formula": args.name, "args": args.args,
                         "value": str(value)},
          "formula,args,value",
          [(args.name, " ".join(map(str, args.args)), value)], [value])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tuttelab",
        description="Exact enumeration of rooted planar maps: generation, "
                    "Potts/Tutte polynomials, bijections, series, formulas "
                    "and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a map family")
    p.add_argument("family")
    p.add_argument("--n", type=int, required=True,
                   help="size parameter of the family")
    p.add_argument("--count-only", action="store_true")
    _add_format_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("tutte", help="polynomials of a map from a JSON file")
    p.add_argument("mapfile")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--potts", action="store_true")
    g.add_argument("--tutte", action="store_true")
    g.add_argument("--special", action="store_true",
                   help="spanning trees, chromatic polynomial, bipolar count")
    _add_format_flags(p)
    p.set_defaults(func=cmd_tutte)

    p = sub.add_parser("bijection", help="bijection round-trip checks")
    p.add_argument("mode", choices=["roundtrip"])
    p.add_argument("name")
    p.add_argument("--max-size", type=int, required=True)
    _add_format_flags(p)
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("series", help="expand a functional equation")
    p.add_argument("mode", choices=["expand"])
    p.add_argument("--eq", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--set", default="",
                   help="parameter values, e.g. q=2,nu=5/2")
    _add_format_flags(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="*",
                   help="suite names, or 'all' (default)")
    _add_format_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("formula", help="evaluate a closed-form count")
    p.add_argument("name")
    p.add_argument("args", nargs="*", type=int)
    _add_format_flags(p)
    p.set_defaults(func=cmd_formula)

    return parser


def main(argv=None) -> int:
    from tuttelab.generate import CapExceeded
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader is met here, not at exit
        return code
    except CapExceeded as err:
        kind = _CAP_KIND.get(args.command, "generation")
        print(f"{kind} cap exceeded: {err}", file=sys.stderr)
        return EXIT_CAP
    except BrokenPipeError:
        # The reader closed the output: what is still buffered goes to
        # devnull, so that the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
