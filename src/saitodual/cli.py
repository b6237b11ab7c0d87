"""Command-line front end.

Subcommands: analyze, zeta, dual, roots, enumerate.  Every command takes
polynomial text (or a {"E": [[...]], "vars": [...]} matrix literal) and
supports --json; enumerate drives the batch verification harness.

Exit codes: 0 all checks passed; 1 input or usage error; 2 zeta-duality
failures; 3 root-duality failures; 4 resource bound hit (truncated run, or
more geometric roots than MAX_LISTED_ROOTS, of which only the count is
reported).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .enumeration import generate_corpus, run_batch
from .errors import SaitoDualError
from .groups import MAX_LISTED_ROOTS, root_count
from .polynomials import decompose, parse_polynomial
from .zeta import DualPair, verify_root_duality, verify_zeta_duality

TOOL_NAME = "saitodual"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_THEOREM = 2
EXIT_COROLLARY = 3
EXIT_RESOURCE = 4

# Ceiling for `enumerate --workers`: far above any useful pool on one
# machine, and low enough that a mistyped value cannot ask the OS for an
# unbounded number of processes.
MAX_WORKERS = 64


def _envelope(command, raw_input, result):
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "input": raw_input,
        "result": result,
    }


def _emit(payload, out_path=None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _print_matrix(e, indent="  "):
    width = max(len(str(x)) for row in e.rows for x in row)
    for row in e.rows:
        print(indent + "[" + " ".join(str(x).rjust(width) for x in row) + "]")


def _weights_line(ws):
    cw = ", ".join(str(w) for w in ws.canonical_weights)
    rw = ", ".join(str(w) for w in ws.reduced_weights)
    return (f"({cw}; {ws.canonical_degree})   gcd {ws.gcd_factor}   "
            f"reduced ({rw}; {ws.reduced_degree})")


def _group_json(p):
    return {
        "order": p.order,
        "invariantFactors": list(p.invariant_factors),
        "structure": p.structure_name(),
        "cyclic": p.is_cyclic,
        "generators": [str(g) for g in p.generators()],
    }


def cmd_analyze(args):
    pair = DualPair(parse_polynomial(args.polynomial))
    f, ft, p, p_t = pair.f, pair.ft, pair.group, pair.group_t
    ws, ws_t = f.weights, ft.weights
    dec = decompose(f)
    if args.json:
        result = {
            "polynomial": f.text(),
            "variables": list(f.variables),
            "E": [list(r) for r in f.exponents.rows],
            "weights": ws.to_json(),
            "decomposition": dec.to_json(f.variables),
            "group": _group_json(p),
            "transpose": {
                "polynomial": ft.text(),
                "E": [list(r) for r in ft.exponents.rows],
                "weights": ws_t.to_json(),
                "group": _group_json(p_t),
            },
        }
        _emit(_envelope("analyze", args.polynomial, result))
        return EXIT_OK
    print(f"polynomial:  {f.text()}")
    print(f"variables:   {', '.join(f.variables)}")
    print("exponent matrix:")
    _print_matrix(f.exponents)
    print(f"weights:     {_weights_line(ws)}")
    if dec.non_degenerate:
        for atom in dec.atoms:
            names = ", ".join(f.variables[i] for i in atom.indices)
            exps = ",".join(str(p_) for p_ in atom.exponents)
            suspect = "  [degenerate-suspect]" if atom.degenerate_suspect else ""
            print(f"block:       {atom.kind}({exps}) on ({names}){suspect}")
    else:
        print("block:       not a sum of loop/chain blocks")
    print(f"group:       {p.structure_name()} (order {p.order}, invariant "
          f"factors {', '.join(str(x) for x in p.invariant_factors)})")
    print("generators:  " + "; ".join(str(g) for g in p.generators()))
    print(f"transpose:   {ft.text()}")
    print(f"  weights:   {_weights_line(ws_t)}")
    print(f"  group:     {p_t.structure_name()} (order {p_t.order})")
    return EXIT_OK


def cmd_zeta(args):
    f = parse_polynomial(args.polynomial)
    report = DualPair(f).report
    if args.json:
        _emit(_envelope("zeta", args.polynomial, report.to_json()))
        return EXIT_OK
    print(f"polynomial:  {f.text()}")
    print(f"group:       {report.group.structure_name()} "
          f"(order {report.group.order})")
    print(f"equivariant: {report.equivariant.format()}")
    print(f"reduced:     {report.reduced.format()}")
    print(f"classical:   {report.classical.format()}")
    print("subset terms:")
    for t in report.subset_terms:
        names = ",".join(f.variables[i] for i in t.indices)
        sign = "+1" if t.coefficient > 0 else "-1"
        print(f"  I={{{names}}}: coefficient {sign}, isotropy order "
              f"{t.isotropy.order}, torus Euler {t.torus_euler}")
    return EXIT_OK


def cmd_dual(args):
    pair = DualPair(parse_polynomial(args.polynomial))
    f = pair.f
    report = verify_zeta_duality(pair)
    if args.json:
        _emit(_envelope("dual", args.polynomial,
                        report.to_json(include_reports=not report.equal)))
        return EXIT_OK if report.equal else EXIT_THEOREM
    print(f"polynomial:  {f.text()}")
    print(f"transpose:   {pair.ft.text()}")
    sign = "+1" if f.nvars % 2 == 0 else "-1"
    print(f"lhs (transposed reduced zeta): {report.lhs.format()}")
    print(f"rhs ({sign} * dual of reduced zeta): {report.rhs.format()}")
    print(f"duality:     {'PASS' if report.equal else 'FAIL'}")
    return EXIT_OK if report.equal else EXIT_THEOREM


def cmd_roots(args):
    pair = DualPair(parse_polynomial(args.polynomial))
    f, p, h = pair.f, pair.group, pair.monodromy
    ws = f.weights
    count = root_count(f, p)
    corollary = verify_root_duality(pair) if count else None
    listed = count <= MAX_LISTED_ROOTS
    roots = pair.roots if listed else None
    if args.json:
        result = {
            "polynomial": f.text(),
            "gcdFactor": ws.gcd_factor,
            "monodromy": str(h),
            "monodromyOrder": h.order,
            "group": _group_json(p),
            "roots": [str(r) for r in roots] if listed else None,
            "corollary": corollary.to_json() if corollary else None,
        }
        if not listed:
            result["rootCount"] = count
        _emit(_envelope("roots", args.polynomial, result))
    else:
        print(f"polynomial:  {f.text()}")
        print(f"group:       {p.structure_name()} (order {p.order}, "
              f"{'cyclic' if p.is_cyclic else 'not cyclic'})")
        print(f"monodromy:   {h} (order {h.order}), root degree "
              f"{ws.gcd_factor}")
        if count:
            print("roots:       " + ("; ".join(str(r) for r in roots)
                                     if listed else f"{count} (not listed)"))
            print(f"root duality: {'PASS' if corollary.equal else 'FAIL'} "
                  f"({corollary.lhs.format()} vs {corollary.rhs.format()})")
        else:
            print("roots:       none (symmetry group is not cyclic)")
    if not listed:
        print(f"note: {count} geometric roots exceed the listing bound "
              f"{MAX_LISTED_ROOTS}; only their count is reported",
              file=sys.stderr)
    if corollary is not None and not corollary.equal:
        return EXIT_COROLLARY
    return EXIT_OK if listed else EXIT_RESOURCE


def cmd_enumerate(args):
    if not 1 <= args.max_vars <= 8:
        raise SaitoDualError("--max-vars must be between 1 and 8")
    if not 2 <= args.max_exp <= 9:
        raise SaitoDualError("--max-exp must be between 2 and 9")
    for flag, value, least in (("--limit", args.limit, 0),
                               ("--sample", args.sample, 0),
                               ("--workers", args.workers, 1)):
        if value is not None and value < least:
            raise SaitoDualError(f"{flag} must be at least {least}")
    if args.workers > MAX_WORKERS:
        raise SaitoDualError(f"--workers must be at most {MAX_WORKERS}")
    corpus, truncated = generate_corpus(
        args.max_vars, args.max_exp, include_sums=args.sums,
        include_chains=not args.no_chains, include_loops=not args.no_loops,
        limit=args.limit, sample=args.sample, seed=args.seed)
    report = run_batch(corpus, workers=args.workers, truncated=truncated)
    bounds = {
        "maxVars": args.max_vars,
        "maxExp": args.max_exp,
        "includeSums": args.sums,
        "includeChains": not args.no_chains,
        "includeLoops": not args.no_loops,
        "limit": args.limit,
        "sample": args.sample,
        "seed": args.seed,
    }
    if args.json or args.out:
        result = {"bounds": bounds}
        result.update(report.to_json())
        _emit(_envelope("enumerate", bounds, result), args.out)
    else:
        print(f"polynomials:      {report.total}"
              + ("  (truncated)" if report.truncated else ""))
        print(f"zeta duality:     {report.theorem_pass} pass, "
              f"{report.theorem_fail} fail")
        print(f"root duality:     {report.corollary_checked} checked, "
              f"{report.corollary_pass} pass, {report.corollary_fail} fail")
        for entry in report.failures:
            print(f"FAIL [{entry['kind']}] {entry['polynomial']}")
    if report.theorem_fail:
        return EXIT_THEOREM
    if report.corollary_fail:
        return EXIT_COROLLARY
    if report.truncated:
        return EXIT_RESOURCE
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Exact-arithmetic toolkit for invertible polynomials: "
                    "symmetry groups, equivariant monodromy zeta functions, "
                    "and duality verification.")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_command(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("polynomial",
                         help="polynomial text or {\"E\": [[...]]} literal")
        cmd.add_argument("--json", action="store_true",
                         help="emit a JSON report")
        cmd.set_defaults(func=func)
        return cmd

    add_poly_command("analyze", cmd_analyze,
                     "weights, block structure, and symmetry groups")
    add_poly_command("zeta", cmd_zeta,
                     "equivariant and classical monodromy zeta functions")
    add_poly_command("dual", cmd_dual,
                     "check the equivariant zeta duality against the transpose")
    add_poly_command("roots", cmd_roots,
                     "geometric roots of the monodromy and their duality")

    enum = sub.add_parser("enumerate",
                          help="verify the dualities over an enumerated corpus")
    enum.add_argument("--max-vars", type=int, default=4)
    enum.add_argument("--max-exp", type=int, default=5)
    enum.add_argument("--sums", action="store_true",
                      help="include direct sums of blocks")
    enum.add_argument("--no-chains", action="store_true")
    enum.add_argument("--no-loops", action="store_true")
    enum.add_argument("--limit", type=int, default=None,
                      help="truncate the corpus after this many polynomials")
    enum.add_argument("--sample", type=int, default=None,
                      help="verify a seeded random subset of this size")
    enum.add_argument("--seed", type=int, default=0,
                      help="seed for --sample (default 0)")
    enum.add_argument("--workers", type=int, default=1,
                      help=f"verify in a pool of this many processes "
                           f"(1..{MAX_WORKERS}, default 1)")
    enum.add_argument("--json", action="store_true")
    enum.add_argument("--out", default=None, help="write the JSON report here")
    enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SaitoDualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
