"""Command-line interface.

Every subcommand takes `--n` (the rank, a per-invocation flag) and
`--format text|json|latex`.  Exit codes: 0 on success, 1 on mathematical
failure (a verification suite that found violations, route A's elimination
hitting its resource ceiling, route B's deductions disagreeing with the
table (`MismatchError`), or `certify`'s two methods disagreeing), 2 on
usage errors, an empty PATH among them.  In json mode the output is a
single complete document, never a partial one; schema in
`schemas/cli_output.schema.json`.

Only `table` builds the full table; `mult`, `gw`, `verify`,
`check-positivity` and `certify` use a table that computes each product by
the Pieri recursion on first use (`ring.lazy_table`).  They check the rank,
a spec, an expression's syntax and `gw`'s indices before they build a
table; `mult` checks an expression's indices as it evaluates it, which is
at once too, since such a table costs only its basis.

The `table` subcommand caches multiplication tables as JSON.  With neither
`--out` nor `--load`, the environment variable OSG_CACHE_DIR names a
directory for a default cache file.

Each call imports only the modules its subcommand runs.  At the top this
module imports only `basis`, for the choices of its options, and writes its
json output itself; each handler imports the engine modules it calls,
`verify` the checks of a table, `suites`, and a command that reads or writes
a document or a list of terms the file codecs, `serialize`.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .basis import MODE_PER_PAIR, MODES, SUITES

TYPE_CHECKING = False  # the names below annotate; importing them would load the engine
if TYPE_CHECKING:
    from fractions import Fraction

    from .algebra import ClassVector


def _parse_index(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'L1,L2', got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}")


def _latex_rational(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def render_vector_latex(v: ClassVector) -> str:
    return v.write(lambda m: f"{_latex_rational(m)}\\,",
                   lambda d: "q\\," if d == 1 else f"q^{{{d}}}\\,",
                   lambda lam: f"\\tau_{{({lam[0]},{lam[1]})}}")


def _latex_table(rows) -> str:
    body = " \\\\\n".join(f"\\texttt{{{k}}} & {v}" for k, v in rows)
    return "\\begin{tabular}{ll}\n" + body + "\n\\end{tabular}"


def _emit(args, payload: dict, text_lines, latex: str):
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    elif args.format == "latex":
        sys.stdout.write(latex + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_basis(args):
    from .basis import enumerate_basis, enumerate_degree
    if args.degree is None:
        indices = enumerate_basis(args.n)
    else:
        indices = enumerate_degree(args.n, args.degree)
    payload = {"command": "basis", "n": args.n, "degree": args.degree,
               "count": len(indices), "indices": [list(i) for i in indices]}
    text = [f"tau[{a},{b}]  degree {a + b}" for a, b in indices]
    latex = ", ".join(f"\\tau_{{({a},{b})}}" for a, b in indices)
    _emit(args, payload, text, latex)
    return 0


def _cmd_mult(args):
    from .expr import evaluate_expression, parse_expression
    from .ring import lazy_table
    from .serialize import class_vector_terms
    ast = parse_expression(args.expression)
    result = evaluate_expression(ast, lazy_table(args.n))
    payload = {"command": "mult", "n": args.n, "expression": args.expression,
               "terms": class_vector_terms(result)}
    _emit(args, payload, [repr(result)], render_vector_latex(result))
    return 0


def _cmd_pieri(args):
    from .pieri import pieri_tau1, pieri_tau11
    from .serialize import class_vector_terms
    fn = pieri_tau1 if args.cls == "1" else pieri_tau11
    result = fn(args.n, args.with_index)
    payload = {"command": "pieri", "n": args.n, "class": args.cls,
               "with": list(args.with_index), "terms": class_vector_terms(result)}
    _emit(args, payload, [repr(result)], render_vector_latex(result))
    return 0


def _cmd_gw(args):
    from .algebra import format_rational
    from .basis import check_index
    from .ring import gw_constant, lazy_table
    for idx in (args.lam, args.mu, args.nu):
        check_index(args.n, idx)
    if args.d < 0:
        raise ValueError("q-exponent must be nonnegative")
    value = gw_constant(lazy_table(args.n), args.lam, args.mu, args.nu, args.d)
    payload = {"command": "gw", "n": args.n, "lambda": list(args.lam),
               "mu": list(args.mu), "nu": list(args.nu), "d": args.d,
               "value": format_rational(value)}
    _emit(args, payload, [format_rational(value)], _latex_rational(value))
    return 0


def _cmd_verify(args):
    from .ring import lazy_table
    from .suites import run_suite
    checks = run_suite(lazy_table(args.n), args.suite)
    passed = all(c["passed"] for c in checks)
    payload = {"command": "verify", "n": args.n, "suite": args.suite,
               "passed": passed, "checks": checks}
    text = [("ok   " if c["passed"] else "FAIL ") + c["name"]
            + (f"  ({c['detail']})" if c.get("detail") else "")
            for c in checks]
    text.append("passed" if passed else "FAILED")
    latex = _latex_table([(c["name"], "ok" if c["passed"] else "FAIL")
                          for c in checks])
    _emit(args, payload, text, latex)
    return 0 if passed else 1


def _route_a(args, table) -> dict:
    """Route A's result row, with its certificate written when asked for; its
    system and certificate are freed on return, before route B runs."""
    from .certify import DEFAULT_ROW_LIMIT, certify_uniqueness
    from .proof import build_constraints, verify_certificate
    system = build_constraints(table, args.mode)
    cert = certify_uniqueness(system, DEFAULT_ROW_LIMIT if args.max_rows is None
                              else args.max_rows)
    verified = verify_certificate(system, cert)
    if args.emit_certificate is not None:
        from .serialize import save_certificate
        save_certificate(cert, system, args.emit_certificate)
    return {"method": "fm", "conclusion": cert.conclusion, "verified": verified,
            "unknowns": len(system.unknowns)}


def _cmd_certify(args):
    from .ring import lazy_table
    if args.method == "replay" and (args.emit_certificate is not None
                                    or args.max_rows is not None):
        flag = "--emit-certificate" if args.emit_certificate is not None else "--max-rows"
        raise ValueError(f"{flag} needs the fm method")
    if args.max_rows is not None and args.max_rows < 1:
        raise ValueError(f"--max-rows must be at least 1, got {args.max_rows}")
    table = lazy_table(args.n)
    cert_path = args.emit_certificate
    results = []
    failures = ()  # the routes' exit-1 errors; each route is imported only when it runs
    try:
        if args.method in ("fm", "both"):
            from .certify import ResourceLimitError
            failures += (ResourceLimitError,)
            results.append(_route_a(args, table))
        if args.method in ("replay", "both"):
            from .replay import MismatchError, replay_proof
            failures += (MismatchError,)
            report = replay_proof(table)
            results.append({"method": "replay", "conclusion": report.conclusion,
                            "steps": len(report.steps),
                            "unknowns": len(report.unknowns)})
    except failures as exc:  # a mathematical failure: exit 1
        if args.format == "json":
            _emit(args, {"command": args.command, "error": str(exc)}, (), "")
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    agree = len({r["conclusion"] for r in results}) == 1
    payload = {"command": "certify", "n": args.n, "mode": args.mode,
               "method": args.method, "results": results, "agree": agree,
               "certificate": cert_path}
    text = [" / ".join(f"{r['conclusion']} ({r['method']})" for r in results)]
    if cert_path is not None:
        text.append(f"certificate written to {cert_path}")
    if not agree:
        text.append("METHODS DISAGREE")
    latex = _latex_table([(r["method"], r["conclusion"]) for r in results])
    _emit(args, payload, text, latex)
    return 0 if agree else 1


def _cmd_check_positivity(args):
    from .algebra import format_rational
    from .basis import check_ring_rank
    from .deformation import check_positivity
    from .ring import lazy_table
    from .serialize import load_spec
    check_ring_rank(args.n)
    spec = load_spec(args.spec)
    if spec.n != args.n:
        raise ValueError(f"spec has n={spec.n}, invocation has n={args.n}")
    report = check_positivity(spec, lazy_table(args.n))
    payload = {"command": "check-positivity", "n": args.n, "mode": spec.mode,
               "passes": report.passes,
               "violations": [{"mu": list(mu), "nu": list(nu), "d": d,
                               "value": format_rational(v)}
                              for mu, nu, d, v in report.violations]}
    if report.passes:
        text = ["passes: every coefficient is nonnegative"]
    else:
        text = [f"fails: {len(report.violations)} negative coefficients"]
        text += [f"  sigma[1,1]*sigma[{mu[0]},{mu[1]}] has {v} on "
                 f"q^{d}*sigma[{nu[0]},{nu[1]}]"
                 for mu, nu, d, v in report.violations[:10]]
    latex = _latex_table([("passes", str(report.passes)),
                          ("violations", str(len(report.violations)))])
    _emit(args, payload, text, latex)
    return 0


def _default_cache_path(n: int):
    cache_dir = os.environ.get("OSG_CACHE_DIR")
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, f"qh-table-n{n}.json")


def _cmd_table(args):
    from .ring import build_table, revalidate_table
    from .serialize import load_table, save_table
    if args.revalidate and args.load is None:
        raise ValueError("--revalidate needs --load: a built table is not revalidated")
    saved_to = (args.out if args.out is not None or args.load is not None
                else _default_cache_path(args.n))
    source = "loaded" if args.load is not None else "built"
    if args.load is not None:
        table = load_table(args.load)
        # the rank is checked before a revalidation recomputes anything or a
        # save writes anything
        if table.n != args.n:
            raise ValueError(f"table file has n={table.n}, invocation has n={args.n}")
        if args.revalidate:
            revalidate_table(table)
    elif saved_to is None:
        raise ValueError("need --out or --load (or set OSG_CACHE_DIR)")
    else:
        table = build_table(args.n)
    if saved_to is not None:
        save_table(table, saved_to)
    payload = {"command": "table", "n": args.n, "source": source,
               "classes": len(table.basis), "products": table.stored_products(),
               "revalidated": args.revalidate, "saved_to": saved_to}
    text = [f"{source} table for n={args.n}: {len(table.basis)} classes, "
            f"{table.stored_products()} products"
            + (f", saved to {saved_to}" if saved_to is not None else "")
            + (", revalidated" if args.revalidate else "")]
    latex = _latex_table([("classes", str(len(table.basis))),
                          ("products", str(table.stored_products()))])
    _emit(args, payload, text, latex)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osglines",
        description="Exact quantum cohomology of the odd symplectic "
                    "Grassmannian of lines IG(2, 2n+1).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True, metavar="N",
                       help="rank parameter of IG(2, 2n+1)")
        p.add_argument("--format", choices=("text", "json", "latex"),
                       default="text")
        return p

    p = common(sub.add_parser("basis", help="list basis indices"))
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(handler=_cmd_basis)

    p = common(sub.add_parser("mult", help="evaluate a class expression"))
    p.add_argument("expression", metavar="EXPR",
                   help="e.g. \"tau[1,0]*tau[2,1] + 2*q*tau[1,0]\"")
    p.set_defaults(handler=_cmd_mult)

    p = common(sub.add_parser("pieri", help="expand a special-class product"))
    p.add_argument("--class", dest="cls", choices=("1", "11"), required=True,
                   help="1 for tau[1,0], 11 for tau[1,1]")
    p.add_argument("--with", dest="with_index", type=_parse_index,
                   required=True, metavar="L1,L2")
    p.set_defaults(handler=_cmd_pieri)

    p = common(sub.add_parser("gw", help="one structure constant"))
    p.add_argument("--lambda", dest="lam", type=_parse_index, required=True)
    p.add_argument("--mu", type=_parse_index, required=True)
    p.add_argument("--nu", type=_parse_index, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_gw)

    p = common(sub.add_parser("verify", help="run an invariant suite"))
    p.add_argument("--suite", choices=SUITES, required=True)
    p.set_defaults(handler=_cmd_verify)

    p = common(sub.add_parser("certify", help="certify that positivity forces the "
                                              "trivial deformation"))
    p.add_argument("--mode", choices=MODES, default=MODE_PER_PAIR)
    p.add_argument("--method", choices=("fm", "replay", "both"), default="fm")
    p.add_argument("--emit-certificate", metavar="PATH", default=None)
    p.add_argument("--max-rows", type=int, default=None,
                   help="working-row ceiling for route A (sign propagation "
                        "with Farkas weights, falling back to FM for any "
                        "unknown it leaves open): bounds the initial "
                        "constraint count and every FM intermediate system")
    p.set_defaults(handler=_cmd_certify)

    p = common(sub.add_parser("check-positivity",
                              help="check a deformation against the "
                                   "positivity condition"))
    p.add_argument("--spec", required=True, metavar="PATH",
                   help="deformation JSON file")
    p.set_defaults(handler=_cmd_check_positivity)

    p = common(sub.add_parser("table", help="build or load a cached table"))
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--load", metavar="PATH", default=None)
    p.add_argument("--revalidate", action="store_true")
    p.set_defaults(handler=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest in ("spec", "out", "load", "emit_certificate"):  # every PATH option
            if getattr(args, dest, None) == "":
                raise ValueError(f"--{dest.replace('_', '-')} needs a PATH, got ''")
        return args.handler(args)
    except (ValueError, OSError) as exc:  # an ExpressionSyntaxError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
