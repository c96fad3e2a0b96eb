"""Command-line interface.

Every subcommand takes `--n` (the rank, a per-invocation flag) and
`--format text|json|latex`.  Exit codes: 0 on success, 1 on mathematical
failure (a verification suite that found violations, or an elimination that
hit its resource ceiling), 2 on usage errors.  In json mode the output is a
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

Each call imports only the modules its subcommand runs: at the top this
module imports only `serialize`, which writes the output, and `algebra` and
`basis`, which `serialize` loads anyway; each handler imports the engine
modules it calls.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import serialize
from .algebra import ClassVector
from .basis import MODE_PER_PAIR, MODES

SUITES = ("identities", "assoc", "pairing", "betti", "negativity")
ASSOC_SAMPLES = 10_000
ASSOC_SEED = 20240803


def _parse_index(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'L1,L2', got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}")


def _coeff_prefix(c: Fraction, star: str) -> str:
    return "" if c == 1 else f"{serialize.format_rational(c)}{star}"


def render_vector_text(v: ClassVector) -> str:
    parts = []
    for nu, d, c in v.flat_items():
        c = Fraction(c)
        qs = "" if d == 0 else ("q*" if d == 1 else f"q^{d}*")
        body = f"{qs}tau[{nu[0]},{nu[1]}]"
        if not parts:
            sign, mag = ("-", -c) if c < 0 else ("", c)
            parts.append(f"{sign}{_coeff_prefix(mag, '*')}{body}")
        else:
            sign, mag = ("-", -c) if c < 0 else ("+", c)
            parts.append(f"{sign} {_coeff_prefix(mag, '*')}{body}")
    return " ".join(parts) if parts else "0"


def _latex_rational(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def render_vector_latex(v: ClassVector) -> str:
    parts = []
    for nu, d, c in v.flat_items():
        c = Fraction(c)
        qs = "" if d == 0 else ("q\\," if d == 1 else f"q^{{{d}}}\\,")
        mag = -c if c < 0 else c
        coeff = "" if mag == 1 else f"{_latex_rational(mag)}\\,"
        body = f"{coeff}{qs}\\tau_{{({nu[0]},{nu[1]})}}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def _latex_table(rows) -> str:
    body = " \\\\\n".join(f"\\texttt{{{k}}} & {v}" for k, v in rows)
    return "\\begin{tabular}{ll}\n" + body + "\n\\end{tabular}"


def _emit(args, payload: dict, text_lines, latex: str):
    if args.format == "json":
        sys.stdout.write(serialize.canonical_dumps(payload))
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
    ast = parse_expression(args.expression)
    result = evaluate_expression(ast, lazy_table(args.n))
    payload = {"command": "mult", "n": args.n, "expression": args.expression,
               "terms": serialize.class_vector_terms(result)}
    _emit(args, payload, [render_vector_text(result)], render_vector_latex(result))
    return 0


def _cmd_pieri(args):
    from .pieri import pieri_tau1, pieri_tau11
    fn = pieri_tau1 if args.cls == "1" else pieri_tau11
    result = fn(args.n, args.with_index)
    payload = {"command": "pieri", "n": args.n, "class": args.cls,
               "with": list(args.with_index),
               "terms": serialize.class_vector_terms(result)}
    _emit(args, payload, [render_vector_text(result)], render_vector_latex(result))
    return 0


def _cmd_gw(args):
    from .basis import check_index
    from .ring import gw_constant, lazy_table
    for idx in (args.lam, args.mu, args.nu):
        check_index(args.n, idx)
    if args.d < 0:
        raise ValueError("q-exponent must be nonnegative")
    value = gw_constant(lazy_table(args.n), args.lam, args.mu, args.nu, args.d)
    payload = {"command": "gw", "n": args.n, "lambda": list(args.lam),
               "mu": list(args.mu), "nu": list(args.nu), "d": args.d,
               "value": serialize.format_rational(value)}
    _emit(args, payload, [serialize.format_rational(value)],
          _latex_rational(value))
    return 0


def _suite_checks(args, table):
    from .basis import betti_numbers, enumerate_degree, max_degree, top_class
    from .ring import (IDENTITY_PARTS, check_commutativity, has_negative_constant,
                       multiply, pairing_rank, verify_identities)
    n = args.n
    checks = []
    if args.suite == "identities":
        for part in IDENTITY_PARTS:
            rep = verify_identities(table, part)
            detail = f"{rep.checked} instances"
            if rep.counterexamples:
                detail += f"; first violation: {rep.counterexamples[0]}"
            checks.append({"name": part, "passed": rep.holds, "detail": detail})
    elif args.suite == "assoc":
        basis = table.basis
        if n <= 3:
            triples = [(x, y, z) for x in basis for y in basis for z in basis]
        else:
            import random
            rng = random.Random(ASSOC_SEED + n)
            triples = [tuple(rng.choice(basis) for _ in range(3))
                       for _ in range(ASSOC_SAMPLES)]
        bad = 0
        for x, y, z in triples:
            ex, ey, ez = (ClassVector.basis(n, i) for i in (x, y, z))
            left = multiply(table, multiply(table, ex, ey), ez)
            right = multiply(table, ex, multiply(table, ey, ez))
            if left != right:
                bad += 1
        kind = "exhaustive" if n <= 3 else f"{len(triples)} seeded samples"
        checks.append({"name": "associativity", "passed": bad == 0,
                       "detail": f"{kind}, {bad} violations"})
    elif args.suite == "pairing":
        for d in range(0, max_degree(n) + 1):
            rows = enumerate_degree(n, d)
            cols = enumerate_degree(n, max_degree(n) - d)
            full = len(rows) == len(cols) == pairing_rank(table, rows, cols)
            checks.append({"name": f"pairing-degree-{d}", "passed": full,
                           "detail": f"{len(rows)}x{len(cols)}"})
    elif args.suite == "betti":
        b = betti_numbers(n)
        sym = all(b[d] == b[max_degree(n) - d] for d in range(len(b)))
        checks.append({"name": "betti-symmetry", "passed": sym,
                       "detail": str(b)})
        checks.append({"name": "top-class-unique",
                       "passed": enumerate_degree(n, max_degree(n)) == [top_class(n)],
                       "detail": str(top_class(n))})
        size = len(table.basis)
        checks.append({"name": "unit-law",
                       "passed": all(table.terms((0, 0), lam) == {(lam, 0): 1}
                                     for lam in table.basis),
                       "detail": f"{size} classes"})
        checks.append({"name": "commutativity",
                       "passed": not check_commutativity(table),
                       "detail": f"{size * (size + 1) // 2} pairs, both orders"})
    elif args.suite == "negativity":
        found, witness = has_negative_constant(table)
        detail = "none found"
        if found:
            w = witness
            detail = (f"tau[{w['lambda'][0]},{w['lambda'][1]}]*"
                      f"tau[{w['mu'][0]},{w['mu'][1]}] has {w['coeff']} on "
                      f"q^{w['d']}*tau[{w['nu'][0]},{w['nu'][1]}]")
        checks.append({"name": "negative-constant-exists", "passed": found,
                       "detail": detail})
        clean = True
        for special in ((1, 0), (1, 1)):
            for lam in table.basis:
                if any(c < 0 for c in table.terms(special, lam).values()):
                    clean = False
        checks.append({"name": "special-rows-nonnegative", "passed": clean,
                       "detail": "tau[1,0] and tau[1,1] rows"})
    return checks


def _cmd_verify(args):
    from .ring import lazy_table
    checks = _suite_checks(args, lazy_table(args.n))
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


def _route_a(args, table, max_rows: int) -> dict:
    """Route A's result row, with its certificate written when asked for; its
    system and certificate are freed on return, before route B runs."""
    from .certify import certify_uniqueness
    from .proof import build_constraints, verify_certificate
    system = build_constraints(table, args.mode)
    cert = certify_uniqueness(system, max_rows=max_rows)
    verified = verify_certificate(system, cert)
    if args.emit_certificate:
        serialize.save_certificate(cert, system, args.emit_certificate)
    return {"method": "fm", "conclusion": cert.conclusion, "verified": verified,
            "unknowns": len(system.unknowns)}


def _cmd_certify(args):
    from .certify import DEFAULT_ROW_LIMIT, MismatchError, ResourceLimitError, replay_proof
    from .ring import lazy_table
    if args.emit_certificate and args.method == "replay":
        raise ValueError("--emit-certificate needs the fm method")
    max_rows = DEFAULT_ROW_LIMIT if args.max_rows is None else args.max_rows
    if max_rows < 1:
        raise ValueError(f"--max-rows must be at least 1, got {max_rows}")
    table = lazy_table(args.n)
    cert_path = args.emit_certificate or None
    results = []
    try:
        if args.method in ("fm", "both"):
            results.append(_route_a(args, table, max_rows))
        if args.method in ("replay", "both"):
            report = replay_proof(table)
            results.append({"method": "replay", "conclusion": report.conclusion,
                            "steps": len(report.steps),
                            "unknowns": len(report.unknowns)})
    except (ResourceLimitError, MismatchError) as exc:  # a mathematical failure: exit 1
        if args.format == "json":
            sys.stdout.write(serialize.canonical_dumps(
                {"command": args.command, "error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    agree = len({r["conclusion"] for r in results}) == 1
    payload = {"command": "certify", "n": args.n, "mode": args.mode,
               "method": args.method, "results": results, "agree": agree,
               "certificate": cert_path}
    text = [" / ".join(f"{r['conclusion']} ({r['method']})" for r in results)]
    if cert_path:
        text.append(f"certificate written to {cert_path}")
    if not agree:
        text.append("METHODS DISAGREE")
    latex = _latex_table([(r["method"], r["conclusion"]) for r in results])
    _emit(args, payload, text, latex)
    return 0 if agree else 1


def _cmd_check_positivity(args):
    from .basis import check_ring_rank
    from .deformation import check_positivity
    from .ring import lazy_table
    check_ring_rank(args.n)
    spec = serialize.load_spec(args.spec)
    if spec.n != args.n:
        raise ValueError(f"spec has n={spec.n}, invocation has n={args.n}")
    report = check_positivity(spec, lazy_table(args.n))
    payload = {"command": "check-positivity", "n": args.n, "mode": spec.mode,
               "passes": report.passes,
               "violations": [{"mu": list(mu), "nu": list(nu), "d": d,
                               "value": serialize.format_rational(v)}
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
    if args.revalidate and not args.load:
        raise ValueError("--revalidate needs --load: a built table is not revalidated")
    saved_to = args.out or (None if args.load else _default_cache_path(args.n))
    source = "loaded" if args.load else "built"
    if args.load:
        table = serialize.load_table(args.load)
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
    if saved_to:
        serialize.save_table(table, saved_to)
    payload = {"command": "table", "n": args.n, "source": source,
               "classes": len(table.basis), "products": table.stored_products(),
               "revalidated": args.revalidate, "saved_to": saved_to}
    text = [f"{source} table for n={args.n}: {len(table.basis)} classes, "
            f"{table.stored_products()} products"
            + (f", saved to {saved_to}" if saved_to else "")
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
        return args.handler(args)
    except (ValueError, OSError) as exc:  # an ExpressionSyntaxError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
