"""The expression language, programmatically and through the CLI.

Expressions combine integers, powers of q, and tau[a,b] factors with +, -,
* and parentheses.  The same computations are available as `osglines`
subcommands; every subcommand also has --format json (schema-validated) and
--format latex.
"""
from osglines import build_table, evaluate_expression, format_expression, parse_expression
from osglines.cli import main

table = build_table(3)
for src in ("tau[5,-1]*tau[2,1] + 2*q*tau[1,0]",
            "(tau[1,0] + tau[1,1])*tau[5,4]",
            "tau[5,-1]*tau[5,-1]"):
    ast = parse_expression(src)
    value = evaluate_expression(ast, table)
    print(f"{format_expression(ast)}  =  {value!r}")

print("\nthe same through the command line:")
for argv in (["mult", "--n", "3", "tau[5,-1]*tau[5,-1]"],
             ["gw", "--n", "3", "--lambda", "1,1", "--mu", "5,2",
              "--nu", "3,0", "--d", "1"],
             ["certify", "--n", "3", "--method", "both"]):
    print(f"$ osglines {' '.join(argv)}")
    main(argv)
