"""Single-edit mutation probe: which edits of a function does the test suite miss?

    python3 tools/mutation_probe.py --work DIR --out RECORD.json \
        src/osglines/ring.py:MultiplicationTable._checked \
        src/osglines/pieri.py:_valid_terms

For each named function the probe makes every single-edit mutant of its
body (a comparison flipped, `and`/`or` swapped, a `not` dropped, `+`/`-`
swapped, an int constant moved by one, `return True`/`False` swapped, a
`raise` deleted), writes it into a copy of the repository under DIR, and
runs the tier-1 suite there with `-x`.  A mutant whose run fails is killed;
one whose run passes survives.  Only the mutated function's lines change:
it is re-printed from its syntax tree (so it loses its comments), and the
unmutated re-print is run first, so a failure is never the re-print's.
The record lists every mutant with its line, its edit, its outcome and the
first failing test.  Standard library only.
"""
from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench", "*.egg-info")

FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
        ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And}


def _edits(node):
    """(description, apply) for each single edit of `node` itself; `apply`
    mutates the node in place."""
    def setter(obj, attr, value):
        return lambda: setattr(obj, attr, value)

    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in FLIP:
                new = node.ops[:i] + [FLIP[type(op)]()] + node.ops[i + 1:]
                yield (f"{type(op).__name__} -> {FLIP[type(op)].__name__}",
                       setter(node, "ops", new))
    elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAP:
        yield (f"{type(node.op).__name__} -> {SWAP[type(node.op)].__name__}",
               setter(node, "op", SWAP[type(node.op)]()))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not dropped", None  # replaced in the parent: see `_mutants`
    elif isinstance(node, ast.Constant) and type(node.value) is bool:
        yield f"{node.value} -> {not node.value}", setter(node, "value", not node.value)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for step in (1, -1):
            yield f"{node.value} -> {node.value + step}", setter(node, "value", node.value + step)


def _mutants(func: ast.AST):
    """(line, description, mutated copy of func) for each single edit."""
    count = sum(1 for _ in ast.walk(func))
    for k in range(count):
        for j, (desc, _) in enumerate(_edits(list(ast.walk(func))[k])):
            mutant = copy.deepcopy(func)
            node = list(ast.walk(mutant))[k]
            if desc == "not dropped":
                _replace(mutant, node, node.operand)
            else:
                list(_edits(node))[j][1]()
            yield node.lineno, desc, mutant
    for k, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Raise):
            mutant = copy.deepcopy(func)
            target = list(ast.walk(mutant))[k]
            _replace(mutant, target, ast.Pass())
            yield node.lineno, "raise deleted", mutant


def _replace(tree, old, new):
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            if value is old:
                setattr(parent, field, new)
                return
            if isinstance(value, list) and any(v is old for v in value):
                setattr(parent, field, [new if v is old else v for v in value])
                return
    raise LookupError("node not in tree")


def _find(tree, qualname: str):
    node = tree
    for name in qualname.split("."):
        node = next(n for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == name)
    return node


def _spliced(lines: list, func, printed: ast.AST) -> str:
    """The file's text with func's lines replaced by `printed`, re-indented."""
    start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    body = textwrap.indent(ast.unparse(ast.fix_missing_locations(printed)),
                           " " * func.col_offset)
    return "".join(lines[:start]) + body + "\n" + "".join(lines[func.end_lineno:])


def _run(work: Path, timeout: float) -> tuple[str, str | None]:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"],
                              cwd=work, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed", "timeout"
    if proc.returncode == 0:
        return "survived", None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return "killed", failed.group(1) if failed else f"exit {proc.returncode}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("targets", nargs="+", metavar="FILE:QUALNAME")
    p.add_argument("--work", required=True, help="an empty directory for the copy")
    p.add_argument("--out", required=True, help="the JSON record to write")
    p.add_argument("--timeout", type=float, default=300.0, help="seconds per run")
    args = p.parse_args(argv)
    work = Path(args.work) / "repo"
    if work.exists():
        shutil.rmtree(work)
    shutil.copytree(ROOT, work, ignore=IGNORE)
    record = {"command": " ".join(["python3", "tools/mutation_probe.py", *args.targets]),
              "suite": "pytest -x -q (tier-1)", "targets": []}
    for target in args.targets:
        rel, qualname = target.split(":")
        path = work / rel
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        func = _find(ast.parse(text), qualname)
        path.write_text(_spliced(lines, func, func))
        baseline = _run(work, args.timeout)
        if baseline[0] != "survived":
            raise SystemExit(f"{target}: the unmutated re-print fails ({baseline[1]})")
        mutants = []
        for i, (line, desc, mutant) in enumerate(_mutants(func)):
            path.write_text(_spliced(lines, func, mutant))
            start = time.perf_counter()
            outcome, killed_by = _run(work, args.timeout)
            mutants.append({"id": f"{qualname}#{i}", "line": line, "edit": desc,
                            "source": lines[line - 1].strip(),
                            "outcome": outcome, "killed_by": killed_by,
                            "seconds": round(time.perf_counter() - start, 1)})
            print(json.dumps(mutants[-1]), flush=True)
        path.write_text(text)
        record["targets"].append({"target": target, "mutants": mutants,
                                  "survived": sum(m["outcome"] == "survived"
                                                  for m in mutants)})
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
