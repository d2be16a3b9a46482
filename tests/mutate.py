"""Operator mutants of named functions, judged by the Tier-1 suite.

Usage (from the repository root)::

    python3 tests/mutate.py src/vnoether/forms.py MixedForm.horizontal_differential
    python3 tests/mutate.py src/vnoether/variational.py euler_lagrange \\
        --equivalent LINE:COL:END -- tests/test_variational.py

Inside the named functions every ``+`` and ``-`` is swapped for the other,
and so is every ``*`` and ``//`` (also as ``+=``, ``-=``, ``*=`` and
``//=``); every ``a ** e`` becomes ``a`` and every unary ``-`` is dropped;
every condition -- the test of an ``if``, a ``while`` or a conditional
expression, and each ``if`` filter of a comprehension -- becomes ``not
(...)``; every ``math.gcd`` or ``math.lcm`` call with two or more
arguments loses one of them; one site per mutant.  A method is named
``Class.method``; nested functions belong to the function around them.
An operator site is named LINE:COL:END: the line and column where the
operation starts and the column where it ends; a condition site is named
LINE:COL:END:not, after the condition it negates, and an argument site
LINE:COL:END:dropK, after the call and the position K of the argument it
drops.  Each mutant is written into a temporary copy
of the repository (under ``$TMPDIR``), where
``python -X dev -W error -m pytest -x -q`` runs on the paths after ``--``,
else on the whole suite.  The unmutated suite runs first, in the same
copy: it must pass within ``TIMEOUT`` seconds, else the exit code is 2.  A
failing run kills a mutant; a run past ``SLACK`` times the unmutated
suite's time (and at least ``MIN_TIMEOUT`` seconds) kills it too, reported
as "killed (timeout)", so a mutant that stops a loop advancing costs a few
suite runs, not ``TIMEOUT``.  A mutant that passes survives, unless
its site was listed with ``--equivalent`` as a change that cannot alter
any result: then it is reported as equivalent.  One line per site is
printed, then the score.  The exit code is 1 when a mutant survives, else
0 (2 when the unmutated suite fails, 3 when the functions hold no site).
Not part of the Tier-1 suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 "*.egg-info", "out", "build")
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add,
        ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult}
TIMEOUT = 600.0     # seconds allowed to the unmutated suite
SLACK = 5           # a mutant may take this many times the unmutated suite
MIN_TIMEOUT = 30.0  # seconds: the least time a mutant is given


def _functions(tree, names):
    """The function nodes named in ``names`` (``f`` or ``Class.f``)."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[f"{node.name}.{item.name}"] = item
    missing = sorted(set(names) - set(found))
    if missing:
        raise SystemExit(f"no such function: {', '.join(missing)}")
    return [found[name] for name in names]


def _is_site(node) -> bool:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return True
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return type(node.op) in SWAP
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)


def _where(node) -> tuple:
    return node.lineno, node.col_offset, node.end_col_offset


def _conditions(node) -> list:
    """The conditions that ``node`` holds: its test, or a comprehension's
    filters."""
    if isinstance(node, (ast.If, ast.While, ast.IfExp)):
        return [node.test]
    return list(node.ifs) if isinstance(node, ast.comprehension) else []


def _negated(where: tuple) -> tuple:
    return (*where, "not")


def _dropped(call) -> list:
    """The argument sites of a ``math.gcd`` or ``math.lcm`` call with two
    or more arguments, one per argument, else none."""
    func = call.func if isinstance(call, ast.Call) else None
    if not (isinstance(func, ast.Attribute) and func.attr in ("gcd", "lcm")
            and isinstance(func.value, ast.Name) and func.value.id == "math"
            and len(call.args) > 1):
        return []
    return [(*_where(call), f"drop{k}") for k in range(len(call.args))]


def sites(source: str, names) -> list:
    """``(function, where, text)`` of every site, in source order; ``where``
    is ``(line, col, end)`` for an operator and ``(line, col, end, "not")``
    for a condition."""
    out = []
    for fn in _functions(ast.parse(source), names):
        for node in ast.walk(fn):
            found = [(node, _where(node))] if _is_site(node) else []
            found += [(test, _negated(_where(test)))
                      for test in _conditions(node)]
            found += [(node.args[int(where[3][4:])], where)
                      for where in _dropped(node)]
            for site, where in found:
                text = ast.get_source_segment(source, site) or "?"
                if str(where[-1]).startswith("drop"):
                    text = f"drop {text}"
                out.append((fn.name, where, " ".join(text.split())[:60]))
    return sorted(set(out), key=lambda s: s[1])


class _Mutate(ast.NodeTransformer):
    def __init__(self, where: tuple):
        self.where = where
        self.done = False

    def _hit(self, node) -> bool:
        return _is_site(node) and _where(node) == self.where

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if self._hit(node):
            self.done = True
            if isinstance(node.op, ast.Pow):
                return node.left
            node.op = SWAP[type(node.op)]()
        return node

    visit_AugAssign = visit_BinOp

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if self._hit(node):
            self.done = True
            return node.operand
        return node

    def _negate(self, test):
        if _negated(_where(test)) != self.where:
            return test
        self.done = True
        return ast.UnaryOp(ast.Not(), test)

    def visit_If(self, node):
        self.generic_visit(node)
        node.test = self._negate(node.test)
        return node

    visit_While = visit_IfExp = visit_If

    def visit_Call(self, node):
        self.generic_visit(node)
        if self.where in _dropped(node):
            self.done = True
            del node.args[int(self.where[3][4:])]
        return node

    def visit_comprehension(self, node):
        self.generic_visit(node)
        node.ifs = [self._negate(test) for test in node.ifs]
        return node


def mutant(source: str, where: tuple) -> str:
    tree = _Mutate(where)
    out = ast.fix_missing_locations(tree.visit(ast.parse(source)))
    if not tree.done:
        raise ValueError(f"no site at {where}")
    return ast.unparse(out)


def run_suite(copy: Path, tests, timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        run = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest",
             "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "survived" if run.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Operator mutants of named functions, judged by Tier-1.")
    parser.add_argument("module", help="path of the module, e.g. "
                        "src/vnoether/forms.py")
    parser.add_argument("functions", nargs="+")
    parser.add_argument("--equivalent", action="append", default=[],
                        metavar="LINE:COL:END[:not|:dropK]",
                        help="a site whose mutant cannot change a result")
    argv = sys.argv[1:] if argv is None else list(argv)
    tests = argv[argv.index("--") + 1:] if "--" in argv else []
    args = parser.parse_args(argv[:len(argv) - len(tests)])
    module = Path(args.module).resolve()
    source = module.read_text(encoding="utf-8")
    equivalent = {tuple(int(x) if x.isdigit() else x
                        for x in site.split(":"))
                  for site in args.equivalent}
    found = sites(source, args.functions)
    if not found:
        print(f"no mutation site in {', '.join(args.functions)}",
              file=sys.stderr)
        return 3
    rel = module.relative_to(ROOT)
    counts = {}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / rel
        start = time.perf_counter()
        status = run_suite(copy, tests, TIMEOUT)
        elapsed = time.perf_counter() - start
        if status != "survived":
            print(f"the unmutated suite fails: {status} ({elapsed:.1f} s)",
                  file=sys.stderr)
            return 2
        timeout = max(SLACK * elapsed, MIN_TIMEOUT)
        print(f"unmutated suite: {elapsed:.1f} s; a mutant is killed after "
              f"{timeout:.1f} s", flush=True)
        for fn, where, text in found:
            target.write_text(mutant(source, where), encoding="utf-8")
            start = time.perf_counter()
            status = run_suite(copy, tests, timeout)
            if status == "survived" and where in equivalent:
                status = "equivalent"
            counts[status.split()[0]] = counts.get(status.split()[0], 0) + 1
            name = ":".join(map(str, where))
            print(f"{rel}:{name} {fn}: {text!r} -> {status} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
        target.write_text(source, encoding="utf-8")
    killed = counts.get("killed", 0)
    print(f"{len(found)} sites: {killed} killed, "
          f"{counts.get('survived', 0)} survived, "
          f"{counts.get('equivalent', 0)} equivalent")
    return 1 if counts.get("survived") else 0


if __name__ == "__main__":
    sys.exit(main())
