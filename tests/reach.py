"""Which functions of ``src/vnoether`` no command, demo or benchmark pass
reaches.

Usage (from the repository root)::

    python3 tests/reach.py

Under ``sys.setprofile`` it runs, in-process and with their output
discarded:

- every corpus command over ``models/``, ``tests/data/`` and
  ``perfbench/models/`` (``el`` and ``verify`` per model;
  ``check-identity``, ``gauge-symmetry`` and ``superpotential`` per
  identity; ``superpotential`` per symmetry), in JSON and in text, at the
  default jet cap and at ``--jet-cap 2``;
- the demos in ``demos/``;
- every operation of one ``graded_identities(1)`` pass of the benchmark.

It then prints each function (methods and nested functions included) that
never ran, with its line count, and the total.  A function is matched to
its code object by ``co_firstlineno``, which is the line of its first
decorator, so a function's lines run from its first decorator to its last
line.  The exit code is 1 when more than ``BOUND`` functions are
unreached, else 0: CI runs this script, so new code that nothing runs
fails there.  Lower ``BOUND`` when a change deletes unreached code.  Not
part of the Tier-1 suite.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vnoether"
MODEL_DIRS = ("models", "tests/data", "perfbench/models")
FORMATS = ("json", "text")
CAPS = ((), ("--jet-cap", "2"))
BOUND = 47  # the most unreached functions allowed


def functions() -> dict:
    """``(path, first line) -> (qualified name, line count)`` of every
    function in ``src/vnoether``, the first line counting decorators."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = f"{prefix}{child.name}"
                    out[(str(path), first)] = (
                        f"{path.name}:{name}", child.end_lineno - first + 1)
                    visit(child, f"{name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


def commands() -> list:
    """Every corpus command, as argv lists relative to the root."""
    from vnoether.model import parse
    out = []
    for folder in MODEL_DIRS:
        for path in sorted((ROOT / folder).glob("*.vln")):
            model = f"{folder}/{path.name}"
            declared = parse(path.read_text(encoding="utf-8"))
            out += [["el", model], ["verify", model]]
            for name in sorted(declared.identities):
                out += [[command, model, name] for command in
                        ("check-identity", "gauge-symmetry",
                         "superpotential")]
            out += [["superpotential", model, name]
                    for name in sorted(declared.symmetries)]
    return out


def sweep() -> int:
    """Run everything once; returns the number of runs."""
    from vnoether import cli
    runs = 0
    for argv in commands():
        for fmt in FORMATS:
            for cap in CAPS:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main([*argv, "--format", fmt, *cap])
                runs += 1
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
        runs += 1
    import graded
    for op in graded.graded_identities(1):
        op.execute(lambda record: None)
        runs += 1
    return runs


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    os.chdir(ROOT)
    table = functions()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    start = time.perf_counter()
    sys.setprofile(profile)
    try:
        runs = sweep()
    finally:
        sys.setprofile(None)
    unreached = sorted(key for key in table if key not in seen)
    for key in unreached:
        name, lines = table[key]
        print(f"{name} (line {key[1]}): {lines} lines")
    total = sum(table[key][1] for key in unreached)
    print(f"{runs} runs in {time.perf_counter() - start:.0f} s: "
          f"{len(unreached)} of {len(table)} functions unreached, "
          f"{total} lines")
    if len(unreached) > BOUND:
        print(f"more than {BOUND} functions unreached")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
