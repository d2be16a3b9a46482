"""The monomial-key layout and jet-variable construction are private to
``algebra.py``.

Every other module reads a polynomial through ``monomials`` and
``split_linear``; none may reach into ``GradedPoly.terms`` or its
canonical ``sorted_terms()``.  ``grassmann.py`` is exempt: its ``.terms``
belong to its own ``GrassmannElement``.  No module imports a private
(``_``-prefixed) name from ``algebra.py``: the Grassmann oracle keeps its
own coefficient rule instead of sharing the ring's accumulation.  Every other module builds a jet
variable through ``jet()``, which validates the multi-index, never by
calling ``JetVariable(...)``.  No module but ``algebra.py`` splits a
polynomial with ``parity_part``: graded signs go through
``GradedPoly.involution``.  No module but ``variational.py`` builds the
objects a ``Lagrangian`` keeps (Euler-Lagrange expressions, source form,
Lepage equivalent, prolongations): the others read them from it.  In
``model.py`` one evaluator applies the index contraction rule:
``_Elaborator._level`` has one caller, ``_eval``, which evaluates identities
as well as the Lagrangian, lets and symmetries.  Outside ``algebra.py``,
``split_linear`` has two callers: ``gauge.collect_ghost_linear``, the one
ghost-jet split of the gauge and superpotential code, and
``noether_operator_from_density``, which reads an operator off its
antifield density.  Outside ``linsolve.py`` (``Fraction`` row operations),
no code folds a value into itself with ``+`` or ``-``: no ``x = x + ...``
(also as the body of a conditional expression) and no ``t[k] += ...``.
Sums of polynomials, forms and Grassmann elements go through
``GradedPoly.sum``, ``MixedForm.sum``, ``accumulate`` and
``GrassmannAlgebra.sum``, which build one term dict instead of copying the
growing sum at every step.  Every exactness decision (a d_H-exact form, a variational
symmetry, a weak-conservation witness) comes back as the one
``variational.ExactnessResult``: no other class has a ``status`` field.
No module but ``__init__.py``, which re-exports, imports a name that it
never reads.  No module imports ``dataclasses``, and importing
``vnoether.cli`` loads neither it nor the Grassmann oracle: every command
would pay for them at start-up.  ``src/`` holds no test-only surface:
every public function, class and method of ``src/vnoether`` is read
somewhere outside ``tests/`` -- in ``src/`` outside its own definition and
the ``__init__`` re-export, in ``demos/``, in ``perfbench/*.py`` or as a
``perfbench/layers.json`` target.  A test oracle lives in
``tests/helpers.py``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vnoether"
EXEMPT = {"algebra.py", "grassmann.py"}
PRIVATE = {"terms", "sorted_terms"}


def _tree(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _key_reads(path: Path) -> list:
    return [f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE]


def _private_algebra_imports(tree, name: str) -> list:
    return [f"{name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module == "vnoether.algebra"
                 or (node.level == 1 and node.module == "algebra"))
            for alias in node.names if alias.name.startswith("_")]


def _variable_builds(path: Path) -> list:
    return [f"{path.name}:{node.lineno} JetVariable(...)"
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "JetVariable"]


def _parity_splits(path: Path) -> list:
    return [f"{path.name}:{node.lineno} .parity_part(...)"
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "parity_part"]


BUILDERS = {"euler_lagrange", "euler_lagrange_form", "lepage_equivalent",
            "prolong"}


def _derived_builds(path: Path) -> list:
    return [f"{path.name}:{node.lineno} {name}(...)"
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Call)
            and (name := getattr(node.func, "id",
                                 getattr(node.func, "attr", None)))
            in BUILDERS]


def test_only_algebra_reads_monomial_keys():
    checked = sorted(p for p in SRC.glob("*.py") if p.name not in EXEMPT)
    assert len(checked) >= 8
    offenders = [hit for path in checked for hit in _key_reads(path)]
    assert not offenders, offenders


def test_no_module_imports_private_ring_names():
    checked = sorted(p for p in SRC.glob("*.py") if p.name != "algebra.py")
    assert len(checked) >= 9
    offenders = [hit for path in checked
                 for hit in _private_algebra_imports(_tree(path), path.name)]
    assert not offenders, offenders


def test_the_check_sees_private_ring_imports():
    sample = ast.parse("from .algebra import GradedPoly, _put\n"
                       "from vnoether.algebra import _canon\n"
                       "from .forms import _sort_contact\n"
                       "from ..algebra import _put\n")
    assert _private_algebra_imports(sample, "s") == ["s:1 _put", "s:2 _canon"]


def test_only_algebra_builds_jet_variables():
    checked = sorted(p for p in SRC.glob("*.py") if p.name != "algebra.py")
    assert len(checked) >= 9
    offenders = [hit for path in checked for hit in _variable_builds(path)]
    assert not offenders, offenders


def test_only_algebra_splits_by_parity():
    checked = sorted(p for p in SRC.glob("*.py") if p.name != "algebra.py")
    assert len(checked) >= 9
    offenders = [hit for path in checked for hit in _parity_splits(path)]
    assert not offenders, offenders


def test_only_the_lagrangian_builds_derived_objects():
    checked = sorted(p for p in SRC.glob("*.py") if p.name != "variational.py")
    assert len(checked) >= 9
    offenders = [hit for path in checked for hit in _derived_builds(path)]
    assert not offenders, offenders


def test_the_check_sees_key_reads():
    # the exempt ring module itself reads keys, so the scan is not vacuous
    assert _key_reads(SRC / "algebra.py")


def test_the_check_sees_variable_builds():
    assert _variable_builds(SRC / "algebra.py")


def test_the_check_sees_parity_splits():
    # the random generators of the tests project with parity_part
    assert _parity_splits(Path(__file__).resolve().parent / "helpers.py")


def test_the_check_sees_derived_builds():
    # the Lagrangian's cached properties call each builder
    assert {hit.split()[-1] for hit in _derived_builds(SRC / "variational.py")} \
        >= {f"{name}(...)" for name in BUILDERS}


def _level_callers(path: Path) -> list:
    return [fn.name for fn in ast.walk(_tree(path))
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "_level"]


def test_one_evaluator_applies_the_contraction_rule():
    assert _level_callers(SRC / "model.py") == ["_eval"]


def _split_callers(path: Path) -> list:
    return [f"{path.name}:{fn.name}" for fn in ast.walk(_tree(path))
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "split_linear"]


def test_one_ghost_jet_split():
    checked = sorted(p for p in SRC.glob("*.py") if p.name != "algebra.py")
    assert len(checked) >= 9
    callers = [hit for path in checked for hit in _split_callers(path)]
    assert sorted(callers) == ["gauge.py:collect_ghost_linear",
                               "gauge.py:noether_operator_from_density"]


FOLD_EXEMPT = {"linsolve.py"}


def _self_folds(tree, name: str) -> list:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            value = node.value
            if isinstance(value, ast.IfExp):
                value = value.body
            if (isinstance(value, ast.BinOp)
                    and isinstance(value.op, (ast.Add, ast.Sub))
                    and ast.unparse(value.left)
                    == ast.unparse(node.targets[0])):
                out.append(f"{name}:{node.lineno} {ast.unparse(node)}")
        elif (isinstance(node, ast.AugAssign)
              and isinstance(node.op, (ast.Add, ast.Sub))
              and isinstance(node.target, ast.Subscript)):
            out.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    return out


def test_polynomials_are_summed_by_the_one_fold():
    checked = sorted(p for p in SRC.glob("*.py") if p.name not in FOLD_EXEMPT)
    assert len(checked) >= 9
    offenders = [hit for path in checked
                 for hit in _self_folds(_tree(path), path.name)]
    assert not offenders, offenders


def test_the_check_sees_self_folds():
    # the exempt module folds, and each of the three shapes is seen
    assert _self_folds(_tree(SRC / "linsolve.py"), "linsolve.py")
    sample = ast.parse("out = out - p * q\n"
                       "t[k] = t[k] + v if k in t else v\n"
                       "t[k] += v\n"
                       "out = p + out\n")
    assert [hit.split()[0] for hit in _self_folds(sample, "s")] \
        == ["s:1", "s:2", "s:3"]


def _assigned(node) -> list:
    if isinstance(node, ast.AnnAssign):
        return [node.target]
    return node.targets if isinstance(node, ast.Assign) else []


def _status_classes(tree, name: str) -> list:
    """Classes with a ``status`` field: assigned or annotated in the class
    body, or set as ``self.status`` in one of its methods."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        own = {t.id for node in cls.body for t in _assigned(node)
               if isinstance(t, ast.Name)}
        own |= {t.attr for node in ast.walk(cls) for t in _assigned(node)
                if isinstance(t, ast.Attribute)
                and getattr(t.value, "id", None) == "self"}
        if "status" in own:
            out.append(f"{name}:{cls.name}")
    return out


def test_one_result_type_for_exactness_decisions():
    checked = sorted(SRC.glob("*.py"))
    assert len(checked) >= 10
    holders = [hit for path in checked
               for hit in _status_classes(_tree(path), path.name)]
    assert holders == ["variational.py:ExactnessResult"], holders


def test_the_check_sees_status_fields():
    sample = ast.parse("class A:\n    status: str\n"
                       "class B:\n    def __init__(self):\n"
                       "        self.status = 1\n"
                       "class C:\n    def f(self, status):\n"
                       "        step = {'status': status}\n")
    assert _status_classes(sample, "s") == ["s:A", "s:B"]


def _unused_imports(tree, name: str) -> list:
    """Names bound by an import (``__future__`` aside) that no ``Name``
    node of the module reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound.setdefault((alias.asname or alias.name).split(".")[0],
                                 node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name}:{line} {alias}" for alias, line in bound.items()
            if alias not in read]


def test_no_module_imports_an_unread_name():
    checked = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(checked) >= 10
    offenders = [hit for path in checked
                 for hit in _unused_imports(_tree(path), path.name)]
    assert not offenders, offenders


def test_the_check_sees_unused_imports():
    # the re-exporting package module reads none of its imports
    assert _unused_imports(_tree(SRC / "__init__.py"), "__init__.py")
    sample = ast.parse("from __future__ import annotations\n"
                       "import os.path\n"
                       "from .forms import MixedForm, contract as c\n"
                       "def f(x: MixedForm):\n"
                       "    return os.path\n")
    assert _unused_imports(sample, "s") == ["s:3 c"]


def _imports_of(tree, module: str) -> list:
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == module for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == module)]


def test_no_module_imports_dataclasses():
    checked = sorted(SRC.glob("*.py"))
    assert len(checked) >= 10
    offenders = [f"{path.name}:{line}" for path in checked
                 for line in _imports_of(_tree(path), "dataclasses")]
    assert not offenders, offenders


def test_the_check_sees_dataclass_imports():
    sample = ast.parse("import dataclasses\nfrom dataclasses import field\n"
                       "from .dataclasses import x\nimport os\n")
    assert _imports_of(sample, "dataclasses") == [1, 2]


def test_the_cli_loads_neither_dataclasses_nor_the_oracle():
    # a fresh interpreter without site hooks, so that only the package's
    # own imports count; the oracle still loads on first use
    code = ("import sys, vnoether.cli\n"
            "print(sorted({'dataclasses', 'vnoether.grassmann'}"
            " & set(sys.modules)))\n"
            "from vnoether import GrassmannAlgebra, GrassmannElement\n"
            "print(GrassmannAlgebra.__module__, GrassmannElement.__module__)\n")
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert run.stdout.splitlines() == [
        "[]", "vnoether.grassmann vnoether.grassmann"]


def _public_definitions(tree) -> list:
    """``(qualified name, first line, last line, is a method)`` of every
    function, class and method at module level or in a class body whose
    name has no leading underscore (so no dunder either); nested functions
    belong to their function."""
    out = []

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                if not node.name.startswith("_"):
                    out.append((prefix + node.name, first, node.end_lineno,
                                in_class))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.", True)

    visit(tree.body, "", False)
    return out


def _reads(tree) -> list:
    """``(name, line, through an attribute)`` of every name the module
    loads, every attribute it reads and every name it imports.  The keys of
    a ``_COMMANDS`` table are read as the ``cmd_*`` methods the CLI looks
    up by name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno, False) for alias in node.names]
        elif isinstance(node, ast.Assign) \
                and getattr(node.targets[0], "id", None) == "_COMMANDS":
            out += [("cmd_" + key.value.replace("-", "_"), node.lineno, True)
                    for key in node.value.keys]
    return out


def _outside_reads() -> set:
    """``(name, through an attribute)`` read by the demos and the benchmark:
    its scripts and the functions ``layers.json`` traces."""
    paths = sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    out = {(name, attr) for path in paths
           for name, _, attr in _reads(_tree(path))}
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    for layer in layers["layers"]:
        for target in layer["spans"].values():
            for part in target.split(":")[1].split("."):
                out |= {(part, False), (part, True)}
    return out


def _test_only_names(trees: dict, outside: set) -> list:
    """``module:qualified name`` of each public definition in ``trees``
    (module name -> tree) that nothing reads: no read in ``outside`` and
    none in a module of ``trees`` other than ``__init__.py``, outside the
    definition's own lines.  A method counts as read only through an
    attribute."""
    reads = [(name, module, line, attr)
             for module, tree in trees.items() if module != "__init__.py"
             for name, line, attr in _reads(tree)]
    out = []
    for module, tree in trees.items():
        for qualname, first, last, method in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            kinds = (True,) if method else (False, True)
            if any((name, kind) in outside for kind in kinds):
                continue
            if not any(read == name and attr in kinds
                       and not (where == module and first <= line <= last)
                       for read, where, line, attr in reads):
                out.append(f"{module}:{qualname}")
    return out


def _src_trees() -> dict:
    return {path.name: _tree(path) for path in sorted(SRC.glob("*.py"))}


def test_src_defines_no_test_only_name():
    trees = _src_trees()
    assert len(trees) >= 11
    offenders = _test_only_names(trees, _outside_reads())
    assert not offenders, offenders


def test_the_check_sees_test_only_names():
    # planted names that only tests could read: a function that calls only
    # itself, a method that reads only itself and a function whose only
    # read is the package re-export; a private name and a dunder are not
    # surface, and a method read by another one of its class is read
    trees = _src_trees()
    trees["planted.py"] = ast.parse(
        "def planted(n):\n"
        "    return planted(n - 1) if n else 0\n"
        "class Planted:\n"
        "    def kept(self):\n"
        "        return 1\n"
        "    def own(self):\n"
        "        return self.own\n"
        "    def __repr__(self):\n"
        "        return repr(self.kept())\n"
        "def _private():\n"
        "    return Planted()\n"
        "def exported():\n"
        "    return 1\n")
    trees["__init__.py"] = ast.parse(
        "from .planted import exported\n"
        + ast.unparse(trees["__init__.py"]))
    assert _test_only_names(trees, _outside_reads()) == [
        "planted.py:planted", "planted.py:Planted.own",
        "planted.py:exported"]
    # the CLI's commands are read through _COMMANDS only
    assert "cmd_verify" in {name for name, _, _ in _reads(trees["cli.py"])}
