"""Outside-in span tracer for the vnoether layers.

The tracer wraps the functions named in ``layers.json`` without touching the
program's source.  A function is patched at every module binding that holds
it: the package imports names with ``from .x import f``, so
``variational.solve_sparse`` and ``superpotential.horizontal_antiderivative``
are separate bindings of one object and each must be replaced.  A method is
patched on its class, which every caller reaches through.  ``restore`` puts
every original object back.

Spans (name, start, end, parent span id) are kept in memory for one
operation; ``summary`` reduces them to per-name call counts and self time
(span time minus the time covered by its direct children), and
``write_spans`` appends them to a file.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

SPAN_FIELDS = ("op", "span", "parent", "name", "start_ns", "end_ns")


def _mul_counters(args, kwargs, result, counters):
    terms = getattr(result, "terms", None)
    if terms is not None:
        counters["algebra.mul.terms_out"] += len(terms)


def _solve_counters(args, kwargs, result, counters):
    names = ("rows", "rhs", "ncols")
    bound = dict(zip(names, args), **kwargs)
    rows = bound["rows"]
    counters["linsolve.unknowns"] += bound["ncols"]
    counters["linsolve.rows"] += len(rows)
    counters["linsolve.nonzeros"] += sum(len(r) for r in rows)
    counters["linsolve.solutions"] += result is not None


# Counters read from a call's arguments and result, keyed by span name.
COUNTERS = {
    "algebra.mul": _mul_counters,
    "linsolve.solve_sparse": _solve_counters,
}


def resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner, attribute name, object)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Patch the named targets and record spans while installed."""

    def __init__(self, targets: dict, groups: dict = None):
        # targets: span name -> "module:qualname"; groups: name -> span names
        # whose union of covered time is reported as one figure.
        self.targets = dict(targets)
        self.groups = dict(groups or {})
        self.names = list(self.targets)
        self.spans_path = None   # set to append each operation's spans
        self.op_index = 0
        self._patches = []
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._next_id = 0

    def _wrap(self, name_index: int, fn):
        tracer = self
        observe = COUNTERS.get(self.names[name_index])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, parent, name_index, start, end))
            if observe is not None:
                observe(args, kwargs, result, tracer.counters)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for index, name in enumerate(self.names):
            owner, attr, obj = resolve(self.targets[name])
            if isinstance(owner, type):
                self._patch(owner, attr, obj, self._wrap(index, obj))
            else:
                originals[id(obj)] = (obj, self._wrap(index, obj))
        # every module binding of a patched function, wherever it was imported
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: [calls, self_ns]; counters; covered time per group.
        Also appends the raw spans to ``spans_path`` when it is set."""
        if self.spans_path is not None:
            with open(self.spans_path, "a", encoding="utf-8") as fh:
                self.write_spans(fh)
        child_ns = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_name = {name: [0, 0] for name in self.names}
        for span_id, _, index, start, end in self.spans:
            entry = per_name[self.names[index]]
            entry[0] += 1
            entry[1] += end - start - child_ns[span_id]
        return {"spans": per_name, "counters": dict(self.counters),
                "covered_ns": {g: self.covered_ns(members)
                               for g, members in self.groups.items()}}

    def covered_ns(self, members) -> int:
        """Total duration of spans named in ``members`` that have no
        ancestor named in ``members``: the time the group covers."""
        wanted = {self.names.index(m) for m in members}
        info = {s[0]: s for s in self.spans}
        total = 0
        for span_id, parent, index, start, end in self.spans:
            if index not in wanted:
                continue
            while parent >= 0 and info[parent][2] not in wanted:
                parent = info[parent][1]
            if parent < 0:
                total += end - start
        return total

    def write_spans(self, fh) -> None:
        for span_id, parent, index, start, end in self.spans:
            fh.write(f"{self.op_index}\t{span_id}\t{parent}\t{self.names[index]}"
                     f"\t{start}\t{end}\n")
