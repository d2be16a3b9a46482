"""Command-line driver.

Commands run the pipeline on a model file and emit a deterministic report:
``--format json`` produces byte-identical output for identical inputs
(timing goes to stderr in text mode and is omitted from the structured
report).  Exit codes: 0 all checks passed (or ``--help``), 1 mathematical
failure, 2 usage, parse or model error (a ``--jet-cap`` or
``VNOETHER_JET_CAP`` that is not a non-negative integer, a model file that
is not UTF-8, or a declared symmetry of mixed parity, too), 3 a jet
variable above ``--jet-cap``, 4 an internal self-check failed (an
``InternalError``: a constructed object failed its own exact re-check,
a fault in the program; stderr names the check, no traceback), 141 stdout
closed before the whole report or help text was written (a reader such as
``head`` quit, before the report or in the middle of it, with stdout
buffered or not; no traceback).

``getopt.gnu_getopt`` reads the command line against one table of
commands (no argparse); a usage error writes ``USAGE`` and the error to
stderr and returns 2.  A payload holds each polynomial as the
``GradedPoly`` itself.  ``_json`` writes the report byte for byte as
``json.dumps(report, sort_keys=True, indent=2)`` would for dicts with str
keys, lists, tuples, str, int, bool and None, with each ``GradedPoly`` as
``{"monomials": poly_to_data(p), "text": poly_text(p)}``; any other value
is a TypeError.  That polynomial text is one string, which
``algebra.poly_to_json`` writes straight from the terms, so no monomial
tree is built; text mode renders the same payload with ``poly_text``.  The
report's pieces are written to stdout one by one, never joined into one
copy.

Each exact check runs once per command, in the function that builds the
object it checks, and the CLI reports the results that come back:
``GaugeError.residual``, ``GaugeSymmetryResult.conservation``,
``SuperpotentialSplit.checks`` and ``.report``,
``SuperpotentialError.checks``.  A declared symmetry's current, or a
corrupted one, is checked by ``GaugeSymmetryResult.check`` before a split.
An identity that holds for want of content (Euler-Lagrange expressions
that vanish identically, or a zero Noether operator) is a failing
``nontrivial NAME`` step with a ``reason``, and its route stops there.

No command searches.  ``verify`` builds each weak-conservation witness from
the first variational formula, d_H J = u^A E_A; the divergence witness of a
declared symmetry and the antiderivative of the superpotential remainder
come from the homotopy operator.  Each is re-checked exactly.  The formula
is checked once per parity, at the universal field (``universal_residual``,
which covers every u), and each ``variational-formula NAME`` step reports
its parity's verdict.  The report's ``bound_exhausted`` key is always false
under ``format_version`` 1; it stays so that reports keep their bytes.
"""

from __future__ import annotations

import getopt
import io
import os
import sys
import time
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .algebra import (GradedPoly, InternalError, JetCapError, jet,
                      poly_to_json)
from .forms import UnsupportedDerivation
from .gauge import GaugeError, GaugeSymmetryResult, gauge_symmetry
from .model import ElaborationError, ParseError, load_model
from .render import poly_text
from .superpotential import SuperpotentialError, extract, ghosts_of
from .variational import (EXACT, Current, check_lepage,
                          is_variational_symmetry, noether_current,
                          symmetry_witness, universal_residual)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141   # 128 + SIGPIPE, what a shell reports for a closed pipe


USAGE = """\
usage: vnoether COMMAND MODEL [NAME] [OPTIONS]

commands:
  el MODEL                    Euler-Lagrange expressions per field
  check-identity MODEL NAME   verify a declared identity
  gauge-symmetry MODEL NAME   construct the gauge symmetry of an identity
  superpotential MODEL NAME   split the current of an identity or symmetry
  verify MODEL                run the full check suite on a model

options:
  --format text|json          report format (default text)
  --jet-cap N                 highest jet order, a non-negative integer
                              (default 6, or VNOETHER_JET_CAP)
  --field NAME                el only: report this field alone
  --debug-corrupt-current     superpotential only: inject a broken term
                              to exercise the checks
  -h, --help                  show this text
"""

# command -> (whether NAME follows MODEL, the options only it accepts)
_COMMANDS = {
    "el": (False, ("--field",)),
    "check-identity": (True, ()),
    "gauge-symmetry": (True, ()),
    "superpotential": (True, ("--debug-corrupt-current",)),
    "verify": (False, ()),
}
_OWN_OPTIONS = {opt for _, own in _COMMANDS.values() for opt in own}


class _Usage(Exception):
    pass


def _jet_cap(text: str) -> int:
    """``--jet-cap`` or ``VNOETHER_JET_CAP``: a non-negative integer."""
    if not text.isdecimal():
        raise _Usage(f"jet cap must be a non-negative integer, not {text!r}")
    return int(text)


def _parse(argv):
    """The command line as a namespace, or None for ``--help``; _Usage on
    an unknown command or option, a wrong number of positionals, an
    option of another command or a bad value."""
    try:
        opts, words = getopt.gnu_getopt(
            argv, "h", ["help", "format=", "jet-cap=", "field=",
                        "debug-corrupt-current"])
    except getopt.GetoptError as exc:
        raise _Usage(exc.msg) from None
    given = dict(opts)
    if "-h" in given or "--help" in given:
        return None
    if not words:
        raise _Usage("no command given")
    command, *positionals = words
    if command not in _COMMANDS:
        raise _Usage(f"unknown command {command!r}")
    takes_name, own = _COMMANDS[command]
    if len(positionals) != 1 + takes_name:
        raise _Usage(f"{command} takes MODEL{' NAME' if takes_name else ''}; "
                     f"{len(positionals)} given")
    for opt, _ in opts:
        if opt in _OWN_OPTIONS and opt not in own:
            raise _Usage(f"option {opt} does not apply to {command}")
    fmt = given.get("--format", "text")
    if fmt not in ("text", "json"):
        raise _Usage(f"--format must be text or json, not {fmt!r}")
    cap = given.get("--jet-cap")
    if cap is None:
        cap = os.environ.get("VNOETHER_JET_CAP", "6")
    return SimpleNamespace(
        command=command, model=positionals[0],
        name=positionals[1] if takes_name else None, format=fmt,
        jet_cap=_jet_cap(cap), field=given.get("--field"),
        debug_corrupt_current="--debug-corrupt-current" in given)


def _field_payload(items) -> list:
    return [{"field": sym.name, "expression": poly} for sym, poly in items]


def _el_payload(L, symbols) -> list:
    """E_A of each of ``symbols`` in symbol order, 0 if absent from L."""
    return _field_payload((sym, L.el.component(sym))
                          for sym in sorted(symbols, key=lambda s: s.sort_key))


def _current_payload(J: Current) -> list:
    return [{"mu": mu, "expression": J.component(mu)} for mu in range(J.dim)]


def _split_payload(split) -> dict:
    w_rows = []
    for (sym, index, mu), w in sorted(
            split.w_table.items(),
            key=lambda it: (it[0][0].sort_key, it[0][1], it[0][2])):
        w_rows.append({"field": sym.name, "index": list(index), "mu": mu,
                       "coefficient": w})
    u_rows = []
    for (nu, mu), poly in sorted(split.superpotential.components.items()):
        u_rows.append({"nu": nu, "mu": mu, "component": poly})
    witness_rows = []
    for (contact, horiz), poly in split.remainder_witness.sorted_components():
        witness_rows.append({"horizontal": list(horiz), "component": poly})
    return {"W": w_rows, "U": u_rows,
            "W_components": [{"mu": mu, "label": "W",
                              "expression": split.w_component(mu)}
                             for mu in range(split.dim)],
            "remainder_witness": witness_rows}


def _symmetry(model, name):
    """Declared symmetry ``name``; one of mixed parity has no prolongation
    and is a model error naming it."""
    ups = model.symmetries[name]
    try:
        ups.parity
    except UnsupportedDerivation as exc:
        raise ElaborationError(f"symmetry {name!r}: {exc}") from None
    return ups


class _Runner:
    def __init__(self, args):
        self.args = args
        self.steps = []

    def add(self, name: str, status: str, payload=None):
        step = {"name": name, "status": status}
        if payload is not None:
            step["payload"] = payload
        self.steps.append(step)

    def model(self):
        with open(self.args.model, "r", encoding="utf-8") as fh:
            text = fh.read()
        return load_model(text, jet_cap=self.args.jet_cap)

    def exit_code(self) -> int:
        if any(s["status"] == "fail" for s in self.steps):
            return EXIT_MATH
        return EXIT_OK

    # -- commands ------------------------------------------------------------

    def cmd_el(self):
        model = self.model()
        symbols = model.fields
        if self.args.field is not None:
            symbols = [s for s in symbols if s.name == self.args.field]
            if not symbols:
                raise _Usage(f"unknown field {self.args.field!r}")
        self.add("euler-lagrange", "pass",
                 _el_payload(model.lagrangian, symbols))

    def cmd_check_identity(self):
        model = self.model()
        name = self.args.name
        if name not in model.identities:
            raise _Usage(f"unknown identity {name!r}")
        if self._vacuous(model, name):
            return
        self._residual(f"identity {name}", model.identities[name].contraction(
            model.lagrangian.el, model.jet_cap))

    def _vacuous(self, model, name) -> bool:
        """Record ``nontrivial NAME: fail`` and give True when identity
        ``name`` holds for want of content: the Euler-Lagrange expressions
        vanish identically, or its Noether operator is zero, the only way
        to a zero gauge symmetry (``adjoint`` re-checks its involution)."""
        if model.lagrangian.el.is_zero():
            reason = "the Euler-Lagrange expressions vanish identically"
        elif not model.identities[name].coefficients:
            reason = "the Noether operator is zero"
        else:
            return False
        self.add(f"nontrivial {name}", "fail", {"reason": reason})
        return True

    def _residual(self, step, residual):
        """Record ``step`` from the residual of a check made elsewhere: it
        passes when the residual is None or zero."""
        if residual is None or residual.is_zero():
            self.add(step, "pass")
        else:
            self.add(step, "fail", {"residual": residual})

    def _gauge(self, model, name):
        """gauge_symmetry on identity ``name``, which evaluates the identity
        once (op.contraction does for a ghost-less one).  A vacuous or
        failing identity records its step and gives None; a ghost-less
        identity that holds is a usage error."""
        op, ghost = model.identities[name], model.ghost_of(name)
        if self._vacuous(model, name):
            return None
        if ghost is not None:
            try:
                return gauge_symmetry(op, ghost, model.lagrangian)
            except GaugeError as exc:
                if exc.residual is None:
                    raise
        elif op.contraction(model.lagrangian.el, model.jet_cap).is_zero():
            raise _Usage(f"identity {name!r} has no declared ghost")
        self.add(f"identity {name}", "fail",
                 {"reason": "identity does not hold; refusing"})
        return None

    def cmd_gauge_symmetry(self):
        model = self.model()
        name = self.args.name
        if name not in model.identities:
            raise _Usage(f"unknown identity {name!r}")
        result = self._gauge(model, name)
        if result is None:
            return
        self.add(f"identity {name}", "pass")
        self.add("gauge-symmetry", "pass",
                 {"components": _field_payload(result.symmetry.vertical),
                  "sigma": _current_payload(result.current)})

    def cmd_superpotential(self):
        model = self.model()
        name = self.args.name
        L = model.lagrangian
        if name in model.identities:
            result = self._gauge(model, name)
            if result is None:
                return
        elif name in model.symmetries:
            u = _symmetry(model, name)
            sym_result = is_variational_symmetry(u, L)
            if sym_result.status != EXACT:
                self.add(f"symmetry {name}", "fail",
                         {"reason": "not a variational symmetry"})
                return
            result = GaugeSymmetryResult.check(
                u, noether_current(u, L, sym_result), L)
        else:
            raise _Usage(f"unknown identity or symmetry {name!r}")
        ghosts = ghosts_of(result.symmetry)
        if self.args.debug_corrupt_current and ghosts:
            J = result.current
            broken = {**J.components,
                      0: J.component(0) + GradedPoly.variable(jet(ghosts[0]))}
            result = GaugeSymmetryResult.check(
                result.symmetry, Current(broken, J.dim), L)
        self.add("current", "pass", _current_payload(result.current))
        self._split(result, L)

    def cmd_verify(self):
        model = self.model()
        L = model.lagrangian
        self.add("lepage", "pass" if check_lepage(L) else "fail")
        self.add("euler-lagrange", "pass", _el_payload(L, model.fields))
        holds = cache(  # parity -> the formula holds at the universal field
            lambda parity: universal_residual(L, parity).is_zero())
        for name, op in sorted(model.identities.items()):
            ghost = model.ghost_of(name)
            if self._vacuous(model, name):
                continue
            if ghost is None:
                self._residual(f"identity {name}",
                               op.contraction(L.el, model.jet_cap))
                continue
            try:
                result = gauge_symmetry(op, ghost, L)
            except GaugeError as exc:
                if exc.residual is None:
                    raise
                self._residual(f"identity {name}", exc.residual)
                continue
            self.add(f"identity {name}", "pass")
            self.add(f"variational-formula {name}",
                     "pass" if holds(result.symmetry.parity) else "fail")
            self._residual(f"weak-conservation {name}",
                           result.conservation.residual)
            self._split(result, L, name)
        for name in sorted(model.symmetries):
            ups = _symmetry(model, name)
            self.add(f"variational-formula {name}",
                     "pass" if holds(ups.parity) else "fail")
            sym_result = is_variational_symmetry(ups, L)
            self.add(f"symmetry {name}",
                     "pass" if sym_result.status == EXACT else "fail")
            if sym_result.status == EXACT:
                current = noether_current(ups, L, sym_result)
                self._residual(f"weak-conservation {name}", symmetry_witness(
                    ups, current, L.el, L.jet_cap).residual)

    def _split(self, result, L, name=None):
        """Split ``result.current`` as W + div U and record the checks
        extract ran (structural equations, verify_split) and d_mu d_nu
        U^{nu mu} = 0.  Under verify (``name`` given) the structural
        equations get a step of their own, when they ran, and the split
        step carries only the checks.  A SuperpotentialError is a fail
        naming its reason and equation."""
        try:
            split = extract(result, L)
        except SuperpotentialError as exc:
            split, checks = None, exc.checks
            failure = {"reason": str(exc), "equation": exc.tag}
        else:
            checks = split.checks
        step = "superpotential" if name is None else f"superpotential {name}"
        if name is not None and checks is not None:
            bad = [c.tag for c in checks if not c.ok]
            self.add(f"structural-equations {name}",
                     "fail" if bad else "pass",
                     {"failing": bad} if bad else None)
        if split is None:
            self.add(step, "fail", failure)
            return
        dd = Current({mu: split.superpotential.divergence(mu, L.jet_cap)
                      for mu in range(L.dim)}, L.dim).divergence(L.jet_cap)
        ok = all(split.report.values()) and dd.is_zero()
        payload = ({"checks": split.report} if name is not None
                   else dict(_split_payload(split), checks=split.report))
        self.add(step, "pass" if ok else "fail", payload)


def main(argv=None) -> int:
    """Run one command; exact coefficients print in full, so the int/str
    digit limit, where there is one, is lifted until return."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Usage as exc:
        sys.stderr.write(f"{USAGE}\nerror: {exc}\n")
        return EXIT_USAGE
    if args is None:
        return _emit([USAGE], EXIT_OK)
    runner = _Runner(args)
    start = time.monotonic()
    try:
        getattr(runner, "cmd_" + args.command.replace("-", "_"))()
    except (_Usage, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ElaborationError, UnicodeDecodeError) as exc:
        print(f"error: {args.model}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except JetCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    elapsed = time.monotonic() - start
    report = {
        "command": args.command,
        "model": args.model,
        "format_version": 1,
        "steps": runner.steps,
        "bound_exhausted": False,
    }
    if args.format == "json":
        chunks = []
        _json(report, chunks)
        chunks.append("\n")
    else:
        chunks = _text_lines(runner.steps)
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return _emit(chunks, runner.exit_code())


def _emit(chunks, code: int) -> int:
    """Write the strings ``chunks`` to stdout one by one, never joined, and
    return ``code``, or EXIT_PIPE when the reader has closed stdout.  An
    unbuffered stdout (``python -u``) is written below its text layer,
    which would drop the rest of a short write: the bytes are written
    until all are taken, so a reader that quits mid-report meets EPIPE in
    both buffering modes."""
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    try:
        if isinstance(raw, io.RawIOBase):
            out.flush()
            for chunk in chunks:
                data = memoryview(chunk.encode(out.encoding, out.errors))
                while data:
                    data = data[raw.write(data):]
        else:
            for chunk in chunks:
                out.write(chunk)
            out.flush()
    except BrokenPipeError:
        # point stdout at devnull so that the flush at interpreter exit
        # cannot fail again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


def _json(value, out, indent="\n"):
    """Append the text of ``json.dumps(value, sort_keys=True, indent=2)``
    to the list ``out``, nested at ``indent``.  Only dicts with str keys,
    lists, tuples, str, int, True, False, None and ``GradedPoly`` are
    written; any other value raises TypeError.  A ``GradedPoly`` is one
    string, the text of ``{"monomials": poly_to_data(p), "text":
    poly_text(p)}``."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, GradedPoly):
        inner = indent + "  "
        out.append(f'{{{inner}"monomials": {poly_to_json(value, inner)},'
                   f'{inner}"text": {_quote(poly_text(value))}{indent}}}')
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report key {key!r} is not a str")
            out.append(f"{sep}{_quote(key)}: ")
            _json(value[key], out, inner)
            sep = "," + inner
        out.append(indent + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json(item, out, inner)
            sep = "," + inner
        out.append(indent + "]" if value else "[]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"{type(value).__name__} is not a report value")


def _text_lines(steps):
    """The text report of ``steps``, one line at a time."""
    for step in steps:
        yield f"{step['name']}: {step['status']}\n"
        payload = step.get("payload")
        if payload:
            for text in _payload_lines(payload):
                yield f"  {text}\n"


def _payload_lines(payload, prefix=""):
    if isinstance(payload, GradedPoly):
        yield prefix + poly_text(payload)
    elif isinstance(payload, dict):
        for key in payload:
            value = payload[key]
            if isinstance(value, (dict, list, GradedPoly)):
                yield f"{prefix}{key}:"
                yield from _payload_lines(value, prefix + "  ")
            else:
                yield f"{prefix}{key}: {value}"
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, dict) and "field" in item and "expression" in item:
                extra = {k: v for k, v in item.items()
                         if k not in ("field", "expression")}
                desc = " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
                label = item["field"] + (f" {desc}" if desc else "")
                yield f"{prefix}{label}: {poly_text(item['expression'])}"
            elif isinstance(item, dict) and "mu" in item and "expression" in item:
                label = item.get("label", "J")
                yield (f"{prefix}{label}^{item['mu']}: "
                       f"{poly_text(item['expression'])}")
            elif isinstance(item, dict) and "nu" in item and "component" in item:
                yield (f"{prefix}U^{item['nu']}{item['mu']}: "
                       f"{poly_text(item['component'])}")
            elif isinstance(item, dict) and "coefficient" in item:
                idx = "".join(str(i) for i in item.get("index", []))
                yield (f"{prefix}w[{item['field']},({idx}),mu={item['mu']}]: "
                       f"{poly_text(item['coefficient'])}")
            else:
                yield from _payload_lines(item, prefix)
    else:
        yield f"{prefix}{payload}"


if __name__ == "__main__":
    sys.exit(main())
