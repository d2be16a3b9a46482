"""Model-definition language: declarations, index notation, elaboration.

A model file declares the base dimension and metric, field and ghost
families with index slots, ``let`` bindings, a Lagrangian, named identities
between Euler-Lagrange expressions and named symmetries.  Families are
expanded to flat per-component symbols (``A[mu]`` with ``dim 2`` becomes
``A0``, ``A1``).

Index rules.  A product level is a symbol's slots, ``d[..]`` with its
operand, the copies of a power, a product of factors, and the final
``EL(..)`` of an identity term.  Elaboration visits each node once,
bottom-up, and at every product level applies one rule to the letters
met there: a letter seen once stays open for the enclosing level, a
letter seen twice is summed over ``0..n-1`` at this, its innermost,
level, and three or more occurrences are an error.  A summed pair picks
up the metric sign when both occurrences have the same variance; slot
indices of ``EL(...)`` count as contravariant, so pairing them against a
derivative index sums plainly.  An identity is evaluated like any other
expression, with the antifield jet ``Ebar[A]`` of the flat symbol as the
value of ``EL(A[..])``: its value is the antifield density sum
Delta^{A,I} Ebar[A]_{,I}, and ``noether_operator_from_density`` reads
the operator back.  The summands of a sum must leave the same letters
open.  A symmetry's left-side letters take each component's values,
which every row carries, so they are never counted, summed or open on
the right side.

A ``let F[i,j] = body`` is a table evaluated once, where it is defined:
the body must leave open exactly its parameters, each once, and the table
holds its value at every assignment of them.  A use ``F[..]`` is a product
level like a symbol's slots (covariant occurrences) whose value is looked
up in the table, so a let means the same thing at every use and its
summed letters cannot meet the caller's.

Grammar sketch (``#`` starts a comment, files use extension ``.vln``)::

    model    := stmt*
    stmt     := "dim" INT
              | "metric" ("euclidean" | "minkowski" SIG?)
              | "field" NAME slots? parity
              | "ghost" NAME slots? parity "for" NAME
              | "let" NAME slots? "=" expr
              | "lagrangian" expr
              | "identity" NAME ":" idterm (("+"|"-") idterm)*
              | "symmetry" NAME ":" assign ((";")? assign)*
    idterm   := expr "*" "d" "[" idxlist "]" "(" "EL" "(" NAME slots? ")" ")"
              | expr "*" "EL" "(" NAME slots? ")"
    assign   := NAME slots? "<-" expr
    expr     := arithmetic over NAME slots?, d[idxlist](expr), "^" INT,
                parentheses, rational constants
    slots    := "[" idxlist "]"
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import (DEFAULT_JET_CAP, EVEN, KIND_GHOST, ODD, FieldSymbol,
                      GradedPoly, accumulate, jet)
from .forms import GeneralizedVectorField
from .gauge import GaugeError, antifield, noether_operator_from_density
from .variational import Lagrangian

_KEYWORDS = {"dim", "metric", "field", "ghost", "let", "lagrangian",
             "identity", "symmetry", "even", "odd", "for", "euclidean",
             "minkowski"}
_RESERVED = {"d", "EL"} | _KEYWORDS


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ElaborationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# tokens

class Token(NamedTuple):
    kind: str   # NAME INT PUNCT EOF
    text: str
    line: int
    col: int


_PUNCT2 = ("<-",)
_PUNCT1 = "[]()+-*/^=:,;"


def tokenize(text: str) -> List[Token]:
    out = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i:i + 2] in _PUNCT2:
            out.append(Token("PUNCT", text[i:i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch.isdecimal():   # what int() reads; not '²' or '①'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT1:
            out.append(Token("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("EOF", "", line, col))
    return out


# ---------------------------------------------------------------------------
# source-level structures

Idx = Tuple[str, object]   # ("letter", str) or ("lit", int)


class ModelSource:
    """A parsed model file: its declarations, before elaboration."""

    def __init__(self):
        self.dim = 1
        self.metric = "euclidean"
        self.signature: Optional[str] = None
        self.fields: List[tuple] = []   # (name, arity, parity)
        self.ghosts: List[tuple] = []   # (name, arity, parity, for)
        self.lets: List[tuple] = []     # (name, params, body)
        self.lagrangian: Optional[tuple] = None
        self.lagrangian_line = 0
        self.identities: Dict[str, tuple] = {}   # name -> expr
        self.identity_lines: Dict[str, int] = {}
        self.symmetries: Dict[str, list] = {}


# Deepest nesting of "(", "d[..](" and prefix "-" in one expression.  The
# parser recurses about four frames per level and the elaborator's _eval
# fewer, so this bound keeps both well inside Python's recursion limit.
MAX_NESTING = 150
# Largest "dim" and "^" literals: elaboration allocates per dimension and
# per factor of a power.  The corpus uses at most dim 6 and ^5.
MAX_DIM = 64
MAX_POWER = 64
# Most index assignments one product level enumerates (dim^k for k letters)
# and most symbols one family declares (dim^arity).  The corpus peaks at 36
# rows and 6 symbols.
MAX_ROWS = 100_000


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def integer(self, tok: Token) -> int:
        """The value of an INT token; a literal past the interpreter's
        int/str digit limit is a ParseError, not a bare ValueError."""
        try:
            return int(tok.text)
        except ValueError:
            self.error(f"integer literal of {len(tok.text)} digits exceeds "
                       "the interpreter's limit (see "
                       "sys.set_int_max_str_digits)", tok)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            self.error(f"expected {want!r}, found {tok.text!r}")
        return self.next()

    def nest(self, tok: Token):
        """Enter one nesting level at ``tok``; the caller leaves it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"expression nested deeper than {MAX_NESTING} levels",
                       tok)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    # -- statements ---------------------------------------------------------

    def parse_model(self) -> ModelSource:
        src = ModelSource()
        declared = set()
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "NAME":
                self.error(f"expected a statement, found {tok.text!r}")
            if tok.text == "dim":
                self.next()
                val = self.expect("INT")
                src.dim = self.integer(val)
                if src.dim < 1:
                    self.error("dimension must be at least 1", val)
                if src.dim > MAX_DIM:
                    self.error(f"dimension must be at most {MAX_DIM}", val)
            elif tok.text == "metric":
                self.next()
                which = self.expect("NAME")
                if which.text == "euclidean":
                    src.metric = "euclidean"
                elif which.text == "minkowski":
                    src.metric = "minkowski"
                    sig = ""
                    while self.peek().kind == "PUNCT" and self.peek().text in "+-":
                        sig += self.next().text
                    src.signature = sig or None
                else:
                    self.error("metric must be euclidean or minkowski", which)
            elif tok.text == "field":
                self.next()
                name = self._decl_name(declared)
                arity = self._slot_arity()
                parity = self._parity()
                src.fields.append((name, arity, parity))
            elif tok.text == "ghost":
                self.next()
                name = self._decl_name(declared)
                arity = self._slot_arity()
                parity = self._parity()
                self.expect("NAME", "for")
                target = self.expect("NAME").text
                src.ghosts.append((name, arity, parity, target))
            elif tok.text == "let":
                self.next()
                name = self._decl_name(declared)
                params = []
                if self.accept("PUNCT", "["):
                    params = self._letter_list()
                self.expect("PUNCT", "=")
                src.lets.append((name, tuple(params), self.parse_expr()))
            elif tok.text == "lagrangian":
                self.next()
                if src.lagrangian is not None:
                    self.error("duplicate lagrangian", tok)
                src.lagrangian = self.parse_expr()
                src.lagrangian_line = tok.line
            elif tok.text == "identity":
                self.next()
                name = self._statement_name(src, tok)
                terms = [self.parse_idterm()]
                while True:
                    if self.accept("PUNCT", "+"):
                        terms.append(self.parse_idterm())
                    elif self.accept("PUNCT", "-"):
                        terms.append(("neg", self.parse_idterm()))
                    else:
                        break
                src.identities[name] = ("add", tuple(terms))
                src.identity_lines[name] = tok.line
            elif tok.text == "symmetry":
                self.next()
                name = self._statement_name(src, tok)
                assigns = [self.parse_assign()]
                while True:
                    self.accept("PUNCT", ";")
                    nxt = self.peek()
                    if (nxt.kind == "NAME" and nxt.text not in _KEYWORDS
                            and self._lookahead_is_assign()):
                        assigns.append(self.parse_assign())
                    else:
                        break
                src.symmetries[name] = assigns
            else:
                self.error(f"unknown statement {tok.text!r}")
        return src

    def _decl_name(self, declared) -> str:
        tok = self.expect("NAME")
        if tok.text in _RESERVED:
            self.error(f"{tok.text!r} is reserved", tok)
        if tok.text in declared:
            self.error(f"duplicate declaration of {tok.text!r}", tok)
        declared.add(tok.text)
        return tok.text

    def _statement_name(self, src: ModelSource, tok: Token) -> str:
        """``NAME :`` of an identity or a symmetry.  ``superpotential NAME``
        takes either, so the two kinds share one namespace."""
        name = self.expect("NAME").text
        for kind, names in (("identity", src.identities),
                            ("symmetry", src.symmetries)):
            if name in names:
                self.error(f"{kind} {name!r} is already declared", tok)
        self.expect("PUNCT", ":")
        return name

    def _slot_arity(self) -> int:
        if self.accept("PUNCT", "["):
            return len(self._letter_list())
        return 0

    def _letter_list(self) -> List[str]:
        out = [self.expect("NAME").text]
        while self.accept("PUNCT", ","):
            out.append(self.expect("NAME").text)
        self.expect("PUNCT", "]")
        return out

    def _parity(self) -> int:
        tok = self.expect("NAME")
        if tok.text == "even":
            return EVEN
        if tok.text == "odd":
            return ODD
        self.error("expected 'even' or 'odd'", tok)

    def _lookahead_is_assign(self) -> bool:
        save = self.pos
        try:
            if self.peek().kind != "NAME":
                return False
            self.next()
            if self.accept("PUNCT", "["):
                depth = 1
                while depth:
                    tok = self.next()
                    if tok.kind == "EOF":
                        return False
                    if tok.text == "[":
                        depth += 1
                    elif tok.text == "]":
                        depth -= 1
            return self.peek().text == "<-"
        finally:
            self.pos = save

    def parse_assign(self):
        name = self.expect("NAME")
        slots = self._slots_opt()
        self.expect("PUNCT", "<-")
        return (name.text, slots, self.parse_expr())

    def parse_idterm(self):
        """A product whose last factor is ``EL(..)``, bare or under one
        ``d[..]``; that factor is retagged ``antifield``, so the term
        evaluates to its share of the antifield density."""
        tok = self.peek()
        term = self.parse_term()
        items = term[1] if term[0] == "mul" else (term,)
        last = items[-1]
        inner = last[2] if last[0] == "d" else last
        if inner[0] != "el":
            self.error("identity term must end in an EL(...) factor", tok)
        factor = ("antifield",) + inner[1:]
        if last[0] == "d":
            factor = ("d", last[1], factor)
        return ("mul", items[:-1] + (factor,)) if term[0] == "mul" else factor

    # -- expressions --------------------------------------------------------

    def parse_expr(self):
        items = [self.parse_term()]
        while True:
            if self.accept("PUNCT", "+"):
                items.append(self.parse_term())
            elif self.peek().kind == "PUNCT" and self.peek().text == "-":
                self.next()
                items.append(("neg", self.parse_term()))
            else:
                break
        if len(items) == 1:
            return items[0]
        return ("add", tuple(items))

    def parse_term(self):
        items = [self.parse_factor()]
        while True:
            if self.accept("PUNCT", "*"):
                items.append(self.parse_factor())
            elif self.accept("PUNCT", "/"):
                items.append(("inv", self.parse_factor()))
            else:
                break
        if len(items) == 1:
            return items[0]
        return ("mul", tuple(items))

    def parse_factor(self):
        minus = self.accept("PUNCT", "-")
        if minus is not None:
            self.nest(minus)
            inner = self.parse_factor()
            self.depth -= 1
            return ("neg", inner)
        atom = self.parse_atom()
        if self.accept("PUNCT", "^"):
            tok = self.expect("INT")
            k = self.integer(tok)
            if k > MAX_POWER:
                self.error(f"exponent must be at most {MAX_POWER}", tok)
            return ("pow", atom, k)
        return atom

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return ("num", self.integer(tok))
        if self.accept("PUNCT", "("):
            self.nest(tok)
            inner = self.parse_expr()
            self.expect("PUNCT", ")")
            self.depth -= 1
            return inner
        if tok.kind == "NAME":
            if tok.text == "d":
                self.next()
                self.expect("PUNCT", "[")
                idxs = self._idx_list()
                self.nest(self.expect("PUNCT", "("))
                inner = self.parse_expr()
                self.expect("PUNCT", ")")
                self.depth -= 1
                return ("d", tuple(idxs), inner)
            if tok.text == "EL":
                self.next()
                self.expect("PUNCT", "(")
                name = self.expect("NAME").text
                slots = self._slots_opt()
                self.expect("PUNCT", ")")
                return ("el", name, slots)
            self.next()
            return ("sym", tok.text, self._slots_opt())
        self.error(f"expected an expression, found {tok.text!r}")

    def _slots_opt(self):
        if self.accept("PUNCT", "["):
            return tuple(self._idx_list())
        return ()

    def _idx_list(self):
        out = [self._idx()]
        while self.accept("PUNCT", ","):
            out.append(self._idx())
        self.expect("PUNCT", "]")
        return out

    def _idx(self) -> Idx:
        tok = self.next()
        if tok.kind == "INT":
            return ("lit", self.integer(tok))
        if tok.kind == "NAME":
            return ("letter", tok.text)
        self.error("expected an index", tok)


def parse(text: str) -> ModelSource:
    return _Parser(tokenize(text)).parse_model()


# ---------------------------------------------------------------------------
# elaboration

class ElaboratedModel(NamedTuple):
    dim: int
    metric: str
    signature: str
    symbols: dict                # flat name -> FieldSymbol
    fields: list                 # flat field symbols in declaration order
    ghosts: dict                 # ghost name -> (FieldSymbol, identity name)
    lagrangian: Lagrangian
    identities: dict             # name -> NoetherOperator
    symmetries: dict             # name -> GeneralizedVectorField
    jet_cap: int

    def ghost_of(self, identity_name: str):
        for sym, target in self.ghosts.values():
            if target == identity_name:
                return sym
        return None


def _flat_name(name: str, values: Sequence[int], dim: int) -> str:
    """``h[1,0]`` is ``h10``; from dim 11 the values are joined with ``_``
    (``h_1_10``), since ``h[1,10]`` and ``h[11,0]`` would both be ``h110``."""
    if dim > 10:
        return "_".join([name, *map(str, values)])
    return name + "".join(str(v) for v in values)


def _occurrences(idxs, covariant: bool):
    return [(i[1], covariant) for i in idxs if i[0] == "letter"]


class _Elaborator:
    def __init__(self, src: ModelSource, jet_cap: int):
        self.src = src
        self.cap = jet_cap
        self.dim = src.dim
        if src.metric == "euclidean":
            self.signature = "+" * self.dim
        else:
            self.signature = src.signature or ("+" + "-" * (self.dim - 1))
            if len(self.signature) != self.dim:
                raise ElaborationError(
                    f"signature {self.signature!r} does not match dim {self.dim}")
        self.signs = tuple(1 if ch == "+" else -1 for ch in self.signature)
        self.symbols: Dict[str, FieldSymbol] = {}
        self.families: Dict[str, tuple] = {}
        self.fields: List[FieldSymbol] = []
        self.ghost_info: Dict[str, tuple] = {}
        self.lets: Dict[str, tuple] = {}      # name -> (arity, table)
        self.variables: Dict[tuple, GradedPoly] = {}  # see _variable
        # letter -> value of a symmetry's left side, for the component
        # being evaluated
        self.fixed: Dict[str, int] = {}

    def run(self) -> ElaboratedModel:
        src = self.src
        for (name, arity, parity) in src.fields:
            self._declare(name, arity, parity, "field")
        for (name, arity, parity, target) in src.ghosts:
            if target not in src.identities:
                raise ElaborationError(
                    f"ghost {name!r} references unknown identity {target!r}")
            if arity != 0:
                raise ElaborationError("ghost families are not supported")
            self._declare(name, arity, parity, KIND_GHOST)
            self.ghost_info[name] = (self.symbols[name], target)
        for (name, params, body) in src.lets:
            self.lets[name] = (len(params),
                               self._let_table(name, params, body))
        lag_poly = GradedPoly.zero()
        if src.lagrangian is not None:
            lag_poly = self._closed(src.lagrangian, "lagrangian")
        parity = lag_poly.parity
        if parity is None and not lag_poly.is_zero():
            raise ElaborationError(
                f"lagrangian (line {src.lagrangian_line}): terms of mixed "
                "parity")
        lagrangian = Lagrangian(lag_poly, self.dim,
                                parity if parity is not None else EVEN,
                                self.cap)
        identities = {
            name: noether_operator_from_density(
                self._closed(expr, f"identity {name!r}"), name)
            for name, expr in src.identities.items()}
        for gname, (sym, target) in self.ghost_info.items():
            where = f"identity {target!r} (line {src.identity_lines[target]})"
            try:
                parity = identities[target].parity
            except GaugeError:
                raise ElaborationError(
                    f"{where}: terms of mixed parity") from None
            if parity != sym.parity:
                raise ElaborationError(
                    f"ghost {gname!r} parity does not match {where}")
        symmetries = {}
        for name, assigns in src.symmetries.items():
            symmetries[name] = self._eval_symmetry(name, assigns)
        return ElaboratedModel(
            dim=self.dim, metric=src.metric, signature=self.signature,
            symbols=dict(self.symbols), fields=list(self.fields),
            ghosts=dict(self.ghost_info), lagrangian=lagrangian,
            identities=identities, symmetries=symmetries, jet_cap=self.cap)

    def _declare(self, name, arity, parity, kind):
        if self.dim ** arity > MAX_ROWS:
            raise ElaborationError(
                f"family {name!r} would declare {self.dim}^{arity} symbols, "
                f"more than {MAX_ROWS}")
        flats = []
        for values in itertools.product(range(self.dim), repeat=arity):
            flat = _flat_name(name, values, self.dim)
            if flat in self.symbols:
                raise ElaborationError(f"symbol collision on {flat!r}")
            sym = FieldSymbol(flat, kind, parity)
            self.symbols[flat] = sym
            if kind != KIND_GHOST:
                self.fields.append(sym)
            flats.append(sym)
        self.families[name] = (arity, parity, flats)

    def _family_symbol(self, name: str, values: Sequence[int]) -> FieldSymbol:
        if name not in self.families:
            raise ElaborationError(f"unknown symbol {name!r}")
        arity, _, _ = self.families[name]
        if len(values) != arity:
            raise ElaborationError(
                f"{name!r} expects {arity} indices, got {len(values)}")
        return self.symbols[_flat_name(name, values, self.dim)]

    def _let_table(self, name: str, params, body) -> Dict[tuple, GradedPoly]:
        """Evaluate a ``let`` body once.  It must leave open exactly its
        parameters, each once; the table is keyed by their values in
        parameter order."""
        occ, table = self._eval(body)
        letters = [l for l, _ in occ]
        if letters != sorted(params):
            raise ElaborationError(
                f"let {name!r}: the body leaves open [{', '.join(letters)}], "
                f"not exactly its parameters [{', '.join(params)}] once each")
        order = [letters.index(p) for p in params]
        return {tuple(key[i] for i in order): value
                for key, value in table.items()}

    def _lookup(self, name: str, values: tuple) -> GradedPoly:
        """A let's component or a family component's variable."""
        if name not in self.lets:
            return self._variable(name, values)
        arity, table = self.lets[name]
        if len(values) != arity:
            raise ElaborationError(
                f"let {name!r} expects {arity} indices, got {len(values)}")
        return table[values]

    def _variable(self, name: str, values: tuple, anti: bool = False):
        """A family component's variable, or with ``anti`` its antifield
        jet ``Ebar[A]``, the value of ``EL(A[..])`` in an identity; built
        once per component."""
        var = self.variables.get((name, values, anti))
        if var is None:
            sym = self._family_symbol(name, values)
            var = self.variables[(name, values, anti)] = GradedPoly.variable(
                jet(antifield(sym) if anti else sym))
        return var

    # -- evaluation ----------------------------------------------------------

    def _level(self, own, factors, literals):
        """The contraction rule of one product level, and its rows.

        ``own`` are the node's own (letter, covariant) occurrences and
        ``factors`` the evaluated children, each ``(open, table)``.  A letter
        seen once among all of them stays open, twice is summed over
        ``0..n-1`` with the metric sign when both occurrences have the same
        variance, three or more times is an error.  A letter of
        ``self.fixed`` is not counted.  A row's values are the open
        letters', the summed ones', the fixed ones' and the node's
        ``literals``; where each of them, and each factor's key, sits is
        worked out once.  Returns the open occurrences sorted by letter,
        the position of each letter and literal, and one row per
        assignment: ``(values, sign, factor values)``."""
        fixed = self.fixed
        seen: Dict[str, list] = {}
        for letter, cov in own + [o for occ, _ in factors for o in occ]:
            if letter not in fixed:
                seen.setdefault(letter, []).append(cov)
        for letter, covs in seen.items():
            if len(covs) > 2:
                raise ElaborationError(
                    f"index {letter!r} appears {len(covs)} times in one term")
        open_ = tuple(sorted((l, covs[0]) for l, covs in seen.items()
                             if len(covs) == 1))
        pairs = sorted((l, covs[0] == covs[1]) for l, covs in seen.items()
                       if len(covs) == 2)
        letters = [l for l, _ in open_] + [l for l, _ in pairs]
        if self.dim ** len(letters) > MAX_ROWS:
            raise ElaborationError(
                f"indices [{', '.join(letters)}] in one term would enumerate "
                f"{self.dim}^{len(letters)} assignments, more than {MAX_ROWS}")
        tail = (*fixed.values(), *literals)
        where = {l: i for i, l in enumerate([*letters, *fixed, *literals])}
        keys = [[where[l] for l, _ in occ] for occ, _ in factors]
        signed = [where[l] for l, same in pairs if same]
        signs = self.signs
        rows = []
        for values in itertools.product(range(self.dim), repeat=len(letters)):
            if tail:
                values += tail
            sign = 1
            for p in signed:
                sign *= signs[values[p]]
            rows.append((values, sign, [
                table[tuple([values[p] for p in key])]
                for key, (_, table) in zip(keys, factors)]))
        return open_, where, rows

    def _eval(self, expr):
        """Evaluate ``expr`` bottom-up, visiting each node once.  Returns its
        open occurrences (sorted by letter) and its value at every assignment
        of their letters, keyed by the tuple of values."""
        tag = expr[0]
        if tag == "num":
            return (), {(): GradedPoly.constant(expr[1])}
        if tag == "el":
            raise ElaborationError("EL(...) is only allowed inside identities")
        if tag in ("neg", "inv"):
            occ, table = self._eval(expr[1])
            op = GradedPoly.__neg__ if tag == "neg" else _reciprocal
            return occ, {k: op(v) for k, v in table.items()}
        if tag == "add":
            parts = [self._eval(e) for e in expr[1]]
            occ, table = parts[0]
            if any(other != occ for other, _ in parts[1:]):
                raise ElaborationError("summands expose different free indices")
            return occ, {k: GradedPoly.sum(more[k] for _, more in parts)
                         for k in table}
        # the index slots of a symbol or a derivative, up to the first
        # literal outside 0..n-1 (bad); a row meets it after the derivatives
        # by the slots before it, so a jet cap they exceed is reported first
        slots, bad = (), None
        if tag in ("sym", "antifield", "d"):
            slots = expr[1] if tag == "d" else expr[2]
            own = _occurrences(slots, tag != "antifield")
            for n, (kind, val) in enumerate(slots):
                if kind == "lit" and not 0 <= val < self.dim:
                    slots, bad = slots[:n], val
                    break
            factors = [self._eval(expr[2])] if tag == "d" else []
        elif tag == "pow":
            own, factors = [], [self._eval(expr[1])] * expr[2]
        else:
            own, factors = [], [self._eval(e) for e in expr[1]]
        open_, where, rows = self._level(
            own, factors, [val for kind, val in slots if kind == "lit"])
        at = [where[val] for _, val in slots]
        k = len(open_)
        terms: Dict[tuple, list] = {}
        for values, sign, vals in rows:
            if tag == "d":
                value = vals[0]
                for p in at:
                    value = value.total_derivative(values[p], self.cap)
            if bad is not None:
                raise ElaborationError(f"index {bad} out of range")
            if tag == "sym":
                value = self._lookup(expr[1], tuple([values[p] for p in at]))
            elif tag == "antifield":
                value = self._variable(expr[1],
                                       tuple([values[p] for p in at]), True)
            elif tag != "d":
                value = vals[0] if vals else GradedPoly.constant(1)
                for v in vals[1:]:
                    value = value * v
            terms.setdefault(values[:k], []).append(
                -value if sign < 0 else value)
        # a key whose sum is zero stays: lets and _closed index the table
        return open_, {key: parts[0] if len(parts) == 1
                       else GradedPoly.sum(parts)
                       for key, parts in terms.items()}

    def _closed(self, expr, where: str) -> GradedPoly:
        occ, table = self._eval(expr)
        if occ:
            raise ElaborationError(
                f"{where}: index {occ[0][0]!r} appears once and is unbound")
        return table[()]

    def _idx_value(self, idx: Idx, env: dict) -> int:
        kind, val = idx
        if kind == "letter":
            return env[val]
        if not 0 <= val < self.dim:
            raise ElaborationError(f"index {val} out of range")
        return val

    # -- symmetries ----------------------------------------------------------

    def _eval_symmetry(self, name: str, assigns) -> GeneralizedVectorField:
        """The left side's letters take each component's values in
        ``self.fixed``, which every row carries, so they are never summed
        and never open on the right side."""
        comps: Dict[FieldSymbol, GradedPoly] = {}
        for (target, slots, expr) in assigns:
            letters = [i[1] for i in slots if i[0] == "letter"]
            if len(set(letters)) != len(letters):
                raise ElaborationError(
                    f"symmetry {name!r}: repeated index on the left side")
            for values in itertools.product(range(self.dim),
                                            repeat=len(letters)):
                self.fixed = dict(zip(letters, values))
                sym = self._family_symbol(
                    target, [self._idx_value(i, self.fixed) for i in slots])
                accumulate(comps, sym,
                           self._closed(expr, f"symmetry {name!r}"))
            self.fixed = {}
        return GeneralizedVectorField.make(comps)


def _reciprocal(denom: GradedPoly) -> GradedPoly:
    const = denom.constant_term()
    if denom != GradedPoly.constant(const) or const == 0:
        raise ElaborationError("division is only by nonzero constants")
    return GradedPoly.constant(Fraction(1) / const)


def elaborate(src: ModelSource, jet_cap: int = DEFAULT_JET_CAP) -> ElaboratedModel:
    return _Elaborator(src, jet_cap).run()


def load_model(text: str, jet_cap: int = DEFAULT_JET_CAP) -> ElaboratedModel:
    return elaborate(parse(text), jet_cap)
