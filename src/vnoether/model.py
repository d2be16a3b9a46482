"""Model-definition language: declarations, index notation, elaboration.

A model file declares the base dimension and metric, field and ghost
families with index slots, macro bindings, a Lagrangian, named identities
between Euler-Lagrange expressions and named symmetries.  An index letter
repeated twice at one product level is summed over ``0..n-1``, picking up
the metric sign once per contracted pair when both occurrences are
covariant; slot indices of ``EL(...)`` count as contravariant, so pairing
them against a derivative index sums plainly.  Families are expanded to
flat per-component symbols (``A[mu]`` with ``dim 2`` becomes ``A0``,
``A1``).

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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (DEFAULT_JET_CAP, EVEN, KIND_GHOST, ODD, FieldSymbol,
                      GradedPoly, accumulate, jet, multi_index)
from .forms import GeneralizedVectorField
from .gauge import NoetherOperator
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

@dataclass(frozen=True)
class Token:
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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


@dataclass
class ModelSource:
    dim: int = 1
    metric: str = "euclidean"
    signature: Optional[str] = None
    fields: List[tuple] = field(default_factory=list)   # (name, arity, parity)
    ghosts: List[tuple] = field(default_factory=list)   # (name, arity, parity, for)
    lets: List[tuple] = field(default_factory=list)     # (name, params, body)
    lagrangian: Optional[tuple] = None
    identities: Dict[str, list] = field(default_factory=dict)
    symmetries: Dict[str, list] = field(default_factory=dict)


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            self.error(f"expected {want!r}, found {tok.text!r}")
        return self.next()

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
                src.dim = int(val.text)
                if src.dim < 1:
                    self.error("dimension must be at least 1", val)
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
            elif tok.text == "identity":
                self.next()
                name = self.expect("NAME").text
                if name in src.identities:
                    self.error(f"duplicate identity {name!r}", tok)
                self.expect("PUNCT", ":")
                terms = [self.parse_idterm(1)]
                while True:
                    if self.accept("PUNCT", "+"):
                        terms.append(self.parse_idterm(1))
                    elif self.accept("PUNCT", "-"):
                        terms.append(self.parse_idterm(-1))
                    else:
                        break
                src.identities[name] = terms
            elif tok.text == "symmetry":
                self.next()
                name = self.expect("NAME").text
                if name in src.symmetries:
                    self.error(f"duplicate symmetry {name!r}", tok)
                self.expect("PUNCT", ":")
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

    def parse_idterm(self, sign: int):
        tok = self.peek()
        term = self.parse_term()
        node = self._strip_el(term)
        if node is None:
            self.error("identity term must end in an EL(...) factor", tok)
        coeff, dlist, fname, slots = node
        if sign < 0:
            coeff = ("neg", coeff)
        return (coeff, dlist, fname, slots)

    def _strip_el(self, expr):
        """Split a product into (coefficient, d-list, EL field, slots); the
        EL factor must come last."""
        if expr[0] == "mul":
            items = list(expr[1])
            got = self._el_factor(items.pop())
            if got is None:
                return None
            dlist, fname, slots = got
            if not items:
                coeff = ("num", 1)
            elif len(items) == 1:
                coeff = items[0]
            else:
                coeff = ("mul", tuple(items))
            return (coeff, dlist, fname, slots)
        got = self._el_factor(expr)
        if got is None:
            return None
        dlist, fname, slots = got
        return (("num", 1), dlist, fname, slots)

    def _el_factor(self, expr):
        if expr[0] == "el":
            return ((), expr[1], expr[2])
        if expr[0] == "d" and expr[2][0] == "el":
            return (expr[1], expr[2][1], expr[2][2])
        return None

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
        if self.accept("PUNCT", "-"):
            return ("neg", self.parse_factor())
        atom = self.parse_atom()
        if self.accept("PUNCT", "^"):
            k = int(self.expect("INT").text)
            return ("pow", atom, k)
        return atom

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return ("num", int(tok.text))
        if self.accept("PUNCT", "("):
            inner = self.parse_expr()
            self.expect("PUNCT", ")")
            return inner
        if tok.kind == "NAME":
            if tok.text == "d":
                self.next()
                self.expect("PUNCT", "[")
                idxs = self._idx_list()
                self.expect("PUNCT", "(")
                inner = self.parse_expr()
                self.expect("PUNCT", ")")
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
            return ("lit", int(tok.text))
        if tok.kind == "NAME":
            return ("letter", tok.text)
        self.error("expected an index", tok)


def parse(text: str) -> ModelSource:
    return _Parser(tokenize(text)).parse_model()


# ---------------------------------------------------------------------------
# macro expansion

def _expand_lets(expr, lets: dict, counter: list):
    tag = expr[0]
    if tag == "sym" and expr[1] in lets:
        params, body = lets[expr[1]]
        slots = expr[2]
        if len(slots) != len(params):
            raise ElaborationError(
                f"macro {expr[1]!r} expects {len(params)} indices, got {len(slots)}")
        mapping = dict(zip(params, slots))
        bound = _letters_of(body) - set(params)
        for letter in sorted(bound):
            counter[0] += 1
            mapping[letter] = ("letter", f"{letter}_{counter[0]}_")
        return _substitute(body, mapping)
    if tag in ("num", "el", "sym"):
        return expr
    if tag == "neg":
        return ("neg", _expand_lets(expr[1], lets, counter))
    if tag == "inv":
        return ("inv", _expand_lets(expr[1], lets, counter))
    if tag == "pow":
        return ("pow", _expand_lets(expr[1], lets, counter), expr[2])
    if tag == "d":
        return ("d", expr[1], _expand_lets(expr[2], lets, counter))
    if tag in ("add", "mul"):
        return (tag, tuple(_expand_lets(e, lets, counter) for e in expr[1]))
    raise AssertionError(tag)


def _substitute(expr, mapping):
    tag = expr[0]
    if tag == "num":
        return expr
    if tag in ("sym", "el"):
        return (tag, expr[1], tuple(mapping.get(i[1], i) if i[0] == "letter"
                                    else i for i in expr[2]))
    if tag == "neg":
        return ("neg", _substitute(expr[1], mapping))
    if tag == "inv":
        return ("inv", _substitute(expr[1], mapping))
    if tag == "pow":
        return ("pow", _substitute(expr[1], mapping), expr[2])
    if tag == "d":
        idxs = tuple(mapping.get(i[1], i) if i[0] == "letter" else i
                     for i in expr[1])
        return ("d", idxs, _substitute(expr[2], mapping))
    if tag in ("add", "mul"):
        return (tag, tuple(_substitute(e, mapping) for e in expr[1]))
    raise AssertionError(tag)


def _letters_of(expr) -> set:
    tag = expr[0]
    out = set()
    if tag in ("sym", "el"):
        out.update(i[1] for i in expr[2] if i[0] == "letter")
    elif tag == "d":
        out.update(i[1] for i in expr[1] if i[0] == "letter")
        out |= _letters_of(expr[2])
    elif tag in ("neg", "inv"):
        out |= _letters_of(expr[1])
    elif tag == "pow":
        out |= _letters_of(expr[1])
    elif tag in ("add", "mul"):
        for e in expr[1]:
            out |= _letters_of(e)
    return out


# ---------------------------------------------------------------------------
# index exposure
#
# own(expr): (letter, covariant) occurrences to be contracted at this node.
# free(expr): what propagates upward: the singles of own(expr); contracted
# pairs are dropped, three or more occurrences are an arity error.

def _own(expr):
    tag = expr[0]
    if tag == "num":
        return []
    if tag == "sym":
        return [(i[1], True) for i in expr[2] if i[0] == "letter"]
    if tag == "el":
        return [(i[1], False) for i in expr[2] if i[0] == "letter"]
    if tag == "d":
        return ([(i[1], True) for i in expr[1] if i[0] == "letter"]
                + _free(expr[2]))
    if tag in ("neg", "inv"):
        return _free(expr[1])
    if tag == "pow":
        return _free(expr[1]) * expr[2]
    if tag == "mul":
        out = []
        for e in expr[1]:
            out.extend(_free(e))
        return out
    if tag == "add":
        frees = [sorted(_free(e)) for e in expr[1]]
        for other in frees[1:]:
            if other != frees[0]:
                raise ElaborationError(
                    "summands expose different free indices")
        return list(frees[0])
    raise AssertionError(tag)


def _free(expr):
    own = _own(expr)
    counts: Dict[str, int] = {}
    for letter, _ in own:
        counts[letter] = counts.get(letter, 0) + 1
    for letter, count in counts.items():
        if count > 2:
            raise ElaborationError(
                f"index {letter!r} appears {count} times in one term")
    return [(l, cov) for (l, cov) in own if counts[l] == 1]


# ---------------------------------------------------------------------------
# elaboration

@dataclass
class ElaboratedModel:
    dim: int
    metric: str
    signature: str
    metric_signs: tuple
    symbols: dict                # flat name -> FieldSymbol
    families: dict               # declared name -> (arity, parity, [flat symbols])
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


def _flat_name(name: str, values: Sequence[int]) -> str:
    return name + "".join(str(v) for v in values)


def _index_tuples(dim: int, arity: int):
    out = [()]
    for _ in range(arity):
        out = [t + (v,) for t in out for v in range(dim)]
    return out


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
        self.lets: Dict[str, tuple] = {}
        self.fresh = [0]

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
            self.lets[name] = (params, _expand_lets(body, self.lets, self.fresh))
        lag_poly = GradedPoly.zero()
        if src.lagrangian is not None:
            expr = _expand_lets(src.lagrangian, self.lets, self.fresh)
            self._check_closed(expr, "lagrangian")
            lag_poly = self.eval_expr(expr, {})
        parity = lag_poly.parity
        lagrangian = Lagrangian(lag_poly, self.dim,
                                parity if parity is not None else EVEN,
                                self.cap)
        identities = {}
        for name, terms in src.identities.items():
            identities[name] = self._eval_identity(name, terms)
        for gname, (sym, target) in self.ghost_info.items():
            op = identities[target]
            if not op.is_zero() and op.parity != sym.parity:
                raise ElaborationError(
                    f"ghost {gname!r} parity does not match identity {target!r}")
        symmetries = {}
        for name, assigns in src.symmetries.items():
            symmetries[name] = self._eval_symmetry(name, assigns)
        return ElaboratedModel(
            dim=self.dim, metric=src.metric, signature=self.signature,
            metric_signs=self.signs, symbols=dict(self.symbols),
            families=dict(self.families), fields=list(self.fields),
            ghosts=dict(self.ghost_info), lagrangian=lagrangian,
            identities=identities, symmetries=symmetries, jet_cap=self.cap)

    def _declare(self, name, arity, parity, kind):
        flats = []
        for values in _index_tuples(self.dim, arity):
            flat = _flat_name(name, values)
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
        return self.symbols[_flat_name(name, values)]

    def _check_closed(self, expr, where: str):
        free = _free(expr)
        if free:
            raise ElaborationError(
                f"{where}: index {free[0][0]!r} appears once and is unbound")

    # -- evaluation ----------------------------------------------------------

    def eval_expr(self, expr, binding: dict) -> GradedPoly:
        tag = expr[0]
        if tag == "add":
            out = GradedPoly.zero()
            for e in expr[1]:
                out = out + self.eval_expr(e, binding)
            return out
        if tag == "neg":
            return -self.eval_expr(expr[1], binding)
        own = _own(expr)
        counts: Dict[str, int] = {}
        for letter, _ in own:
            if letter not in binding:
                counts[letter] = counts.get(letter, 0) + 1
        singles = [l for l, c in counts.items() if c == 1]
        if singles:
            raise ElaborationError(
                f"index {singles[0]!r} appears once and is unbound")
        pairs = sorted(l for l, c in counts.items() if c == 2)
        if pairs:
            letter = pairs[0]
            occ = [cov for (l, cov) in own if l == letter]
            same_variance = occ[0] == occ[1]
            out = GradedPoly.zero()
            for value in range(self.dim):
                sub = dict(binding)
                sub[letter] = value
                factor = self.signs[value] if same_variance else 1
                out = out + self.eval_expr(expr, sub) * factor
            return out
        return self._eval_atom(expr, binding)

    def _eval_atom(self, expr, binding: dict) -> GradedPoly:
        tag = expr[0]
        if tag == "num":
            return GradedPoly.constant(expr[1])
        if tag == "sym":
            values = [self._idx_value(i, binding) for i in expr[2]]
            return GradedPoly.variable(jet(self._family_symbol(expr[1], values)))
        if tag == "el":
            raise ElaborationError("EL(...) is only allowed inside identities")
        if tag == "d":
            inner = self.eval_expr(expr[2], binding)
            for i in expr[1]:
                inner = inner.total_derivative(self._idx_value(i, binding),
                                               self.cap)
            return inner
        if tag == "inv":
            denom = self.eval_expr(expr[1], binding)
            const = denom.constant_term()
            if denom != GradedPoly.constant(const) or const == 0:
                raise ElaborationError("division is only by nonzero constants")
            return GradedPoly.constant(Fraction(1) / const)
        if tag == "pow":
            return self.eval_expr(expr[1], binding) ** expr[2]
        if tag == "mul":
            out = GradedPoly.constant(1)
            for e in expr[1]:
                out = out * self.eval_expr(e, binding)
            return out
        raise AssertionError(tag)

    def _idx_value(self, idx: Idx, binding: dict) -> int:
        kind, val = idx
        if kind == "lit":
            if not 0 <= val < self.dim:
                raise ElaborationError(f"index {val} out of range")
            return val
        if val not in binding:
            raise ElaborationError(f"unbound index {val!r}")
        return binding[val]

    # -- identities and symmetries -------------------------------------------

    def _eval_identity(self, name: str, terms) -> NoetherOperator:
        coeffs: Dict[tuple, GradedPoly] = {}
        for (coeff_expr, dlist, fname, slots) in terms:
            coeff_expr = _expand_lets(coeff_expr, self.lets, self.fresh)
            own = list(_free(coeff_expr))
            own += [(i[1], True) for i in dlist if i[0] == "letter"]
            own += [(i[1], False) for i in slots if i[0] == "letter"]
            counts: Dict[str, int] = {}
            for letter, _ in own:
                counts[letter] = counts.get(letter, 0) + 1
            for letter, count in counts.items():
                if count == 1:
                    raise ElaborationError(
                        f"identity {name!r}: index {letter!r} appears once")
                if count > 2:
                    raise ElaborationError(
                        f"identity {name!r}: index {letter!r} appears "
                        f"{count} times")

            def emit(binding, factor, remaining):
                if remaining:
                    letter = remaining[0]
                    occ = [cov for (l, cov) in own if l == letter]
                    same = occ[0] == occ[1]
                    for value in range(self.dim):
                        sub = dict(binding)
                        sub[letter] = value
                        f2 = factor * (self.signs[value] if same else 1)
                        emit(sub, f2, remaining[1:])
                    return
                poly = self.eval_expr(coeff_expr, binding) * factor
                if poly.is_zero():
                    return
                values = [self._idx_value(i, binding) for i in slots]
                index = multi_index(self._idx_value(i, binding) for i in dlist)
                accumulate(coeffs, (self._family_symbol(fname, values), index),
                           poly)

            emit({}, 1, sorted(counts))
        return NoetherOperator(name, coeffs)

    def _eval_symmetry(self, name: str, assigns) -> GeneralizedVectorField:
        comps: Dict[FieldSymbol, GradedPoly] = {}
        for (target, slots, expr) in assigns:
            expr = _expand_lets(expr, self.lets, self.fresh)
            letters = [i[1] for i in slots if i[0] == "letter"]
            if len(set(letters)) != len(letters):
                raise ElaborationError(
                    f"symmetry {name!r}: repeated index on the left side")
            for values in _index_tuples(self.dim, len(slots)):
                binding = {}
                concrete = []
                ok = True
                for idx, value in zip(slots, values):
                    if idx[0] == "lit":
                        if idx[1] != value:
                            ok = False
                            break
                        concrete.append(idx[1])
                    else:
                        binding[idx[1]] = value
                        concrete.append(value)
                if not ok:
                    continue
                sym = self._family_symbol(target, concrete)
                accumulate(comps, sym, self.eval_expr(expr, binding))
        return GeneralizedVectorField.make(comps)


def elaborate(src: ModelSource, jet_cap: int = DEFAULT_JET_CAP) -> ElaboratedModel:
    return _Elaborator(src, jet_cap).run()


def load_model(text: str, jet_cap: int = DEFAULT_JET_CAP) -> ElaboratedModel:
    return elaborate(parse(text), jet_cap)


# ---------------------------------------------------------------------------
# canonical printing of an elaborated model (flat components)

def _poly_to_dsl(p: GradedPoly) -> str:
    from .render import coeff_text
    if p.is_zero():
        return "0"
    parts = []
    for c, factors in p.monomials(ordered=True):
        parts.append("*".join([f"({coeff_text(c)})"]
                              + [_var_to_dsl(v) + (f"^{e}" if e > 1 else "")
                                 for v, e in factors]))
    return " + ".join(parts)


def _var_to_dsl(v) -> str:
    out = v.symbol.name
    for i in reversed(v.index):
        out = f"d[{i}]({out})"
    return out


def print_elaborated(model: ElaboratedModel) -> str:
    """Render the flat elaboration back to canonical source; re-parsing and
    re-elaborating reproduces the same structures."""
    lines = [f"dim {model.dim}"]
    if model.metric == "euclidean":
        lines.append("metric euclidean")
    else:
        lines.append(f"metric minkowski {model.signature}")
    for sym in model.fields:
        lines.append(f"field {sym.name} {'odd' if sym.parity else 'even'}")
    for gname, (sym, target) in sorted(model.ghosts.items()):
        lines.append(f"ghost {sym.name} {'odd' if sym.parity else 'even'} "
                     f"for {target}")
    if not model.lagrangian.density.is_zero():
        lines.append(f"lagrangian {_poly_to_dsl(model.lagrangian.density)}")
    for name, op in sorted(model.identities.items()):
        terms = []
        for (sym, index), poly in op.sorted_items():
            coeff = f"({_poly_to_dsl(poly)})"
            if index:
                idxs = ",".join(str(i) for i in index)
                terms.append(f"{coeff}*d[{idxs}](EL({sym.name}))")
            else:
                terms.append(f"{coeff}*EL({sym.name})")
        if terms:
            lines.append(f"identity {name}: " + " + ".join(terms))
    for name, ups in sorted(model.symmetries.items()):
        assigns = []
        for sym, poly in ups.vertical:
            assigns.append(f"{sym.name} <- {_poly_to_dsl(poly)}")
        if assigns:
            lines.append(f"symmetry {name}: " + " ; ".join(assigns))
    return "\n".join(lines) + "\n"
