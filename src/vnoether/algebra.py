"""Exact graded-commutative polynomial ring over jet variables.

The ring is generated by jet variables: formal partial derivatives of
declared field symbols, indexed by symmetric multi-indices over the base
coordinates ``0..n-1``.  Even variables commute; odd variables anticommute
and square to zero.  Coefficients are exact rationals, so every identity
check in the package reduces to "normalizes to the zero polynomial".

A polynomial is fraction-free: integer numerators over one common
denominator ``den >= 1``, with ``gcd(den, every numerator) == 1`` and
``den == 1`` for zero, so equal polynomials have equal ``(terms, den)``.
Products, sums and derivatives do only ``int`` arithmetic; a result whose
``den`` exceeds 1 is reduced by one ``math.gcd`` over its numerators.  A
``Fraction`` is built only where a coefficient leaves the ring:
``monomials``, ``constant_term`` and ``poly_to_data``, each in lowest terms
(``int`` when integral); ``poly_to_json`` writes that data's JSON text
straight from the terms.  ``evaluate`` hands the Grassmann oracle ``int``
numerators and denominators only.

Every generator is a field, ghost or antifield; base coordinates x^i do
not enter coefficients, so a total derivative only bumps jets.

Jet variables are interned: ``jet`` returns one object per symbol and
multi-index, and variables hash and compare by identity.  A monomial key
holds its even variables as a sorted multiset, each repeated once per unit
of exponent, so an even product is one sort; ``(variable, exponent)``
pairs are built only where a key leaves the ring.

The monomial-key layout is private to this module.  Other modules read a
polynomial through two accessors and may hold what they return only as
an opaque dictionary key:

* ``GradedPoly.monomials`` -- each monomial as its coefficient and its
  ordered ``(JetVariable, exponent)`` factors;
* ``GradedPoly.split_linear`` -- the unique matching variable of each
  monomial factored out to the left or right end, with its graded sign.

``GradedPoly.partial`` takes the left graded partial by one variable,
``GradedPoly.gradient`` the partials by every variable in one pass.
``GradedPoly.involution`` is the grade involution, the one Koszul sign
rule: when an odd object moves past a coefficient, the coefficient's odd
part is negated.
``GradedPoly.sum`` is the one fold, building a sum in one term dict;
``accumulate`` is its keyed, in-place form for a dict of polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement, groupby
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional

EVEN = 0
ODD = 1

KIND_FIELD = "field"
KIND_GHOST = "ghost"
KIND_ANTIFIELD = "antifield"
_KIND_RANK = {KIND_FIELD: 0, KIND_GHOST: 1, KIND_ANTIFIELD: 2}

DEFAULT_JET_CAP = 6

MultiIndex = tuple  # sorted tuple of coordinate indices


class DeclarationError(ValueError):
    """A symbol is declared with a bad kind, parity or base link."""


class EvaluationError(ValueError):
    """A variable occurring in the expression has no assigned value."""


class JetCapError(RuntimeError):
    """An operation would create a jet variable above the configured cap."""

    def __init__(self, order: int, cap: int):
        super().__init__(f"jet order {order} exceeds cap {cap}")
        self.order = order
        self.cap = cap


class InternalError(AssertionError):
    """A constructed object failed the exact re-check that its builder
    runs on it: a fault in the program, not in the model.  The message
    names the check."""


# ---------------------------------------------------------------------------
# multi-indices (symmetric, stored as sorted tuples; multiset semantics)

def multi_index(indices: Iterable[int]) -> MultiIndex:
    out = tuple(sorted(indices))
    if any((not isinstance(i, int)) or i < 0 for i in out):
        raise ValueError(f"bad multi-index {out!r}")
    return out


def mi_add(index: MultiIndex, lam: int) -> MultiIndex:
    return tuple(sorted(index + (lam,)))


def mi_remove(index: MultiIndex, lam: int) -> MultiIndex:
    pos = index.index(lam)
    return index[:pos] + index[pos + 1:]


def mi_subtract(big: MultiIndex, small: MultiIndex) -> MultiIndex:
    out = list(big)
    for i in small:
        out.remove(i)
    return tuple(out)


def mi_binomial(big: MultiIndex, small: MultiIndex) -> int:
    """Multiset binomial: number of ways to pick `small` inside `big`."""
    prod = 1
    for i in set(small):
        prod *= math.comb(big.count(i), small.count(i))
    return prod


def mi_permutations(index: MultiIndex) -> int:
    """Number of distinct orderings of the multi-index entries."""
    num = math.factorial(len(index))
    for i in set(index):
        num //= math.factorial(index.count(i))
    return num


def multi_indices(dim: int, order: int) -> Iterator[MultiIndex]:
    """All multi-indices of exactly the given order over dim coordinates."""
    return combinations_with_replacement(range(dim), order)


def multi_indices_up_to(dim: int, order: int) -> Iterator[MultiIndex]:
    for k in range(order + 1):
        yield from multi_indices(dim, k)


# ---------------------------------------------------------------------------
# symbols and jet variables

class FieldSymbol:
    """A declared generator: field, ghost or antifield.

    Antifields link back to the field they pair with and carry opposite
    parity.  Instances are immutable, compare and hash by value, and
    pickle by value.
    """

    __slots__ = ("name", "kind", "parity", "base", "_hash", "_tie")

    def __init__(self, name: str, kind: str = KIND_FIELD, parity: int = EVEN,
                 base: Optional["FieldSymbol"] = None):
        if kind not in _KIND_RANK:
            raise DeclarationError(f"unknown symbol kind {kind!r}")
        if parity not in (EVEN, ODD):
            raise DeclarationError(f"parity must be 0 or 1, got {parity!r}")
        if kind == KIND_ANTIFIELD:
            if base is None:
                raise DeclarationError(f"antifield {name!r} needs a base field")
            if parity != (base.parity + 1) % 2:
                raise DeclarationError(
                    f"antifield {name!r} parity must be opposite to its base")
        elif base is not None:
            raise DeclarationError(f"{kind} {name!r} cannot carry a base link")
        init = object.__setattr__
        init(self, "name", name)
        init(self, "kind", kind)
        init(self, "parity", parity)
        init(self, "base", base)
        init(self, "_hash", hash((name, kind, parity, base)))
        # orders distinct symbols that share kind and name (see var_key)
        init(self, "_tie", (parity, () if base is None else
                            (_KIND_RANK[base.kind], base.name, base._tie)))

    def __setattr__(self, name, value=None):
        raise AttributeError("FieldSymbol is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return FieldSymbol, (self.name, self.kind, self.parity, self.base)

    def __repr__(self):
        return (f"FieldSymbol(name={self.name!r}, kind={self.kind!r}, "
                f"parity={self.parity!r}, base={self.base!r})")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not FieldSymbol:
            return NotImplemented
        return (self._hash == other._hash and self.name == other.name
                and self.kind == other.kind and self.parity == other.parity
                and self.base == other.base)

    @property
    def sort_key(self):
        return (_KIND_RANK[self.kind], self.name)


class JetVariable:
    """The jet variable ``symbol`` differentiated by ``index``.

    Variables are interned (hash-consed): equal ``(symbol, index)`` pairs
    give one object, so hashing and equality are by identity.  ``key`` is
    the ``var_key`` tuple, built once; ``_next`` maps a base coordinate to
    the variable one derivative higher (see ``bump``).  Instances are
    immutable; build them with ``jet``.  The table lives as long as the
    process: one entry per distinct symbol and multi-index built, so it is
    bounded by the symbols times their multi-indices up to the jet cap."""

    __slots__ = ("symbol", "index", "parity", "key", "_next")
    _table: dict = {}

    def __new__(cls, symbol: FieldSymbol, index: MultiIndex):
        v = cls._table.get((symbol, index))
        if v is None:
            v = object.__new__(cls)
            init = object.__setattr__
            init(v, "symbol", symbol)
            init(v, "index", index)
            init(v, "parity", symbol.parity)
            init(v, "key", (_KIND_RANK[symbol.kind], symbol.name, index,
                            symbol._tie))
            init(v, "_next", {})
            cls._table[(symbol, index)] = v
        return v

    def __setattr__(self, name, value):
        raise AttributeError("JetVariable is immutable")

    def __reduce__(self):
        return JetVariable, (self.symbol, self.index)

    def __repr__(self):
        return f"JetVariable(symbol={self.symbol!r}, index={self.index!r})"


def jet(symbol: FieldSymbol, index: Iterable[int] = ()) -> JetVariable:
    return JetVariable(symbol, multi_index(index))


def var_key(v: JetVariable):
    """Global variable order: (kind, name, multi-index lexicographic), then
    parity and base, so that distinct variables never share a key."""
    return v.key


def bump(v: JetVariable, lam: int, cap: int) -> JetVariable:
    """d_lam of v.  The cap is checked before the successor memo, so a
    successor built under a higher cap is not returned under a lower one."""
    if len(v.index) >= cap:
        raise JetCapError(len(v.index) + 1, cap)
    out = v._next.get(lam)
    if out is None:
        out = v._next[lam] = JetVariable(v.symbol, mi_add(v.index, lam))
    return out


# ---------------------------------------------------------------------------
# monomial keys
#
# A term key is a pair (even, odd) of variable tuples sorted by var_key:
#   even: the even JetVariables, each repeated once per unit of exponent
#         (a sorted multiset, so a product of two is one C-level sort);
#   odd:  distinct odd JetVariables (odd squares vanish).
# The monomial value is coeff * prod(even factors) * prod(odd factors).
# ``_pairs`` builds (variable, exponent) pairs only where a key leaves the
# ring.

_by_key = attrgetter("key")


def _merge_odd(a, b):
    """Merge two sorted odd tuples; returns (tuple, sign) or None if a
    variable repeats (odd squares vanish)."""
    if not a:
        return b, 1
    if not b:
        return a, 1
    sign = 1
    out = []
    i = j = 0
    na = len(a)
    while i < na and j < len(b):
        va, vb = a[i], b[j]
        if va is vb:
            return None
        if va.key < vb.key:
            out.append(va)
            i += 1
        else:
            if (na - i) % 2:
                sign = -sign
            out.append(vb)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def _pairs(even) -> tuple:
    """The sorted even multiset as ``(JetVariable, exponent)`` pairs."""
    return tuple((v, len(list(run))) for v, run in groupby(even))


def _key_parity(key) -> int:
    return len(key[1]) % 2


def _key_degree(key) -> int:
    even, odd = key
    return len(even) + len(odd)


def _key_order(key) -> int:
    even, odd = key
    return max([len(v.index) for v in even + odd], default=0)


def _key_sort(key):
    """Graded-lexicographic monomial order (degree, then variable sequence)."""
    even, odd = key
    seq = [(v.key, e) for v, e in _pairs(even)] + [(v.key, 1) for v in odd]
    seq.sort()
    return (_key_degree(key), tuple(seq))


_EMPTY_KEY = ((), ())


def _put(out: dict, key, c: int) -> None:
    """out[key] += c for a nonzero int c, dropping a zero sum."""
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        del out[key]


def _coeff(c: int, den: int):
    """The rational c/den in lowest terms: ``int`` when integral, else
    ``Fraction``."""
    if den == 1:
        return c
    q, r = divmod(c, den)
    return Fraction(c, den) if r else q


class GradedPoly:
    """Canonical-form polynomial: a mapping from monomial keys to nonzero
    integer numerators, over the common denominator ``den``."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: Optional[Mapping] = None):
        """Takes ``{key: rational}``, ``int`` and ``Fraction`` values mixed;
        zeros are dropped and ``den`` is the lcm of the denominators."""
        self.terms, self.den = {}, 1
        if terms:
            coeffs = {k: c if c.__class__ is int else Fraction(c)
                      for k, c in terms.items() if c != 0}
            den = self.den = math.lcm(*[c.denominator
                                        for c in coeffs.values()])
            self.terms = {k: c.numerator * (den // c.denominator)
                          for k, c in coeffs.items()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "GradedPoly":
        return GradedPoly()

    @staticmethod
    def constant(c) -> "GradedPoly":
        if c.__class__ is int:
            return _poly({_EMPTY_KEY: c} if c else {})
        return GradedPoly({_EMPTY_KEY: c})

    @staticmethod
    def variable(v: JetVariable) -> "GradedPoly":
        if v.parity == ODD:
            return _poly({((), (v,)): 1})
        return _poly({((v,), ()): 1})

    # -- ring structure -----------------------------------------------------

    @staticmethod
    def sum(polys: Iterable) -> "GradedPoly":
        """The sum of the polynomials ``polys`` in one term dict: the first
        nonzero operand's terms are copied once and every later term is
        written through ``_put``, each operand as it arrives, over the lcm
        of the denominators seen so far.  No operand changes; the empty sum
        is zero."""
        polys = iter(polys)
        first = next((p for p in polys if p.terms), None)
        if first is None:
            return GradedPoly()
        out = None
        den = first.den
        for p in polys:
            if not p.terms:
                continue
            if out is None:
                out = dict(first.terms)
            if den % p.den:
                grown = math.lcm(den, p.den)
                scale = grown // den
                out = {k: c * scale for k, c in out.items()}
                den = grown
            scale = den // p.den
            for k, c in p.terms.items():
                _put(out, k, c * scale)
        return first if out is None else _reduced(out, den)

    def __add__(self, other):
        other = _coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return GradedPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return _poly({k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if (other.__class__ is not GradedPoly
                and isinstance(other, (int, Fraction))):
            if other == 1:
                return self
            if other == -1:
                return -self
            if other == 0:
                return GradedPoly()
            num = other.numerator
            return _reduced({k: c * num for k, c in self.terms.items()},
                            self.den * other.denominator)
        other = _coerce(other)
        out = {}
        for (e1, o1), c1 in self.terms.items():
            for (e2, o2), c2 in other.terms.items():
                merged = _merge_odd(o1, o2)
                if merged is None:
                    continue
                odd, sign = merged
                _put(out, (tuple(sorted(e1 + e2, key=_by_key)), odd),
                     c1 * c2 if sign == 1 else -c1 * c2)
        return _reduced(out, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return _coerce(other) * self

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not in the ring")
        out = GradedPoly.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- inspection ---------------------------------------------------------

    @property
    def parity(self) -> Optional[int]:
        """0 or 1 for parity-homogeneous polynomials, None if mixed."""
        parities = {_key_parity(k) for k in self.terms}
        if not parities:
            return None
        if len(parities) == 1:
            return parities.pop()
        return None

    def parity_part(self, p: int) -> "GradedPoly":
        return _reduced({k: c for k, c in self.terms.items()
                         if _key_parity(k) == p}, self.den)

    def involution(self) -> "GradedPoly":
        """The grade involution: odd monomials negated, even ones kept.  An
        odd object moved past this polynomial leaves it as its involution."""
        return _poly({k: -c if len(k[1]) % 2 else c
                      for k, c in self.terms.items()}, self.den)

    def jet_order(self) -> int:
        return max((_key_order(k) for k in self.terms), default=0)

    def degree(self) -> int:
        return max((_key_degree(k) for k in self.terms), default=0)

    def variables(self) -> set:
        out = set()
        for even, odd in self.terms:
            out.update(even)
            out.update(odd)
        return out

    def symbols(self) -> set:
        return {v.symbol for v in self.variables()}

    def sorted_terms(self):
        """``(key, numerator)`` pairs in the canonical graded-lex order."""
        return sorted(self.terms.items(), key=lambda it: _key_sort(it[0]))

    def constant_term(self) -> int | Fraction:
        return _coeff(self.terms.get(_EMPTY_KEY, 0), self.den)

    def monomials(self, ordered: bool = False):
        """Yield ``(coefficient, factors)`` per monomial, the coefficient in
        lowest terms (``int`` when integral).  The factors are
        ``(JetVariable, exponent)`` pairs in product order: the even
        variables, then the odd ones (exponent 1), each block sorted by
        ``var_key``; equal monomials give equal factor tuples.  ``ordered``
        walks the canonical graded-lex order, otherwise storage order."""
        den = self.den
        for (even, odd), c in (self.sorted_terms() if ordered
                               else self.terms.items()):
            yield _coeff(c, den), _pairs(even) + tuple((v, 1) for v in odd)

    def split_linear(self, match, side: str = "right"):
        """Factor out the one variable v of each monomial satisfying match:
        monomial = coefficient * v (side 'right') or v * coefficient (side
        'left'), v moved past the odd factors with the graded sign.

        Returns ({v: coefficient}, remainder of the monomials free of
        matches); raises ValueError on a monomial of higher degree."""
        table = {}
        remainder = {}
        for (even, odd), c in self.terms.items():
            hits = [i for i, v in enumerate(even) if match(v)]
            odd_hits = [i for i, v in enumerate(odd) if match(v)]
            if not hits and not odd_hits:
                remainder[(even, odd)] = c
                continue
            if len(hits) + len(odd_hits) > 1:
                raise ValueError("monomial is not linear in the matched variables")
            if hits:
                i = hits[0]
                v = even[i]
                rest, sign = (even[:i] + even[i + 1:], odd), 1
            else:
                i = odd_hits[0]
                v = odd[i]
                rest = (even, odd[:i] + odd[i + 1:])
                moved = i if side == "left" else len(odd) - 1 - i
                sign = -1 if moved % 2 else 1
            table.setdefault(v, {})[rest] = c * sign
        den = self.den
        return ({v: _reduced(t, den) for v, t in table.items()},
                _reduced(remainder, den))

    # -- derivations --------------------------------------------------------

    def partial(self, v: JetVariable) -> "GradedPoly":
        """Left graded partial derivative with respect to a jet variable."""
        return self._partials(v).get(v) or GradedPoly()

    def gradient(self) -> dict:
        """``{v: self.partial(v)}`` for every variable v, in one pass."""
        return self._partials(None)

    def _partials(self, only: Optional[JetVariable]) -> dict:
        # Removing one factor v is injective on the monomials that hold v,
        # so the keys of one partial never collide and need no collecting.
        # An even v^e is taken once, at the start of its run, times e.
        table = {}
        for (even, odd), c in self.terms.items():
            for i, w in enumerate(even):
                if (only is None or w is only) and not (i and even[i - 1] is w):
                    rest = (even[:i] + even[i + 1:], odd)
                    table.setdefault(w, {})[rest] = c * even.count(w)
            for i, w in enumerate(odd):
                if only is None or w is only:
                    rest = odd[:i] + odd[i + 1:]
                    table.setdefault(w, {})[(even, rest)] = -c if i % 2 else c
        den = self.den
        return {w: _reduced(out, den) for w, out in table.items()}

    def total_derivative(self, lam: int, cap: int = DEFAULT_JET_CAP) -> "GradedPoly":
        """Total derivative d_lam: each factor's jet is bumped (Leibniz)."""
        out = {}
        for (even, odd), c in self.terms.items():
            for i, v in enumerate(even):
                if i and even[i - 1] is v:
                    continue   # v^e is bumped once, at the start of its run
                rest = even[:i] + (bump(v, lam, cap),) + even[i + 1:]
                _put(out, (tuple(sorted(rest, key=_by_key)), odd),
                     c * even.count(v))
            for i, v in enumerate(odd):
                merged = _merge_odd((bump(v, lam, cap),),
                                    odd[:i] + odd[i + 1:])
                if merged is not None:   # the bumped jet moved past i jets
                    new_odd, sign = merged
                    _put(out, (even, new_odd), -c * sign if i % 2 else c * sign)
        return _reduced(out, self.den)

    def total_derivative_multi(self, index: MultiIndex,
                               cap: int = DEFAULT_JET_CAP) -> "GradedPoly":
        p = self
        for lam in index:
            p = p.total_derivative(lam, cap)
        return p

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment: Mapping, algebra):
        """Evaluate in a finite Grassmann algebra.

        Even variables may be assigned rationals or even algebra elements,
        odd variables odd algebra elements (typically distinct generators).
        Each monomial's rational values are folded into one ``int``
        numerator and denominator, so no ``Fraction`` is built, and its
        element values are multiplied in factor order.  The monomials, over
        the lcm of their denominators, are summed with ``algebra.sum`` and
        divided by that lcm times ``den`` once.  The first unassigned
        variable in factor order raises ``EvaluationError``.
        """
        rows = []
        for (even, odd), c in self.terms.items():
            num, den, val = c, 1, None
            for v, e in _pairs(even):
                if v not in assignment:
                    raise EvaluationError(f"no value assigned to {v.symbol.name}{v.index}")
                x = assignment[v]
                if x.__class__ is int:
                    num *= x ** e
                elif x.__class__ is Fraction:
                    num *= x.numerator ** e
                    den *= x.denominator ** e
                else:
                    x = algebra.lift(x) ** e
                    val = x if val is None else val * x
            for v in odd:
                if v not in assignment:
                    raise EvaluationError(f"no value assigned to {v.symbol.name}{v.index}")
                x = algebra.lift(assignment[v])
                val = x if val is None else val * x
            if num:
                rows.append((num, den, val))
        scale = math.lcm(*[den for _, den, _ in rows])
        total = algebra.sum([algebra.scalar(num * (scale // den)) if val is None
                             else val * (num * (scale // den))
                             for num, den, val in rows])
        scale *= self.den
        return total / scale if scale > 1 else total

    def __repr__(self):
        from .render import poly_text
        return f"GradedPoly({poly_text(self)})"


_new = object.__new__


def _poly(terms: dict, den: int = 1) -> GradedPoly:
    """Wrap a term dict of nonzero ints that is already canonical over
    ``den``; the public constructor converts and re-filters."""
    p = _new(GradedPoly)
    p.terms = terms
    p.den = den
    return p


def _reduced(terms: dict, den: int) -> GradedPoly:
    """Wrap a term dict of nonzero ints over ``den``, dividing out the gcd
    of ``den`` and the numerators (all of ``den`` for zero)."""
    if den > 1:
        g = math.gcd(den, *terms.values())
        if g > 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return _poly(terms, den)


def accumulate(acc: dict, key, poly: GradedPoly) -> None:
    """acc[key] += poly, dropping the entry when the sum is zero."""
    cur = acc.get(key)
    s = poly if cur is None else cur + poly
    if s.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = s


def _coerce(x) -> GradedPoly:
    if isinstance(x, GradedPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return GradedPoly.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into the ring")


# ---------------------------------------------------------------------------
# structured serialization (the CLI's machine-readable schema)

_CHUNK = 10 ** 600   # fewer digits than the least int/str limit, 640


def int_text(n: int) -> str:
    """All decimal digits of ``n``, under any int/str digit limit."""
    try:
        return str(n)
    except ValueError:   # past the limit: 600-digit chunks, lowest first
        pass
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0600d}")
    return sign + str(n) + "".join(reversed(chunks))


def coeff_text(c) -> str:
    """A rational ``int`` or ``Fraction`` as ``p`` or ``p/q``, every digit."""
    return int_text(c.numerator) + (
        f"/{int_text(c.denominator)}" if c.denominator != 1 else "")


def poly_to_data(p: GradedPoly) -> list:
    out = []
    for (even, odd), c in p.sorted_terms():
        out.append({
            "coeff": coeff_text(_coeff(c, p.den)),
            "even": [[v.symbol.name, list(v.index), e]
                     for v, e in _pairs(even)],
            "odd": [[v.symbol.name, list(v.index)] for v in odd],
        })
    return out


def poly_to_json(p: GradedPoly, indent: str = "\n") -> str:
    """The text of ``json.dumps(poly_to_data(p), sort_keys=True, indent=2)``
    nested at ``indent`` (a newline and the enclosing indentation), written
    as one string straight from the sorted terms: no monomial dict or list
    is built, and each variable's name and index are written once."""
    if not p.terms:
        return "[]"
    mono, key, factors, entry, digit = (indent + "  " * k for k in range(1, 6))
    heads = {}   # variable -> its factor list up to the exponent
    for v in p.variables():
        index = (f"[{digit}{(',' + digit).join(map(str, v.index))}{entry}]"
                 if v.index else "[]")
        heads[v] = f"[{entry}{_quote(v.symbol.name)},{entry}{index}"
    sep = "," + factors
    den, out = p.den, []
    for (even, odd), c in p.sorted_terms():
        even = (f"[{factors}"
                + sep.join([f"{heads[v]},{entry}{e}{factors}]"
                            for v, e in _pairs(even)])
                + f"{key}]") if even else "[]"
        odd = (f"[{factors}"
               + sep.join([f"{heads[v]}{factors}]" for v in odd])
               + f"{key}]") if odd else "[]"
        out.append(f'{{{key}"coeff": "{coeff_text(_coeff(c, den))}",'
                   f'{key}"even": {even},{key}"odd": {odd}{mono}}}')
    return f"[{mono}" + f",{mono}".join(out) + f"{indent}]"
