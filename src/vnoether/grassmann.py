"""Finite-dimensional Grassmann algebra with exact rational coefficients.

Used as the target of numeric cross-checks: even jets are assigned
rationals, odd jets distinct generators, and symbolic identities are
re-evaluated exactly.

An element is fraction-free: a dict ``num`` from sorted generator tuples to
nonzero integer numerators, over one common denominator ``den >= 1``, with
``gcd(den, every numerator) == 1`` and ``den == 1`` for zero, so equal
elements have equal ``(num, den)`` and equal hashes.  Products, sums and
scalar multiples do only ``int`` arithmetic, with one ``math.gcd``
reduction per result.  ``terms`` is a read-only view of the coefficients,
each ``int`` when integral, else ``Fraction``.  The oracle keeps this
layout itself and shares no arithmetic with the ring it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional


def _put(out: dict, key, c: int) -> None:
    """out[key] += c for a nonzero int c, dropping a zero sum."""
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        del out[key]


class GrassmannAlgebra:
    """Exterior algebra on a fixed number of anticommuting generators."""

    def __init__(self, ngen: int):
        if ngen < 0:
            raise ValueError("generator count must be non-negative")
        self.ngen = ngen

    def zero(self) -> "GrassmannElement":
        return _element(self, {})

    def one(self) -> "GrassmannElement":
        return _element(self, {(): 1})

    def scalar(self, c) -> "GrassmannElement":
        """The scalar c, any rational; an ``int`` or a ``Fraction`` is read
        as its numerator and denominator."""
        if c.__class__ is int:
            return _element(self, {(): c} if c else {})
        if c.__class__ is not Fraction:
            c = Fraction(c)
        return _element(self, {(): c.numerator} if c else {}, c.denominator)

    def generator(self, i: int) -> "GrassmannElement":
        if not 0 <= i < self.ngen:
            raise ValueError(f"generator index {i} out of range")
        return _element(self, {(i,): 1})

    def lift(self, x) -> "GrassmannElement":
        if isinstance(x, GrassmannElement):
            if x.algebra is not self:
                raise ValueError("element belongs to a different algebra")
            return x
        return self.scalar(x)

    def sum(self, elements: Iterable) -> "GrassmannElement":
        """The sum of ``elements`` in one term dict, over the lcm of the
        denominators seen so far.  No operand changes; the empty sum is
        zero."""
        out, den = {}, 1
        for e in elements:
            if e.algebra is not self:
                raise ValueError("element belongs to a different algebra")
            if den % e.den:
                grown = math.lcm(den, e.den)
                out = {k: c * (grown // den) for k, c in out.items()}
                den = grown
            scale = den // e.den
            for k, c in e.num.items():
                _put(out, k, c * scale)
        return _reduced(self, out, den)


def _merge_gens(a, b):
    """Merge sorted generator tuples; (tuple, sign) or None on repetition."""
    sign = 1
    out = []
    i = j = 0
    na = len(a)
    while i < na and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            if (na - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


class GrassmannElement:
    """Integer numerators ``num`` over the common denominator ``den``."""

    __slots__ = ("algebra", "num", "den")

    def __init__(self, algebra: GrassmannAlgebra, terms: Mapping):
        """Takes ``{generators: rational}``, ``int`` and ``Fraction`` values
        mixed; zeros are dropped and ``den`` is the lcm of the
        denominators."""
        coeffs = {k: c if c.__class__ is int else Fraction(c)
                  for k, c in terms.items() if c != 0}
        den = math.lcm(*[c.denominator for c in coeffs.values()])
        self.algebra = algebra
        self.num = {k: c.numerator * (den // c.denominator)
                    for k, c in coeffs.items()}
        self.den = den

    @property
    def terms(self) -> dict:
        """``{generators: coefficient}``, each ``int`` when integral, else
        ``Fraction``; a fresh dict."""
        den = self.den
        if den == 1:
            return dict(self.num)
        return {k: Fraction(c, den) if c % den else c // den
                for k, c in self.num.items()}

    def __add__(self, other):
        return self.algebra.sum((self, self.algebra.lift(other)))

    __radd__ = __add__

    def __neg__(self):
        return _element(self.algebra, {k: -c for k, c in self.num.items()},
                        self.den)

    def __sub__(self, other):
        return self + (-self.algebra.lift(other))

    def __rsub__(self, other):
        return self.algebra.lift(other) + (-self)

    def __mul__(self, other):
        if (other.__class__ is not GrassmannElement
                and isinstance(other, (int, Fraction))):
            num = other.numerator
            if not num:
                return _element(self.algebra, {})
            return _reduced(self.algebra,
                            {k: c * num for k, c in self.num.items()},
                            self.den * other.denominator)
        other = self.algebra.lift(other)
        out = {}
        for k1, c1 in self.num.items():
            for k2, c2 in other.num.items():
                merged = _merge_gens(k1, k2)
                if merged is None:
                    continue
                key, sign = merged
                _put(out, key, c1 * c2 if sign == 1 else -c1 * c2)
        return _reduced(self.algebra, out, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return self.algebra.lift(other) * self

    def __truediv__(self, other):
        """Division by a nonzero ``int`` or ``Fraction``."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        num, den = other.denominator, other.numerator
        if not den:
            raise ZeroDivisionError("division of an element by zero")
        if den < 0:
            num, den = -num, -den
        return _reduced(self.algebra,
                        {k: c * num for k, c in self.num.items()},
                        self.den * den)

    def __pow__(self, k: int):
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den))

    def is_zero(self) -> bool:
        return not self.num

    @property
    def parity(self) -> Optional[int]:
        parities = {len(k) % 2 for k in self.num}
        if not parities:
            return None
        return parities.pop() if len(parities) == 1 else None

    def __repr__(self):
        if not self.num:
            return "GrassmannElement(0)"
        terms = self.terms
        bits = []
        for k in sorted(terms, key=lambda t: (len(t), t)):
            mono = "*".join(f"e{i}" for i in k) or "1"
            bits.append(f"{terms[k]}*{mono}")
        return f"GrassmannElement({' + '.join(bits)})"


_new = object.__new__


def _element(algebra: GrassmannAlgebra, num: dict,
             den: int = 1) -> GrassmannElement:
    """Wrap a dict of nonzero int numerators that is already reduced over
    ``den``; the public constructor converts and re-filters."""
    e = _new(GrassmannElement)
    e.algebra = algebra
    e.num = num
    e.den = den
    return e


def _reduced(algebra: GrassmannAlgebra, num: dict,
             den: int) -> GrassmannElement:
    """Wrap a dict of nonzero int numerators over ``den``, dividing out the
    gcd of ``den`` and the numerators (all of ``den`` for zero)."""
    if den > 1:
        g = math.gcd(den, *num.values())
        if g > 1:
            den //= g
            num = {k: c // g for k, c in num.items()}
    return _element(algebra, num, den)
