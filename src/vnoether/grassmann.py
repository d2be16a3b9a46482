"""Finite-dimensional Grassmann algebra with exact rational coefficients.

Used as the target of numeric cross-checks: even jets are assigned
rationals, odd jets distinct generators, and symbolic identities are
re-evaluated exactly.  Coefficients are ``int`` when integral, else
``Fraction``; the oracle keeps this rule itself and shares no arithmetic
with the ring it checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional


def _canon(c):
    """Any rational as ``int`` when integral, else as ``Fraction``."""
    if c.__class__ is not Fraction:
        if c.__class__ is int:
            return c
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _put(out: dict, key, c) -> None:
    """out[key] += c for a nonzero c, keeping the rule, dropping zeros."""
    s = out.get(key, 0) + c
    if not s:
        del out[key]
    elif s.__class__ is Fraction and s.denominator == 1:
        out[key] = s.numerator
    else:
        out[key] = s


class GrassmannAlgebra:
    """Exterior algebra on a fixed number of anticommuting generators."""

    def __init__(self, ngen: int):
        if ngen < 0:
            raise ValueError("generator count must be non-negative")
        self.ngen = ngen

    def zero(self) -> "GrassmannElement":
        return GrassmannElement(self, {})

    def one(self) -> "GrassmannElement":
        return self.scalar(1)

    def scalar(self, c) -> "GrassmannElement":
        c = _canon(c)
        return GrassmannElement(self, {(): c} if c else {})

    def generator(self, i: int) -> "GrassmannElement":
        if not 0 <= i < self.ngen:
            raise ValueError(f"generator index {i} out of range")
        return GrassmannElement(self, {(i,): 1})

    def lift(self, x) -> "GrassmannElement":
        if isinstance(x, GrassmannElement):
            if x.algebra is not self:
                raise ValueError("element belongs to a different algebra")
            return x
        return self.scalar(x)


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
    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GrassmannAlgebra, terms: Mapping):
        self.algebra = algebra
        self.terms = {k: _canon(c) for k, c in terms.items() if c != 0}

    def __add__(self, other):
        other = self.algebra.lift(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _put(out, k, c)
        return _element(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.algebra, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self.algebra.lift(other))

    def __rsub__(self, other):
        return self.algebra.lift(other) + (-self)

    def __mul__(self, other):
        if (other.__class__ is not GrassmannElement
                and isinstance(other, (int, Fraction))):
            return GrassmannElement(self.algebra,
                                    {k: c * other for k, c in self.terms.items()})
        other = self.algebra.lift(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                merged = _merge_gens(k1, k2)
                if merged is None:
                    continue
                key, sign = merged
                _put(out, key, c1 * c2 if sign == 1 else -c1 * c2)
        return _element(self.algebra, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return self.algebra.lift(other) * self

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
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def parity(self) -> Optional[int]:
        parities = {len(k) % 2 for k in self.terms}
        if not parities:
            return None
        return parities.pop() if len(parities) == 1 else None

    def __repr__(self):
        if not self.terms:
            return "GrassmannElement(0)"
        bits = []
        for k in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[k]
            mono = "*".join(f"e{i}" for i in k) or "1"
            bits.append(f"{c}*{mono}")
        return f"GrassmannElement({' + '.join(bits)})"


_new = object.__new__


def _element(algebra: GrassmannAlgebra, terms: dict) -> GrassmannElement:
    """Wrap a term dict that already holds no zero and keeps the coefficient
    rule; the public constructor re-filters."""
    e = _new(GrassmannElement)
    e.algebra = algebra
    e.terms = terms
    return e
