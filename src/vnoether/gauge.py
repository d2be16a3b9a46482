"""Antifields, the Koszul-Tate differential, Noether identities and the
gauge symmetry they generate.

A Noether operator is a finite coefficient family Delta^{A,I}; it verifies
against a Lagrangian when the contraction with the prolonged
Euler-Lagrange expressions vanishes identically.  Its formal adjoint,
applied to a ghost, yields the gauge symmetry; taking the adjoint again
recovers the operator (the involution is an executable test).

Sign conventions: the Koszul-Tate differential is an odd right derivation,
    kt(x y) = x kt(y) + (-1)^[y] kt(x) y,
which on a canonical monomial inserts the replacement at the position of
the antifield with the parity sign of the factors to its right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .algebra import (DEFAULT_JET_CAP, KIND_ANTIFIELD, KIND_GHOST, ODD,
                      FieldSymbol, GradedPoly, jet, mi_binomial,
                      mi_subtract)
from .forms import (GeneralizedVectorField, MixedForm, contract,
                    lie_derivative, prolong)
from .variational import (Current, EulerLagrange, Lagrangian, euler_lagrange,
                          lepage_equivalent, noether_current)


class GaugeError(ValueError):
    """A declared identity or ghost fails its consistency requirements."""


def antifield(sym: FieldSymbol) -> FieldSymbol:
    """The conjugate antifield: opposite parity, linked to its base."""
    if sym.kind == KIND_ANTIFIELD:
        raise ValueError("antifields of antifields are out of scope")
    return FieldSymbol(sym.name + "~", KIND_ANTIFIELD, (sym.parity + 1) % 2,
                       base=sym)


def antifield_number(p: GradedPoly) -> int:
    """Largest per-monomial count of antifield factors."""
    best = 0
    for even, odd in p.terms:
        count = sum(e for v, e in even if v.symbol.kind == KIND_ANTIFIELD)
        count += sum(1 for v in odd if v.symbol.kind == KIND_ANTIFIELD)
        best = max(best, count)
    return best


def koszul_tate(p: GradedPoly, el: EulerLagrange,
                cap: int = DEFAULT_JET_CAP) -> GradedPoly:
    """Right derivation replacing each antifield jet by the prolonged
    Euler-Lagrange expression of its base field."""
    out = GradedPoly.zero()
    for (even, odd), coeff in p.terms.items():
        # even antifield occurrences sit left of the whole odd block: the
        # derivation sign counts every odd factor, and the replacement is
        # inserted in place (before the odd block)
        odd_parity = len(odd) % 2
        for i, (v, e) in enumerate(even):
            if v.symbol.kind != KIND_ANTIFIELD:
                continue
            repl = el.component(v.symbol.base).total_derivative_multi(v.index, cap)
            if repl.is_zero():
                continue
            rest = even[:i] + (((v, e - 1),) if e > 1 else ()) + even[i + 1:]
            sign = -1 if odd_parity else 1
            left = GradedPoly({(rest, ()): coeff * e * sign})
            right = GradedPoly({((), odd): Fraction(1)})
            out = out + left * repl * right
        # odd antifield occurrences at position i: the derivation sign counts
        # the factors strictly to the right, the replacement stays in place
        for i, v in enumerate(odd):
            if v.symbol.kind != KIND_ANTIFIELD:
                continue
            repl = el.component(v.symbol.base).total_derivative_multi(v.index, cap)
            if repl.is_zero():
                continue
            sign = -1 if (len(odd) - 1 - i) % 2 else 1
            left = GradedPoly({(even, odd[:i]): coeff * sign})
            right = GradedPoly({((), odd[i + 1:]): Fraction(1)})
            out = out + left * repl * right
    return out


# ---------------------------------------------------------------------------
# Noether operators

@dataclass
class NoetherOperator:
    """Coefficient family of one differential identity between the
    Euler-Lagrange expressions: sum of Delta^{A,I} d_I E_A = 0."""

    name: str
    coefficients: dict  # (FieldSymbol, MultiIndex) -> GradedPoly

    def __post_init__(self):
        self.coefficients = {k: p for k, p in self.coefficients.items()
                             if not p.is_zero()}

    def sorted_items(self):
        return sorted(self.coefficients.items(),
                      key=lambda it: (it[0][0].sort_key, it[0][1]))

    @property
    def parity(self) -> int:
        """Parity of the contracted antifield density (coefficient parity
        plus antifield parity), validated uniform across terms."""
        parities = set()
        for (sym, _), poly in self.coefficients.items():
            p = poly.parity
            if p is None:
                raise GaugeError(f"identity {self.name!r} has mixed-parity terms")
            parities.add((p + sym.parity + 1) % 2)
        if not parities:
            return ODD
        if len(parities) > 1:
            raise GaugeError(f"identity {self.name!r} has inconsistent parity")
        return parities.pop()

    def density(self) -> GradedPoly:
        """The antifield contraction: sum of Delta^{A,I} abar_{I A}."""
        out = GradedPoly.zero()
        for (sym, index), poly in self.sorted_items():
            out = out + poly * GradedPoly.variable(jet(antifield(sym), index))
        return out

    def contraction(self, el: EulerLagrange,
                    cap: int = DEFAULT_JET_CAP) -> GradedPoly:
        out = GradedPoly.zero()
        for (sym, index), poly in self.sorted_items():
            out = out + poly * el.component(sym).total_derivative_multi(index, cap)
        return out

    def is_zero(self) -> bool:
        return not self.coefficients


def noether_operator_from_density(p: GradedPoly, name: str = "") -> NoetherOperator:
    """Read the coefficient family off an antifield-linear density."""
    coeffs: Dict[tuple, GradedPoly] = {}
    for (even, odd), c in p.terms.items():
        anti_even = [(i, v, e) for i, (v, e) in enumerate(even)
                     if v.symbol.kind == KIND_ANTIFIELD]
        anti_odd = [(i, v) for i, v in enumerate(odd)
                    if v.symbol.kind == KIND_ANTIFIELD]
        count = sum(e for _, _, e in anti_even) + len(anti_odd)
        if count != 1:
            raise GaugeError("density is not antifield-linear")
        # factor the monomial as coefficient * antifield with the antifield
        # moved to the right end; an even antifield moves freely
        if anti_even:
            i, v, _ = anti_even[0]
            rest = (even[:i] + even[i + 1:], odd)
            sign = 1
        else:
            i, v = anti_odd[0]
            rest = (even, odd[:i] + odd[i + 1:])
            sign = -1 if (len(odd) - 1 - i) % 2 else 1
        key = (v.symbol.base, v.index)
        cur = coeffs.get(key, GradedPoly.zero())
        coeffs[key] = cur + GradedPoly({rest: c * sign})
    return NoetherOperator(name, coeffs)


def check_noether_identity(op: NoetherOperator, el: EulerLagrange,
                           cap: int = DEFAULT_JET_CAP) -> bool:
    return op.contraction(el, cap).is_zero()


def ghost_for(op: NoetherOperator, name: str) -> FieldSymbol:
    """A ghost inherits the parity of its Noether operator."""
    return FieldSymbol(name, KIND_GHOST, op.parity)


# ---------------------------------------------------------------------------
# formal adjoint and the gauge symmetry

def adjoint_table(op: NoetherOperator, dim: int,
                  cap: int = DEFAULT_JET_CAP) -> dict:
    """Coefficients of the formal adjoint: all total derivatives moved off
    the Euler-Lagrange factor onto the parameter slot,

        eta^{A,S} = sum over I containing S of
                    (-1)^|I| binom(I,S) d_{I-S} Delta^{A,I}.
    """
    out: Dict[tuple, GradedPoly] = {}
    for (sym, index), poly in op.coefficients.items():
        sign = -1 if len(index) % 2 else 1
        for k in range(len(index) + 1):
            for sub in {tuple(sorted(s)) for s in _subindices(index, k)}:
                coeff = (poly.total_derivative_multi(mi_subtract(index, sub), cap)
                         * Fraction(sign * mi_binomial(index, sub)))
                if coeff.is_zero():
                    continue
                key = (sym, sub)
                cur = out.get(key, GradedPoly.zero())
                s = cur + coeff
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
    return out


def _subindices(index, k):
    from itertools import combinations
    return combinations(index, k)


def adjoint(op: NoetherOperator, ghost: FieldSymbol, dim: int,
            cap: int = DEFAULT_JET_CAP) -> GeneralizedVectorField:
    """The gauge-symmetry components u^A = sum (-d)_I (ghost Delta^{A,I});
    the eta-coefficient expansion is computed independently and checked."""
    if ghost.parity != op.parity:
        raise GaugeError("ghost parity must match the identity parity")
    comps: Dict[FieldSymbol, GradedPoly] = {}
    gvar = GradedPoly.variable(jet(ghost))
    for (sym, index), poly in op.coefficients.items():
        term = (gvar * poly).total_derivative_multi(index, cap)
        if len(index) % 2:
            term = -term
        cur = comps.get(sym, GradedPoly.zero())
        comps[sym] = cur + term
    eta = adjoint_table(op, dim, cap)
    recomposed: Dict[FieldSymbol, GradedPoly] = {}
    for (sym, sub), coeff in eta.items():
        cur = recomposed.get(sym, GradedPoly.zero())
        recomposed[sym] = cur + GradedPoly.variable(jet(ghost, sub)) * coeff
    for sym in set(comps) | set(recomposed):
        a = comps.get(sym, GradedPoly.zero())
        b = recomposed.get(sym, GradedPoly.zero())
        if a != b:
            raise AssertionError("adjoint expansions disagree")
    return GeneralizedVectorField.make(comps)


def collect_ghost_linear(p: GradedPoly, ghost: FieldSymbol,
                         side: str = "left") -> Tuple[dict, GradedPoly]:
    """Factor each monomial as coefficient * ghost jet (side='right': the
    ghost is moved to the right end; side='left': to the front).  Returns
    ({multi-index: coefficient}, ghost-free remainder); monomials of ghost
    degree above one are rejected."""
    table: Dict[tuple, GradedPoly] = {}
    remainder = GradedPoly.zero()
    for (even, odd), c in p.terms.items():
        hits_even = [(i, v, e) for i, (v, e) in enumerate(even) if v.symbol == ghost]
        hits_odd = [(i, v) for i, v in enumerate(odd) if v.symbol == ghost]
        degree = sum(e for _, _, e in hits_even) + len(hits_odd)
        if degree == 0:
            remainder = remainder + GradedPoly({(even, odd): c})
            continue
        if degree != 1:
            raise GaugeError("expression is not ghost-linear")
        if hits_even:
            i, v, _ = hits_even[0]
            rest = (even[:i] + even[i + 1:], odd)
            sign = 1
        else:
            i, v = hits_odd[0]
            rest = (even, odd[:i] + odd[i + 1:])
            moved = i if side == "left" else (len(odd) - 1 - i)
            sign = -1 if moved % 2 else 1
        cur = table.get(v.index, GradedPoly.zero())
        s = cur + GradedPoly({rest: c * sign})
        if s.is_zero():
            table.pop(v.index, None)
        else:
            table[v.index] = s
    return table, remainder


def recover_identity(u: GeneralizedVectorField, ghost: FieldSymbol,
                     L: Lagrangian, name: str = "") -> NoetherOperator:
    """Invert the adjoint: collect the ghost-jet coefficients of u and move
    the total derivatives back; the involution returns the original
    operator coefficients."""
    coeffs: Dict[tuple, GradedPoly] = {}
    for sym, poly in u.vertical:
        table, remainder = collect_ghost_linear(poly, ghost, side="left")
        if not remainder.is_zero():
            raise GaugeError("symmetry components must be ghost-linear")
        for index, eta in table.items():
            sign = -1 if len(index) % 2 else 1
            for k in range(len(index) + 1):
                for sub in {tuple(sorted(s)) for s in _subindices(index, k)}:
                    coeff = (eta.total_derivative_multi(
                        mi_subtract(index, sub), L.jet_cap)
                        * Fraction(sign * mi_binomial(index, sub)))
                    if coeff.is_zero():
                        continue
                    key = (sym, sub)
                    cur = coeffs.get(key, GradedPoly.zero())
                    s = cur + coeff
                    if s.is_zero():
                        coeffs.pop(key, None)
                    else:
                        coeffs[key] = s
    return NoetherOperator(name, coeffs)


@dataclass
class GaugeSymmetryResult:
    symmetry: GeneralizedVectorField
    sigma: MixedForm          # horizontal (n-1)-form with d_H sigma = u^A E_A omega
    current: Current


def _by_parts_witness(op: NoetherOperator, ghost: FieldSymbol,
                      el: EulerLagrange, dim: int, cap: int) -> dict:
    """Components of a divergence witness for the contracted source term.

    Peeling one derivative at a time from (-d)_I(ghost Delta) E and using
    that the identity kills the fully transferred term gives

        sum (-d)_I(q) E = d_mu sigma^mu,
        sigma^mu accumulating (-1)^(k+1) d_(first k)(q) d_(rest)(E)

    at the index peeled in step k.  Exact by construction; no search."""
    comps = {mu: GradedPoly.zero() for mu in range(dim)}
    gvar = GradedPoly.variable(jet(ghost))
    for (sym, index), delta in op.sorted_items():
        e_comp = el.component(sym)
        if e_comp.is_zero():
            continue
        q = gvar * delta
        sign = -1
        tail = index
        while tail:
            lam = tail[-1]
            rest = tail[:-1]
            term = q * e_comp.total_derivative_multi(rest, cap)
            comps[lam] = comps[lam] + term * Fraction(sign)
            q = q.total_derivative(lam, cap)
            sign = -sign
            tail = rest
    return comps


def gauge_symmetry(op: NoetherOperator, ghost: FieldSymbol,
                   L: Lagrangian) -> GaugeSymmetryResult:
    """Second Noether theorem, constructively.

    Refuses when the identity fails.  The divergence witness sigma comes
    from exact integration by parts of the contracted source (zero for
    exact symmetries); it is re-verified before the current is formed.
    """
    el = euler_lagrange(L)
    if not check_noether_identity(op, el, L.jet_cap):
        raise GaugeError(f"identity {op.name!r} does not hold")
    u = adjoint(op, ghost, L.dim, L.jet_cap)
    deriv = prolong(u, L.dim, L.jet_cap)
    lie = lie_derivative(deriv, L.form(), L.jet_cap)
    boundary = contract(deriv, lepage_equivalent(L)).horizontal_part()
    if lie.is_zero():
        witness = MixedForm.zero(L.dim)
    else:
        sigma_parts = _by_parts_witness(op, ghost, el, L.dim, L.jet_cap)
        witness = Current(sigma_parts, L.dim).form() + boundary
        check = witness.horizontal_differential(L.jet_cap) - lie
        if not check.is_zero():
            raise AssertionError("gauge witness failed its re-check")
    sigma = witness - boundary
    # sigma must be an antiderivative of the contracted source term
    source = GradedPoly.zero()
    for sym, poly in u.vertical:
        source = source + poly * el.component(sym)
    check = sigma.horizontal_differential(L.jet_cap) - MixedForm.density(
        source, L.dim)
    if not check.is_zero():
        raise AssertionError("gauge witness failed its re-check")
    current = noether_current(u, L, witness)
    return GaugeSymmetryResult(u, sigma, current)


def extended_lagrangian(L: Lagrangian,
                        identities: Sequence[Tuple[NoetherOperator, FieldSymbol]],
                        validate: bool = True,
                        cap: Optional[int] = None) -> GradedPoly:
    """Original density plus ghost times the antifield contraction of each
    identity; the Koszul-Tate variation of the result must vanish."""
    cap = cap if cap is not None else L.jet_cap
    out = L.density
    for op, ghost in identities:
        if ghost.parity != op.parity:
            raise GaugeError("ghost parity must match the identity parity")
        out = out + GradedPoly.variable(jet(ghost)) * op.density()
    if validate:
        el = euler_lagrange(L)
        residual = koszul_tate(out, el, cap)
        if not residual.is_zero():
            raise GaugeError("Koszul-Tate variation of the extended "
                             "Lagrangian is nonzero: identities do not hold")
    return out
