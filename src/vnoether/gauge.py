"""Antifields, the Koszul-Tate differential, Noether identities and the
gauge symmetry they generate.

A Noether operator is a finite coefficient family Delta^{A,I}; it verifies
against a Lagrangian when the contraction with the prolonged
Euler-Lagrange expressions vanishes identically.  Its formal adjoint,
applied to a ghost, yields the gauge symmetry; taking the adjoint again
recovers the operator (the involution is an executable test).

Sign conventions: the Koszul-Tate differential is an odd right derivation,
    kt(x y) = x kt(y) + (-1)^[y] kt(x) y,
so kt(p) is the sum over antifield jets a of the right partial of p by a
times kt(a).  The right partial is the left one for even a and the
involution of the left partial (``GradedPoly.involution``) for odd a.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from .algebra import (DEFAULT_JET_CAP, KIND_ANTIFIELD, KIND_GHOST, ODD,
                      FieldSymbol, GradedPoly, InternalError, JetCapError,
                      accumulate, jet, var_key)
from .forms import GeneralizedVectorField, contract
from .variational import (Current, EulerLagrange, ExactnessResult, Lagrangian,
                          expand_witness, prolonged_variation,
                          symmetry_witness, transfer_derivatives)


class GaugeError(ValueError):
    """A declared identity or ghost fails its consistency requirements.
    A failing identity carries its nonzero contraction as ``residual``."""

    def __init__(self, message: str, residual: Optional[GradedPoly] = None):
        super().__init__(message)
        self.residual = residual


def antifield(sym: FieldSymbol) -> FieldSymbol:
    """The conjugate antifield: opposite parity, linked to its base."""
    if sym.kind == KIND_ANTIFIELD:
        raise ValueError("antifields of antifields are out of scope")
    return FieldSymbol(sym.name + "~", KIND_ANTIFIELD, (sym.parity + 1) % 2,
                       base=sym)


def _is_antifield(v) -> bool:
    return v.symbol.kind == KIND_ANTIFIELD


def antifield_number(p: GradedPoly) -> int:
    """Largest per-monomial count of antifield factors."""
    return p.degree_in(_is_antifield)


def koszul_tate(p: GradedPoly, el: EulerLagrange,
                cap: int = DEFAULT_JET_CAP) -> GradedPoly:
    """Right derivation replacing each antifield jet by the prolonged
    Euler-Lagrange expression of its base field."""
    terms = []
    gradient = p.gradient()
    for a in sorted(filter(_is_antifield, gradient), key=var_key):
        repl = el.component(a.symbol.base).total_derivative_multi(a.index, cap)
        if repl.is_zero():
            continue
        left = gradient[a]
        terms.append((left.involution() if a.parity else left) * repl)
    return GradedPoly.sum(terms)


# ---------------------------------------------------------------------------
# Noether operators

class NoetherOperator:
    """Coefficient family of one differential identity between the
    Euler-Lagrange expressions: sum of Delta^{A,I} d_I E_A = 0.  Zero
    coefficients are dropped; operators compare by value."""

    def __init__(self, name: str, coefficients: dict):
        self.name = name
        # (FieldSymbol, MultiIndex) -> GradedPoly
        self.coefficients = {k: p for k, p in coefficients.items()
                             if not p.is_zero()}

    def __eq__(self, other):
        if other.__class__ is not NoetherOperator:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return (f"NoetherOperator(name={self.name!r}, "
                f"coefficients={self.coefficients!r})")

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
        return GradedPoly.sum(
            poly * GradedPoly.variable(jet(antifield(sym), index))
            for (sym, index), poly in self.sorted_items())

    def contraction(self, el: EulerLagrange,
                    cap: int = DEFAULT_JET_CAP) -> GradedPoly:
        return expand_witness(self.coefficients, el, cap)

    def is_zero(self) -> bool:
        return not self.coefficients


def noether_operator_from_density(p: GradedPoly, name: str = "") -> NoetherOperator:
    """Read the coefficient family off an antifield-linear density."""
    try:
        table, free = p.split_linear(_is_antifield, side="right")
    except ValueError:  # a monomial with two antifield factors
        free = p
    if not free.is_zero():
        raise GaugeError("density is not antifield-linear")
    return NoetherOperator(name, {(v.symbol.base, v.index): coeff
                                  for v, coeff in table.items()})


def check_noether_identity(op: NoetherOperator, el: EulerLagrange,
                           cap: int = DEFAULT_JET_CAP) -> bool:
    return op.contraction(el, cap).is_zero()


def ghost_for(op: NoetherOperator, name: str) -> FieldSymbol:
    """A ghost inherits the parity of its Noether operator."""
    return FieldSymbol(name, KIND_GHOST, op.parity)


# ---------------------------------------------------------------------------
# formal adjoint and the gauge symmetry

def adjoint_table(op: NoetherOperator, cap: int = DEFAULT_JET_CAP) -> dict:
    """Coefficients of the formal adjoint: all total derivatives moved off
    the Euler-Lagrange factor onto the parameter slot,

        eta^{A,S} = sum over I containing S of
                    (-1)^|I| binom(I,S) d_{I-S} Delta^{A,I}.
    """
    return transfer_derivatives(op.coefficients.items(), cap)


def adjoint(op: NoetherOperator, ghost: FieldSymbol,
            cap: int = DEFAULT_JET_CAP) -> GeneralizedVectorField:
    """The gauge-symmetry components u^A = sum over S of c_S eta^{A,S}, read
    off the adjoint table once.  The independent check is the involution:
    moving the derivatives of eta back gives the declared operator."""
    if ghost.parity != op.parity:
        raise GaugeError("ghost parity must match the identity parity")
    eta = adjoint_table(op, cap)
    if transfer_derivatives(eta.items(), cap) != op.coefficients:
        raise InternalError("adjoint involution failed")
    comps: Dict[FieldSymbol, GradedPoly] = {}
    for (sym, sub), coeff in eta.items():
        if len(sub) > cap:
            raise JetCapError(len(sub), cap)
        accumulate(comps, sym, GradedPoly.variable(jet(ghost, sub)) * coeff)
    return GeneralizedVectorField.make(comps)


def collect_ghost_linear(polys: Mapping, ghosts,
                         side: str = "right") -> Tuple[dict, dict]:
    """Split each polynomial of ``{key: p}`` once on the jets of ``ghosts``:
    each monomial factors as coefficient * ghost jet (side='right': the jet
    moved to the right end; side='left': to the front).  Returns
    ({(ghost, multi-index): {key: coefficient}}, {key: ghost-free part}),
    without zero entries; a monomial of ghost degree above one is
    rejected.  Every ghost-jet split of the gauge and superpotential code
    goes through here."""
    ghosts = frozenset(ghosts)
    table: Dict[tuple, dict] = {}
    free: Dict[object, GradedPoly] = {}
    for key, p in polys.items():
        try:
            split, rest = p.split_linear(lambda v: v.symbol in ghosts, side)
        except ValueError:
            raise GaugeError("expression is not ghost-linear") from None
        for v, coeff in split.items():
            table.setdefault((v.symbol, v.index), {})[key] = coeff
        if not rest.is_zero():
            free[key] = rest
    return table, free


def recover_identity(u: GeneralizedVectorField, ghost: FieldSymbol,
                     L: Lagrangian, name: str = "") -> NoetherOperator:
    """Invert the adjoint: collect the ghost-jet coefficients of u and move
    the total derivatives back; the involution returns the original
    operator coefficients."""
    table, free = collect_ghost_linear(dict(u.vertical), {ghost}, side="left")
    if free:
        raise GaugeError("symmetry components must be ghost-linear")
    return NoetherOperator(name, transfer_derivatives(
        (((sym, index), eta) for (_, index), row in table.items()
         for sym, eta in row.items()), L.jet_cap))


class GaugeSymmetryResult(NamedTuple):
    """A symmetry u, its current J and J's check; ``check`` builds it."""
    symmetry: GeneralizedVectorField
    current: Current
    conservation: ExactnessResult  # symmetry_witness: div J = u^A E_A

    @classmethod
    def check(cls, u, J: Current, L: Lagrangian) -> "GaugeSymmetryResult":
        return cls(u, J, symmetry_witness(u, J, L.el, L.jet_cap))


def _by_parts_current(op: NoetherOperator, ghost: FieldSymbol,
                      el: EulerLagrange, dim: int, cap: int) -> Current:
    """A current whose divergence is the contracted source term, without
    zero components.

    Peeling one derivative at a time from (-d)_I(ghost Delta) E and using
    that the identity kills the fully transferred term gives

        sum (-d)_I(q) E = d_mu J^mu,
        J^mu accumulating (-1)^(k+1) d_(first k)(q) d_(rest)(E)

    at the index peeled in step k.  Exact by construction; no search."""
    terms = {mu: [] for mu in range(dim)}
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
            terms[lam].append(-term if sign < 0 else term)
            q = q.total_derivative(lam, cap)
            sign = -sign
            tail = rest
    return Current({mu: total for mu, parts in terms.items()
                    if not (total := GradedPoly.sum(parts)).is_zero()}, dim)


def gauge_symmetry(op: NoetherOperator, ghost: FieldSymbol,
                   L: Lagrangian) -> GaugeSymmetryResult:
    """Second Noether theorem, constructively.

    Evaluates the identity once and refuses when it fails: the GaugeError
    carries the nonzero contraction as ``residual``.  The current J comes
    from exact integration by parts of the contracted source, and J plus
    the contracted Lepage boundary is re-verified against pr u(L); when
    pr u(L) = 0 (an exact symmetry) J is minus that boundary.  J is
    re-verified against the contracted source: that check is the weak
    conservation div J = u^A E_A, made by ``GaugeSymmetryResult.check`` as
    for a declared symmetry, and the result carries it as ``conservation``.
    """
    el = L.el
    residual = op.contraction(el, L.jet_cap)
    if not residual.is_zero():
        raise GaugeError(f"identity {op.name!r} does not hold", residual)
    u = adjoint(op, ghost, L.jet_cap)
    deriv = L.prolongation(u)
    lie = prolonged_variation(deriv, L)
    boundary = contract(deriv, L.lepage).horizontal_part()
    if lie.is_zero():
        current = Current.from_form(-boundary)
    else:
        current = _by_parts_current(op, ghost, el, L.dim, L.jet_cap)
        witness = current.form() + boundary
        if not (witness.horizontal_differential(L.jet_cap) - lie).is_zero():
            raise InternalError("gauge witness failed its re-check")
    # J must be an antiderivative of the contracted source term
    result = GaugeSymmetryResult.check(u, current, L)
    if not result.conservation:
        raise InternalError("gauge current failed its conservation check")
    return result


def extended_lagrangian(L: Lagrangian,
                        identities: Sequence[Tuple[NoetherOperator, FieldSymbol]],
                        validate: bool = True) -> GradedPoly:
    """Original density plus ghost times the antifield contraction of each
    identity; the Koszul-Tate variation of the result must vanish."""
    terms = [L.density]
    for op, ghost in identities:
        if ghost.parity != op.parity:
            raise GaugeError("ghost parity must match the identity parity")
        terms.append(GradedPoly.variable(jet(ghost)) * op.density())
    out = GradedPoly.sum(terms)
    if validate:
        residual = koszul_tate(out, L.el, L.jet_cap)
        if not residual.is_zero():
            raise GaugeError("Koszul-Tate variation of the extended "
                             "Lagrangian is nonzero: identities do not hold")
    return out
