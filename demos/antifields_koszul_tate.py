"""Antifields, the Koszul-Tate differential and the second Noether theorem.

Boundaries of the antifield complex are automatically identities between
the Euler-Lagrange expressions; the formal adjoint turns an identity into
a gauge symmetry and taking the adjoint again recovers the identity.
"""

from fractions import Fraction

from vnoether import (FieldSymbol, GradedPoly, Lagrangian, NoetherOperator,
                      adjoint, antifield, check_noether_identity,
                      euler_lagrange, extended_lagrangian, ghost_for, jet,
                      koszul_tate, noether_operator_from_density, poly_text,
                      recover_identity)

P = GradedPoly.variable

phi, psi = FieldSymbol("phi"), FieldSymbol("psi")
p = P(jet(phi, (0,))) - P(jet(psi))
L = Lagrangian(Fraction(1, 2) * p * p, dim=1)
el = euler_lagrange(L)
for sym in (phi, psi):
    print(f"E[{sym.name}] =", poly_text(el.component(sym)))

# the Koszul-Tate differential replaces antifields by equations of motion
bar_phi = antifield(phi)
print("kt(phi~) =", poly_text(koszul_tate(P(jet(bar_phi)), el)))
two = P(jet(bar_phi)) * P(jet(antifield(psi)))
print("kt is nilpotent on an antifield-squared density:",
      koszul_tate(koszul_tate(two, el), el).is_zero())

# a boundary of the antifield complex is automatically an identity
boundary = koszul_tate(P(jet(bar_phi)) * P(jet(antifield(psi), (0,))), el)
op_from_boundary = noether_operator_from_density(boundary, "boundary")
print("boundary identity verifies:",
      check_noether_identity(op_from_boundary, el))

# the declared identity of this model and its gauge symmetry
op = NoetherOperator("stueck", {(phi, ()): GradedPoly.constant(1),
                                (psi, (0,)): GradedPoly.constant(-1)})
print("declared identity verifies:", check_noether_identity(op, el))
ghost = ghost_for(op, "c")
u = adjoint(op, ghost)
for sym, poly in u.vertical:
    print(f"u[{sym.name}] =", poly_text(poly))

recovered = recover_identity(u, ghost, L)
print("adjoint involution recovers the identity:",
      recovered.coefficients == op.coefficients)

extended = extended_lagrangian(L, [(op, ghost)])
print("extended density:", poly_text(extended))
print("kt variation of the extended density vanishes:",
      koszul_tate(extended, el).is_zero())
