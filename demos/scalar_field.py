"""Walk through the variational machinery on a free scalar field.

Covers: building ring elements, the Euler-Lagrange expression, the Lepage
form, testing a symmetry, deriving its conserved current and the
weak-conservation coefficients, read off the first variational formula.
"""

from fractions import Fraction

from vnoether import (FieldSymbol, GeneralizedVectorField, GradedPoly,
                      Lagrangian, check_lepage, euler_lagrange,
                      expand_witness, first_variational_residual,
                      is_variational_symmetry, jet, lepage_equivalent,
                      noether_current, poly_text, symmetry_witness)

P = GradedPoly.variable

phi = FieldSymbol("phi")
L = Lagrangian(Fraction(1, 2) * P(jet(phi, (0,))) ** 2, dim=1)
print("Lagrangian density:", poly_text(L.density))

el = euler_lagrange(L)
print("Euler-Lagrange expression:", poly_text(el.component(phi)))

xi = lepage_equivalent(L)
print("Lepage contact coefficient at th[phi]:",
      poly_text(xi.coefficient(contact=(jet(phi),))))
print("Lepage identity holds:", check_lepage(L))

# the translation is a variational symmetry: its Lie derivative of L is a
# total derivative
shift = GeneralizedVectorField.make({phi: P(jet(phi, (0,)))})
print("variational-formula residual is zero:",
      first_variational_residual(shift, L).is_zero())
sym = is_variational_symmetry(shift, L)
print("divergence witness sigma:", poly_text(sym.witness.coefficient()))

current = noether_current(shift, L, sym.witness)
print("Noether current J^0:", poly_text(current.component(0)))

# d_H J = u^A E_A: the symmetry components are the coefficients
witness = symmetry_witness(shift, current, el)
for (symbol, index), coeff in sorted(witness.witness.items(),
                                     key=lambda it: it[0][0].name):
    print(f"div J = ... + ({poly_text(coeff)}) * d_{list(index)} E_{symbol.name}")
print("weak conservation reconstructs exactly:",
      expand_witness(witness.witness, el) == current.divergence())
