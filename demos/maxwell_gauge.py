"""The full gauge pipeline on the vector-potential model, from the model
file to the superpotential split.

The conserved current of the gauge symmetry reduces to an on-shell-zero
piece plus the divergence of an antisymmetric superpotential; every step
below is an exact polynomial identity.
"""

from pathlib import Path

from vnoether import (check_noether_identity, euler_lagrange, extract,
                      gauge_symmetry, load_model, poly_text)

model = load_model((Path(__file__).resolve().parent.parent
                    / "models" / "maxwell2.vln").read_text())
L = model.lagrangian
print("density:", poly_text(L.density))

el = euler_lagrange(L, model.fields)
for sym, poly in el.sorted_items():
    print(f"E[{sym.name}] =", poly_text(poly))

op = model.identities["gauge"]
print("identity holds:", check_noether_identity(op, el))

ghost = model.ghost_of("gauge")
result = gauge_symmetry(op, ghost, L)
for sym, poly in result.symmetry.vertical:
    print(f"u[{sym.name}] =", poly_text(poly))
for mu in range(model.dim):
    print(f"J^{mu} =", poly_text(result.current.component(mu)))

# gauge_symmetry has checked div J = u^A E_A; the split reads its
# structural equations off that check and hands back the checks it ran
print("weak conservation:", "holds" if result.conservation else "FAILED")
split = extract(result, L)
print("structural equations:",
      "all hold" if all(c.ok for c in split.checks) else "FAILED")
for (nu, mu), poly in sorted(split.superpotential.components.items()):
    print(f"U^{nu}{mu} =", poly_text(poly))
for mu in range(model.dim):
    print(f"W^{mu} =", poly_text(split.w_component(mu)))
print("split verification:", split.report)
